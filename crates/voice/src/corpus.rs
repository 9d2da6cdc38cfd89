//! Synthetic speech corpora.
//!
//! Table I's experiments need (1) a five-speaker passphrase dataset with
//! mimicry attempts (Test 1) and (2) two corpora with *different channel
//! statistics* for the cross-corpus test (Test 2: UBM trained on Voxforge,
//! tested on CMU Arctic). The builders here produce both; the "arctic"
//! variant applies a distinct fixed studio coloration so train/test
//! channels mismatch exactly as in the paper.

use crate::profile::SpeakerProfile;
use crate::synth::{FormantSynthesizer, SessionEffects, VOICE_SAMPLE_RATE};
use magshield_simkit::par;
use magshield_simkit::rng::SimRng;

/// One recorded utterance.
#[derive(Debug, Clone, PartialEq)]
pub struct Utterance {
    /// Speaker who produced it.
    pub speaker_id: u32,
    /// The digit passphrase spoken.
    pub digits: String,
    /// Session index (recordings in one session share channel effects).
    pub session: u32,
    /// Mono audio at [`VOICE_SAMPLE_RATE`].
    pub audio: Vec<f64>,
}

/// A collection of utterances with the speaker roster.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// The speakers present.
    pub speakers: Vec<SpeakerProfile>,
    /// All utterances.
    pub utterances: Vec<Utterance>,
}

impl Corpus {
    /// Utterances of one speaker.
    pub fn of_speaker(&self, id: u32) -> Vec<&Utterance> {
        self.utterances
            .iter()
            .filter(|u| u.speaker_id == id)
            .collect()
    }

    /// The profile of a speaker id.
    pub fn speaker(&self, id: u32) -> Option<&SpeakerProfile> {
        self.speakers.iter().find(|s| s.id == id)
    }
}

/// Configuration for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of speakers.
    pub num_speakers: usize,
    /// Sessions per speaker.
    pub sessions_per_speaker: usize,
    /// Utterances per session.
    pub utterances_per_session: usize,
    /// Digits per passphrase.
    pub passphrase_len: usize,
    /// Session variability strength (see [`SessionEffects::sample`]).
    pub session_strength: f64,
    /// Extra fixed channel applied to every utterance (tilt dB/oct) —
    /// models a corpus-wide recording setup (e.g. Arctic's studio).
    pub corpus_tilt_db_per_oct: f64,
    /// First speaker id (so two corpora can have disjoint rosters).
    pub first_speaker_id: u32,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            num_speakers: 10,
            sessions_per_speaker: 2,
            utterances_per_session: 3,
            passphrase_len: 6,
            session_strength: 1.0,
            corpus_tilt_db_per_oct: 0.0,
            first_speaker_id: 0,
        }
    }
}

/// Generates a random digit passphrase.
pub fn random_passphrase(len: usize, rng: &mut SimRng) -> String {
    (0..len)
        .map(|_| char::from(b'0' + rng.index(10) as u8))
        .collect()
}

/// Builds a corpus per `config`; fully deterministic in `rng`.
///
/// Utterances come out speaker by speaker, session by session, take by
/// take. Profiles, passphrases and session effects are drawn first, on
/// the calling thread; then every utterance renders from its own
/// [`SimRng::fork_indexed`] stream, concurrently through [`par::map`].
/// The corpus is therefore bit-identical whatever the number of CPUs.
pub fn build_corpus(config: &CorpusConfig, rng: &SimRng) -> Corpus {
    let synth = FormantSynthesizer::new(VOICE_SAMPLE_RATE);
    let speakers: Vec<SpeakerProfile> = (0..config.num_speakers)
        .map(|i| SpeakerProfile::sample(config.first_speaker_id + i as u32, rng))
        .collect();
    let mut takes = Vec::new();
    for sp in &speakers {
        // Each speaker keeps one passphrase (text-dependent ASV).
        let mut prng = rng.fork_indexed("passphrase", u64::from(sp.id));
        let digits = random_passphrase(config.passphrase_len, &mut prng);
        for session in 0..config.sessions_per_speaker {
            let srng = rng.fork_indexed("session-fx", (u64::from(sp.id) << 8) | session as u64);
            let mut fx = SessionEffects::sample(&srng, config.session_strength);
            fx.channel_tilt_db_per_oct += config.corpus_tilt_db_per_oct;
            for utt in 0..config.utterances_per_session {
                let urng = rng.fork_indexed(
                    "utterance",
                    (u64::from(sp.id) << 16) | ((session as u64) << 8) | utt as u64,
                );
                takes.push((sp, digits.clone(), session as u32, fx, urng));
            }
        }
    }
    let utterances = par::map(&takes, |(sp, digits, session, fx, urng)| Utterance {
        speaker_id: sp.id,
        digits: digits.clone(),
        session: *session,
        audio: synth.render_digits(sp, digits, *fx, urng),
    });
    Corpus {
        speakers,
        utterances,
    }
}

/// The paper's Test 1 dataset: five speakers, each pronouncing a unique
/// six-digit passphrase five times (§IV-C).
///
/// The five are drawn from a candidate pool with greedy max-separation,
/// mirroring the fact that the paper's volunteers are five *distinct
/// humans* — unconstrained random profile sampling occasionally produces
/// near-twin voices no short-utterance verifier could tell apart.
pub fn test1_corpus(rng: &SimRng) -> Corpus {
    // Greedily select 5 well-separated speakers from 15 candidates.
    let pool: Vec<SpeakerProfile> = (0..15)
        .map(|i| SpeakerProfile::sample(i, &rng.fork("t1-pool")))
        .collect();
    let mut chosen: Vec<SpeakerProfile> = vec![pool[0].clone()];
    while chosen.len() < 5 {
        let best = pool
            .iter()
            .filter(|c| chosen.iter().all(|s| s.id != c.id))
            .max_by(|a, b| {
                let da = chosen
                    .iter()
                    .map(|s| s.distance(a))
                    .fold(f64::INFINITY, f64::min);
                let db = chosen
                    .iter()
                    .map(|s| s.distance(b))
                    .fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db).unwrap()
            })
            .expect("pool has candidates")
            .clone();
        chosen.push(best);
    }

    let synth = FormantSynthesizer::new(VOICE_SAMPLE_RATE);
    let mut utterances = Vec::new();
    for sp in &chosen {
        let mut prng = rng.fork_indexed("t1-passphrase", u64::from(sp.id));
        let digits = random_passphrase(6, &mut prng);
        let srng = rng.fork_indexed("t1-session-fx", u64::from(sp.id));
        let fx = SessionEffects::sample(&srng, 0.5);
        for utt in 0..5u32 {
            let urng = rng.fork_indexed("t1-utt", (u64::from(sp.id) << 8) | u64::from(utt));
            utterances.push(Utterance {
                speaker_id: sp.id,
                digits: digits.clone(),
                session: 0,
                audio: synth.render_digits(sp, &digits, fx, &urng),
            });
        }
    }
    Corpus {
        speakers: chosen,
        utterances,
    }
}

/// A Voxforge stand-in: many speakers, varied home-recording channels.
pub fn voxforge_like(num_speakers: usize, rng: &SimRng) -> Corpus {
    build_corpus(
        &CorpusConfig {
            num_speakers,
            sessions_per_speaker: 2,
            utterances_per_session: 3,
            passphrase_len: 6,
            session_strength: 1.2,
            corpus_tilt_db_per_oct: 0.0,
            first_speaker_id: 100,
        },
        rng,
    )
}

/// A CMU-Arctic stand-in: a small roster, clean studio channel with a
/// fixed coloration differing from the Voxforge-like corpus, and the same
/// utterance text for everyone (as in Arctic).
pub fn arctic_like(num_speakers: usize, rng: &SimRng) -> Corpus {
    let synth = FormantSynthesizer::new(VOICE_SAMPLE_RATE);
    let speakers: Vec<SpeakerProfile> = (0..num_speakers)
        .map(|i| SpeakerProfile::sample(500 + i as u32, rng))
        .collect();
    let digits = "314159"; // shared utterance, mimicking Arctic's fixed text
    let mut utterances = Vec::new();
    for sp in &speakers {
        for session in 0..2u32 {
            let srng = rng.fork_indexed("arctic-fx", (u64::from(sp.id) << 8) | u64::from(session));
            let mut fx = SessionEffects::sample(&srng, 0.3);
            fx.channel_tilt_db_per_oct += 1.5; // bright studio chain
            fx.noise_floor = 0.0008;
            for utt in 0..4u32 {
                let urng = rng.fork_indexed(
                    "arctic-utt",
                    (u64::from(sp.id) << 16) | (u64::from(session) << 8) | u64::from(utt),
                );
                utterances.push(Utterance {
                    speaker_id: sp.id,
                    digits: digits.to_string(),
                    session,
                    audio: synth.render_digits(sp, digits, fx, &urng),
                });
            }
        }
    }
    Corpus {
        speakers,
        utterances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test1_shape_matches_paper() {
        let c = test1_corpus(&SimRng::from_seed(1));
        assert_eq!(c.speakers.len(), 5);
        assert_eq!(c.utterances.len(), 25);
        for sp in &c.speakers {
            let utts = c.of_speaker(sp.id);
            assert_eq!(utts.len(), 5);
            // One unique passphrase per speaker.
            assert!(utts.iter().all(|u| u.digits == utts[0].digits));
            assert_eq!(utts[0].digits.len(), 6);
        }
    }

    #[test]
    fn passphrases_differ_across_speakers() {
        let c = test1_corpus(&SimRng::from_seed(2));
        let phrases: Vec<_> = c
            .speakers
            .iter()
            .map(|s| c.of_speaker(s.id)[0].digits.clone())
            .collect();
        let unique: std::collections::HashSet<_> = phrases.iter().collect();
        assert!(
            unique.len() >= 4,
            "passphrases should be (almost surely) unique"
        );
    }

    #[test]
    fn corpora_have_disjoint_rosters() {
        let rng = SimRng::from_seed(3);
        let vox = voxforge_like(4, &rng);
        let arc = arctic_like(3, &rng);
        for v in &vox.speakers {
            assert!(arc.speaker(v.id).is_none());
        }
    }

    #[test]
    fn arctic_shares_text() {
        let arc = arctic_like(3, &SimRng::from_seed(4));
        assert!(arc.utterances.iter().all(|u| u.digits == "314159"));
        assert_eq!(arc.utterances.len(), 3 * 2 * 4);
    }

    #[test]
    fn build_is_deterministic() {
        let a = test1_corpus(&SimRng::from_seed(5));
        let b = test1_corpus(&SimRng::from_seed(5));
        assert_eq!(a.utterances.len(), b.utterances.len());
        assert_eq!(a.utterances[7].audio, b.utterances[7].audio);
    }

    #[test]
    fn sessions_share_channel_but_not_takes() {
        let c = build_corpus(
            &CorpusConfig {
                num_speakers: 1,
                sessions_per_speaker: 1,
                utterances_per_session: 2,
                ..Default::default()
            },
            &SimRng::from_seed(6),
        );
        assert_ne!(
            c.utterances[0].audio, c.utterances[1].audio,
            "takes must differ even within a session"
        );
    }
}

//! Offline training: turns a user's enrollment into a [`ModelBundle`].
//!
//! This is the training half of the training/serving split. A [`Trainer`]
//! owns the training sizing ([`BootstrapConfig`]) and the thresholds the
//! resulting models should ship with; [`Trainer::train`] runs the full
//! pipeline of the paper — the GMM–UBM backend on a background corpus,
//! MAP-adapted speaker model from the user's enrollment captures, and the
//! sound-field SVM from the same captures plus synthetic machine-source
//! negatives — and returns an immutable, serializable [`ModelBundle`].
//! Serving never trains: a
//! [`DefenseSystem`](crate::pipeline::DefenseSystem) is *constructed
//! from* a bundle.
//!
//! Training is deterministic in the provided [`SimRng`]: the same seed
//! and sizing produce a byte-identical bundle, which is what makes golden
//! bundle artifacts testable in CI.

use crate::artifact::{BundleMeta, ModelBundle};
use crate::components::sound_field::{feature_vector, SoundFieldModel};
use crate::components::speaker_id;
use crate::config::DefenseConfig;
use crate::scenario::{ScenarioBuilder, SourceKind, UserContext};
use magshield_asv::frontend::FeatureExtractor;
use magshield_asv::model::UbmBackend;
use magshield_asv::ubm::{train_ubm, UbmConfig};
use magshield_physics::acoustics::tube::SoundTube;
use magshield_simkit::par;
use magshield_simkit::rng::SimRng;
use magshield_voice::attacks::AttackKind;
use magshield_voice::devices::{table_iv_catalog, PlaybackDevice};
use magshield_voice::profile::SpeakerProfile;
use magshield_voice::synth::VOICE_SAMPLE_RATE;

/// Sizing of a training run.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapConfig {
    /// Speakers in the UBM training corpus.
    pub ubm_speakers: usize,
    /// UBM mixture components.
    pub ubm_components: usize,
    /// EM iterations.
    pub em_iters: usize,
    /// Genuine sessions captured for sound-field training.
    pub sound_field_positives: usize,
    /// Enrollment utterances for the user's speaker model.
    pub enrollment_utterances: usize,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            ubm_speakers: 6,
            ubm_components: 32,
            em_iters: 8,
            sound_field_positives: 10,
            enrollment_utterances: 3,
        }
    }
}

impl BootstrapConfig {
    /// A minimal configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            ubm_speakers: 3,
            ubm_components: 8,
            em_iters: 4,
            sound_field_positives: 6,
            enrollment_utterances: 2,
        }
    }
}

/// Produces [`ModelBundle`]s — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Trainer {
    cfg: BootstrapConfig,
    config: DefenseConfig,
    notes: String,
}

/// The `producer` string [`Trainer`] stamps into [`BundleMeta`].
pub const TRAINER_PRODUCER: &str = "magshield-trainer";

impl Trainer {
    /// A trainer with the given sizing and default thresholds.
    pub fn new(cfg: BootstrapConfig) -> Self {
        Self {
            cfg,
            config: DefenseConfig::default(),
            notes: String::new(),
        }
    }

    /// Returns the trainer shipping `config` in its bundles (the
    /// sound-field feature extraction uses `config.sound_field_bins`).
    #[must_use]
    pub fn with_config(mut self, config: DefenseConfig) -> Self {
        self.config = config;
        self
    }

    /// Returns the trainer stamping `notes` into bundle provenance.
    #[must_use]
    pub fn with_notes(mut self, notes: impl Into<String>) -> Self {
        self.notes = notes.into();
        self
    }

    /// Trains a complete bundle for `user`:
    ///
    /// 1. a GMM–UBM backend (UBM plus Z-norm cohort) on a background
    ///    corpus;
    /// 2. the user's MAP-adapted speaker model from enrollment utterances;
    /// 3. the sound-field SVM from genuine enrollment sessions (positive)
    ///    and synthetic machine-source sessions (negative) — the negative
    ///    templates ship with the system, no attacker data required.
    ///
    /// Deterministic in `rng`: a given seed always yields a byte-identical
    /// bundle, on any number of CPUs. The corpus synthesis, the corpus
    /// feature extraction and the session captures run concurrently
    /// through [`par::map`] (every random item on its own fork of `rng`),
    /// and their results are used in input order. Speaker profile
    /// sampling, EM, enrollment and SVM training run sequentially on the
    /// calling thread.
    pub fn train(&self, user: &UserContext, rng: &SimRng) -> ModelBundle {
        let cfg = self.cfg;
        // --- ASV backend ---
        let extractor = FeatureExtractor::new(VOICE_SAMPLE_RATE);
        let corpus =
            magshield_voice::corpus::voxforge_like(cfg.ubm_speakers, &rng.fork("ubm-corpus"));
        // One extraction per corpus utterance feeds the UBM and the Z-norm
        // cohort.
        let frames = par::map(&corpus.utterances, |u| extractor.extract(&u.audio));
        let ubm = train_ubm(
            &frames,
            UbmConfig {
                components: cfg.ubm_components,
                em_iters: cfg.em_iters,
                max_frames: 20_000,
            },
            &rng.fork("ubm-train"),
        );
        let engine = UbmBackend::new(extractor, ubm).with_cohort(&frames);

        // --- enrollment and attack sessions ---
        // The genuine enrollment captures serve double duty, exactly as in
        // the paper ("the voice samples are also used for the sound source
        // verification"): their pilot-filtered, channel-matched audio
        // enrolls the speaker model, and their sound-field features are
        // the SVM positives. Enrolling through the same capture chain as
        // verification keeps the ASV channel matched. The machine-source
        // captures are the SVM negatives.
        let config = self.config;
        let takes = training_takes(cfg, user, rng);
        let captured = par::map(&takes, |take| {
            let s = take.session.capture(&take.rng);
            let features = take
                .features
                .then(|| feature_vector(&s, config.sound_field_bins))
                .flatten();
            let audio = take.enroll.then(|| speaker_id::asv_audio(&s));
            (features, audio)
        });
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        let mut enrollment_audio = Vec::new();
        for (take, (features, audio)) in takes.iter().zip(captured) {
            if take.genuine {
                positives.extend(features);
            } else {
                negatives.extend(features);
            }
            enrollment_audio.extend(audio);
        }
        let refs: Vec<&[f64]> = enrollment_audio.iter().map(|u| u.as_slice()).collect();
        let model = engine.enroll(user.profile.id, &refs);
        let sound_field = SoundFieldModel::train(
            &positives,
            &negatives,
            config.sound_field_bins,
            &rng.fork("sf-train"),
        );

        ModelBundle {
            meta: BundleMeta {
                producer: TRAINER_PRODUCER.to_string(),
                ubm_speakers: cfg.ubm_speakers as u32,
                ubm_components: cfg.ubm_components as u32,
                em_iters: cfg.em_iters as u32,
                use_isv: false,
                notes: self.notes.clone(),
            },
            config,
            engine,
            speakers: vec![model],
            sound_field,
        }
    }
}

/// One training session to capture: the scenario, its own RNG stream,
/// and what training keeps of it.
struct Take {
    session: ScenarioBuilder,
    rng: SimRng,
    /// A live-user session (a sound-field positive) rather than a
    /// machine-source one (a negative).
    genuine: bool,
    /// Extract its sound-field features.
    features: bool,
    /// Keep its ASV audio to enroll the user's speaker model.
    enroll: bool,
}

/// Every session [`Trainer::train`] captures, in the order their results
/// are used:
///
/// 1. the genuine sessions at 4–6 cm: the first `sound_field_positives`
///    are SVM positives, the first `enrollment_utterances` enroll the
///    user;
/// 2. the negatives: two replay takes on each of four conventional
///    devices (earphones to desktop speaker), replayed and synthesized
///    takes on a large electrostatic-class panel, so the spatial
///    signature is learned independently of the audio's temporal
///    structure, and one replay through a sound tube.
///
/// Each take draws from its own fork of `rng`, so capturing them in any
/// order, on any number of threads, gives the same bytes.
fn training_takes(cfg: BootstrapConfig, user: &UserContext, rng: &SimRng) -> Vec<Take> {
    let n_sessions = cfg.sound_field_positives.max(cfg.enrollment_utterances);
    let mut takes: Vec<Take> = (0..n_sessions)
        .map(|i| Take {
            session: ScenarioBuilder::genuine(user)
                .at_distance(0.04 + 0.02 * (i as f64 / n_sessions.max(1) as f64)),
            rng: rng.fork_indexed("sf-pos", i as u64),
            genuine: true,
            features: i < cfg.sound_field_positives,
            enroll: i < cfg.enrollment_utterances,
        })
        .collect();
    let attacker = SpeakerProfile::sample(999, &rng.fork("sf-attacker"));
    let negative = |kind: AttackKind, device: &PlaybackDevice, rng: SimRng| Take {
        session: ScenarioBuilder::machine_attack(user, kind, device.clone(), attacker.clone())
            .at_distance(0.05),
        rng,
        genuine: false,
        features: true,
        enroll: false,
    };
    let catalog = table_iv_catalog();
    let negative_devices = [
        "Apple EarPods",
        "Samsung Galaxy S Headset",
        "Logitech LS21",
        "Pioneer SP-FS52",
    ];
    for (i, key) in negative_devices.iter().enumerate() {
        if let Some(dev) = catalog.iter().find(|d| d.name.contains(key)) {
            for take in 0..2u64 {
                takes.push(negative(
                    AttackKind::Replay,
                    dev,
                    rng.fork_indexed("sf-neg", (i as u64) << 8 | take),
                ));
            }
        }
    }
    if let Some(esl) = magshield_voice::devices::unconventional_catalog().first() {
        for (k, kind) in [AttackKind::Replay, AttackKind::Synthesis]
            .into_iter()
            .enumerate()
        {
            for take in 0..2u64 {
                takes.push(negative(
                    kind,
                    esl,
                    rng.fork_indexed("sf-neg-esl", (k as u64) << 8 | take),
                ));
            }
        }
    }
    let mut tube = negative(AttackKind::Replay, &catalog[0], rng.fork("sf-neg-tube"));
    tube.session.source = SourceKind::DeviceViaTube {
        device: catalog[0].clone(),
        tube: SoundTube::new(0.30, 0.0125),
    };
    takes.push(tube);
    takes
}

#[cfg(test)]
mod tests {
    use super::*;
    use magshield_ml::codec::BinaryCodec;

    #[test]
    fn training_is_deterministic_in_the_seed() {
        let rng = SimRng::from_seed(4242);
        let user = UserContext::sample(&rng.fork("user"));
        let trainer = Trainer::new(BootstrapConfig {
            ubm_speakers: 2,
            ubm_components: 4,
            em_iters: 2,
            sound_field_positives: 6,
            enrollment_utterances: 1,
        });
        let a = trainer.train(&user, &SimRng::from_seed(7)).to_bytes();
        let b = trainer.train(&user, &SimRng::from_seed(7)).to_bytes();
        assert_eq!(a, b, "same seed must give a byte-identical bundle");
        let c = trainer.train(&user, &SimRng::from_seed(8)).to_bytes();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn trained_bundles_validate_and_carry_provenance() {
        let rng = SimRng::from_seed(77);
        let user = UserContext::sample(&rng.fork("user"));
        let bundle = Trainer::new(BootstrapConfig {
            ubm_speakers: 2,
            ubm_components: 4,
            em_iters: 2,
            sound_field_positives: 6,
            enrollment_utterances: 1,
        })
        .with_notes("unit-test")
        .train(&user, &rng.fork("train"));
        assert!(bundle.validate().is_ok());
        assert_eq!(bundle.meta.producer, TRAINER_PRODUCER);
        assert_eq!(bundle.meta.ubm_components, 4);
        assert_eq!(bundle.meta.notes, "unit-test");
        assert_eq!(bundle.speakers.len(), 1);
        assert_eq!(bundle.speakers[0].speaker_id, user.profile.id);
    }
}

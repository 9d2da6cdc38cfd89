//! Speaker identity verification (§IV-C) — the ASV component.
//!
//! Wraps the GMM–UBM / ISV backends of `magshield-asv` behind the
//! cascade's normalized-score interface.

use crate::analysis::{SessionAnalysis, SpeechParts};
use crate::config::DefenseConfig;
use crate::session::SessionData;
use crate::verdict::{Component, ComponentResult};
use magshield_asv::isv::IsvBackend;
use magshield_asv::model::{AsvScore, EnrollError, SpeakerModel, UbmBackend};
use magshield_ml::codec::{self, BinaryCodec, ByteReader, ByteWriter, CodecError};

/// Which verification technique to run — the two rows of Table I.
#[derive(Debug, Clone)]
pub enum AsvEngine {
    /// Plain GMM–UBM with MAP-adapted speaker models.
    Ubm(UbmBackend),
    /// GMM–UBM on session-compensated features.
    Isv(IsvBackend),
}

impl AsvEngine {
    /// Enrolls a speaker.
    ///
    /// # Panics
    ///
    /// Panics if no feature frames can be extracted; [`Self::try_enroll`]
    /// returns that refusal instead.
    pub fn enroll(&self, speaker_id: u32, utterances: &[&[f64]]) -> SpeakerModel {
        self.try_enroll(speaker_id, utterances)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Enrolls a speaker, refusing utterances that yield no feature
    /// frames.
    pub fn try_enroll(
        &self,
        speaker_id: u32,
        utterances: &[&[f64]],
    ) -> Result<SpeakerModel, EnrollError> {
        match self {
            AsvEngine::Ubm(b) => b.try_enroll(speaker_id, utterances),
            AsvEngine::Isv(b) => b.try_enroll(speaker_id, utterances),
        }
    }

    /// The universal background model speaker enrollment adapts from —
    /// the delta-record prior for the durable store's write-ahead log.
    pub fn ubm(&self) -> &magshield_ml::gmm::DiagonalGmm {
        match self {
            AsvEngine::Ubm(b) => &b.ubm,
            AsvEngine::Isv(b) => &b.ubm_backend.ubm,
        }
    }

    /// Z-normalized verification score, exact (no pruning, not
    /// quantized): the [`AsvScore::z`] of [`Self::score_detailed_opts`].
    pub fn score(&self, model: &SpeakerModel, audio: &[f64]) -> f64 {
        match self {
            AsvEngine::Ubm(b) => b.score(model, audio),
            AsvEngine::Isv(b) => b.score(model, audio),
        }
    }

    /// Fast-path score with per-call accounting. `top_c` bounds the
    /// speaker-side Gaussian evaluations per frame (`0` = exact);
    /// `quantized` (`DefenseConfig::asv_quantized`) scores on the cached
    /// i16-mean `QuantizedGmm` pair instead of the exact `PreparedGmm`
    /// pair.
    pub fn score_detailed_opts(
        &self,
        model: &SpeakerModel,
        audio: &[f64],
        top_c: usize,
        quantized: bool,
    ) -> AsvScore {
        match self {
            AsvEngine::Ubm(b) => b.score_detailed_opts(model, audio, top_c, quantized),
            AsvEngine::Isv(b) => b.score_detailed_opts(model, audio, top_c, quantized),
        }
    }
}

/// Tagged union: a kind byte (0 = GMM–UBM, 1 = ISV) followed by the
/// nested, self-checking backend artifact.
impl BinaryCodec for AsvEngine {
    const MAGIC: u32 = codec::magic(b"MENG");
    const VERSION: u8 = 1;
    const NAME: &'static str = "AsvEngine";

    fn encode_payload(&self, w: &mut ByteWriter) {
        match self {
            AsvEngine::Ubm(b) => {
                w.put_u8(0);
                w.put_artifact(b);
            }
            AsvEngine::Isv(b) => {
                w.put_u8(1);
                w.put_artifact(b);
            }
        }
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(AsvEngine::Ubm(UbmBackend::from_bytes(r.get_nested()?)?)),
            1 => Ok(AsvEngine::Isv(IsvBackend::from_bytes(r.get_nested()?)?)),
            found => Err(CodecError::BadTag {
                what: "ASV engine kind",
                found,
            }),
        }
    }
}

/// Extracts the ASV-ready speech from a session: the ranging pilot is
/// removed with a steep low-pass (it would otherwise alias into the
/// speech band at the 16 kHz ASV rate), then the audio is resampled to
/// the voice rate ([`SessionAnalysis::asv_audio`]).
///
/// Enrollment and verification **must** share this path — the paper's
/// design enrolls from on-device captures ("the voice samples are also
/// used for the sound source verification"), which keeps the channel
/// matched.
pub fn asv_audio(session: &SessionData) -> Vec<f64> {
    SessionAnalysis::new(session, SpeechParts::ASV_AUDIO).into_asv_audio()
}

/// Runs the component: scores the session's ASV audio against the
/// claimed speaker's model. Also returns the scoring accounting
/// ([`AsvScore`]).
pub fn verify(
    analysis: &SessionAnalysis,
    engine: &AsvEngine,
    model: &SpeakerModel,
    config: &DefenseConfig,
) -> (ComponentResult, AsvScore) {
    let audio = analysis.asv_audio();
    let score = engine.score_detailed_opts(model, audio, config.asv_top_c, config.asv_quantized);
    let z = score.z;
    // Per-user calibrated threshold (floored at the config value), in
    // Z-norm units; the score hits the cascade boundary (1.0) at the
    // threshold and decreases with margin above it.
    let threshold = model.calibrated_threshold(config.asv_threshold);
    let attack_score = if z.is_finite() {
        (1.0 - (z - threshold) / config.asv_scale).max(0.0)
    } else {
        2.0
    };
    let result = ComponentResult {
        component: Component::SpeakerIdentity,
        attack_score,
        detail: format!("z-score {z:.2} (threshold {threshold:.2})"),
    };
    (result, score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magshield_ml::codec::ByteWriter;
    use magshield_simkit::rng::SimRng;
    use magshield_voice::profile::SpeakerProfile;
    use magshield_voice::synth::{FormantSynthesizer, SessionEffects};

    #[test]
    fn engine_round_trips_with_identical_scores() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let snapshot = sys.models();
        let engine = &snapshot.engine;
        let back = AsvEngine::from_bytes(&engine.to_bytes()).unwrap();
        // Enrollment and scoring through the decoded engine are
        // bit-identical to the original.
        let speaker = SpeakerProfile::sample(31, &SimRng::from_seed(400));
        let synth = FormantSynthesizer::default();
        let utt = synth.render_digits(
            &speaker,
            "271828",
            SessionEffects::neutral(),
            &SimRng::from_seed(401),
        );
        let model_a = engine.enroll(31, &[&utt]);
        let model_b = back.enroll(31, &[&utt]);
        let probe = synth.render_digits(
            &speaker,
            "314159",
            SessionEffects::neutral(),
            &SimRng::from_seed(402),
        );
        assert_eq!(
            engine.score(&model_a, &probe).to_bits(),
            back.score(&model_b, &probe).to_bits()
        );
    }

    #[test]
    fn unknown_backend_kind_is_a_bad_tag() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_nested(&[]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            AsvEngine::decode_payload(&mut r),
            Err(CodecError::BadTag {
                what: "ASV engine kind",
                found: 7
            })
        ));
    }
}

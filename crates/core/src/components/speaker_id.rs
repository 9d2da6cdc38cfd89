//! Speaker identity verification (§IV-C) — the ASV component.
//!
//! Wraps the GMM–UBM backend of `magshield-asv` (the "UBM" system of
//! Table I, the one the defense serves) behind the cascade's
//! normalized-score interface. The ISV system of Table I lives only in
//! that experiment (`exp_table1`).

use crate::analysis::{SessionAnalysis, SpeechParts};
use crate::config::DefenseConfig;
use crate::session::SessionData;
use crate::verdict::{Component, ComponentResult};
use magshield_asv::model::{AsvScore, SpeakerModel, UbmBackend};

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
    engine: &UbmBackend,
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

//! Verdict digest: one hash over every verdict a fixed small corpus
//! draws from the default (GMM–UBM) tiny bootstrap.
//!
//! The corpus is one session per [`AttackFamily`] plus a genuine
//! session on a single-microphone and on a dual-microphone phone, each
//! verified under both [`ExecutionPolicy`]s. Each verdict contributes
//! its decision, every stage outcome (component, ran or skipped and the
//! skip's cause) and the `to_bits` of every `attack_score`, so a change
//! that moves any verdict bit changes [`VERDICT_DIGEST`].
//!
//! A change that means to move a verdict says so by re-pinning the
//! constant, as `artifact_compat` does for model bundles; the failure
//! message prints the new value and the per-session table behind it.
//!
//! `attack_score` clamps the speaker-identity stage at 0, so a moved ASV
//! score far above its threshold leaves every verdict bit alone.
//! [`ANALYSIS_DIGEST`] covers what the verdicts cannot see: per corpus
//! session, the bits of every speech-pass output (both level tracks and
//! the ASV audio) and of the unclamped
//! [`AsvScore::z`](magshield::asv::model::AsvScore::z).

use magshield::core::analysis::{SessionAnalysis, SpeechParts};
use magshield::core::cascade::ExecutionPolicy;
use magshield::core::components::speaker_id;
use magshield::core::pipeline::{BootstrapConfig, DefenseSystem};
use magshield::core::robustness::{attack_sessions, AttackFamily, EnvKind};
use magshield::core::scenario::{bootstrap_with, ScenarioBuilder};
use magshield::core::session::SessionData;
use magshield::core::verdict::{Decision, DefenseVerdict, StageOutcome};
use magshield::ml::codec::fnv1a_64;
use magshield::sensors::phone::PhoneModel;
use magshield::simkit::rng::SimRng;

/// FNV-1a/64 of the corpus's verdict bytes (see [`encode_verdict`]).
const VERDICT_DIGEST: u64 = 0xe5de_7693_3b8e_f043;

/// FNV-1a/64 of the corpus's speech-pass and ASV-score bytes (see
/// [`encode_analysis`]).
const ANALYSIS_DIGEST: u64 = 0x573e_8621_77ca_3e8c;

/// The labeled corpus: every attack family in the quiet environment,
/// then the genuine single- and dual-microphone sessions.
fn corpus() -> (DefenseSystem, Vec<(String, SessionData)>) {
    let (system, user) = bootstrap_with(&SimRng::from_seed(2017), BootstrapConfig::tiny());
    let rng = SimRng::from_seed(31);
    let mut sessions: Vec<(String, SessionData)> = AttackFamily::all()
        .into_iter()
        .map(|family| {
            let s = attack_sessions(&user, family, EnvKind::Quiet, 1, &rng.fork("corpus"))
                .pop()
                .expect("one session");
            (family.name().to_string(), s)
        })
        .collect();
    let mut dual = user.clone();
    dual.phone = PhoneModel::Nexus4;
    sessions.push((
        "genuine_single_mic".to_string(),
        ScenarioBuilder::genuine(&user).capture(&rng.fork("genuine-single")),
    ));
    sessions.push((
        "genuine_dual_mic".to_string(),
        ScenarioBuilder::genuine(&dual).capture(&rng.fork("genuine-dual")),
    ));
    (system, sessions)
}

/// Appends the verdict's digest bytes: the decision, whether the session
/// failed validation, the stage count, then per stage its component
/// index and either the `attack_score` bits (ran) or the
/// short-circuiting cause (skipped).
fn encode_verdict(v: &DefenseVerdict, out: &mut Vec<u8>) {
    out.push(match v.decision {
        Decision::Accept => 1,
        Decision::Reject => 0,
    });
    out.push(u8::from(v.invalid.is_some()));
    out.push(v.stages.len() as u8);
    for stage in &v.stages {
        out.push(stage.component().index() as u8);
        match stage {
            StageOutcome::Ran(r) => {
                out.push(0);
                out.extend_from_slice(&r.attack_score.to_bits().to_le_bytes());
            }
            StageOutcome::Skipped(s) => {
                out.push(1);
                out.push(s.cause.index() as u8);
            }
        }
    }
}

/// One readable line per verdict, printed when the digest moves.
fn describe(label: &str, policy: ExecutionPolicy, v: &DefenseVerdict) -> String {
    let stages: Vec<String> = v
        .stages
        .iter()
        .map(|s| match s {
            StageOutcome::Ran(r) => {
                format!("{}={:#018x}", r.component.name(), r.attack_score.to_bits())
            }
            StageOutcome::Skipped(s) => format!("{}=skipped", s.component.name()),
        })
        .collect();
    format!("{label} {policy:?} {:?} [{}]", v.decision, stages.join(" "))
}

#[test]
fn verdicts_match_the_pinned_digest() {
    let (system, sessions) = corpus();
    let mut bytes = Vec::new();
    let mut table = Vec::new();
    for policy in [
        ExecutionPolicy::FullEvaluation,
        ExecutionPolicy::ShortCircuit,
    ] {
        for (label, session) in &sessions {
            let v = system.verify_with_policy(session, policy);
            encode_verdict(&v, &mut bytes);
            table.push(describe(label, policy, &v));
        }
    }
    let digest = fnv1a_64(&bytes);
    assert_eq!(
        digest,
        VERDICT_DIGEST,
        "verdict digest moved to {digest:#018x}; re-pin VERDICT_DIGEST only for an intended verdict change:\n{}",
        table.join("\n")
    );
}

/// Appends one session's analysis bytes and returns its `z` for the
/// failure table: the length and `to_bits` of the primary level track,
/// a marker byte followed on a dual-mic session by the secondary track,
/// the ASV audio, then a marker byte followed, when the claimed speaker
/// is enrolled, by the bits of the speaker-identity stage's unclamped
/// `z`.
fn encode_analysis(system: &DefenseSystem, session: &SessionData, out: &mut Vec<u8>) -> String {
    let put = |xs: &[f64], out: &mut Vec<u8>| {
        out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
        for x in xs {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    };
    let all = SpeechParts::BOTH_LEVELS.with(SpeechParts::ASV_AUDIO);
    let analysis = SessionAnalysis::new(session, all);
    put(analysis.levels(), out);
    match analysis.secondary_levels() {
        Some(levels) => {
            out.push(1);
            put(levels, out);
        }
        None => out.push(0),
    }
    put(analysis.asv_audio(), out);
    let models = system.models();
    match models.speakers.get(&session.claimed_speaker) {
        Some(model) => {
            let (_, score) = speaker_id::verify(&analysis, &models.engine, model, &system.config);
            out.push(1);
            out.extend_from_slice(&score.z.to_bits().to_le_bytes());
            format!("z={:#018x}", score.z.to_bits())
        }
        None => {
            out.push(0);
            "z=unenrolled".to_string()
        }
    }
}

#[test]
fn speech_pass_and_asv_scores_match_the_pinned_digest() {
    let (system, sessions) = corpus();
    let mut bytes = Vec::new();
    let mut table = Vec::new();
    for (label, session) in &sessions {
        let start = bytes.len();
        let z = encode_analysis(&system, session, &mut bytes);
        table.push(format!(
            "{label} {z} bytes={:#018x}",
            fnv1a_64(&bytes[start..])
        ));
    }
    let digest = fnv1a_64(&bytes);
    assert_eq!(
        digest,
        ANALYSIS_DIGEST,
        "analysis digest moved to {digest:#018x}; re-pin ANALYSIS_DIGEST only for an intended change to the speech pass or the ASV score:\n{}",
        table.join("\n")
    );
}

//! Flip audit of the MFCC front end: does the real-input FFT move any
//! speaker-identity decision?
//!
//! The production front end (`FeatureExtractor::extract_into`, over the
//! packed real-input FFT) differs from the oracle front end
//! (`FeatureExtractor::extract_reference`, over the free complex `fft`) by
//! rounding only. This binary captures a fixed seeded corpus — genuine
//! sessions from a single-mic and a dual-mic phone and every
//! `AttackFamily` — on the served models of two bootstrap seeds, scores
//! each session's ASV audio both ways on the same models with the served
//! `asv_top_c`, and counts the sessions whose Z-normalized score lands on
//! different sides of the speaker's `calibrated_threshold`. It prints the
//! session count, the largest |Δz| and the smallest |z − threshold|, and
//! exits non-zero on any flip.
//!
//! The corpus is captured through `par::map`, one RNG fork per session, so
//! it is the same on any number of CPUs.
//!
//! ```sh
//! cargo run --release -p magshield-bench --bin exp_flip_audit            # 1040 sessions
//! cargo run --release -p magshield-bench --bin exp_flip_audit -- --quick # 100 sessions
//! ```

use magshield_bench::EXPERIMENT_SEED;
use magshield_core::components::speaker_id::asv_audio;
use magshield_core::config::DefenseConfig;
use magshield_core::pipeline::BootstrapConfig;
use magshield_core::robustness::AttackFamily;
use magshield_core::scenario::{bootstrap_with, ScenarioBuilder, UserContext};
use magshield_core::session::SessionData;
use magshield_ml::gmm::{llr_score_prepared, llr_score_quantized, ScoreScratch};
use magshield_sensors::phone::PhoneModel;
use magshield_simkit::par;
use magshield_simkit::rng::SimRng;

/// Bootstrap seeds the audit serves models from.
const SEEDS: [u64; 2] = [EXPERIMENT_SEED, EXPERIMENT_SEED + 1];

/// One corpus entry: a session kind and its index within the kind.
#[derive(Clone, Copy)]
struct Spec {
    kind: Kind,
    index: usize,
}

#[derive(Clone, Copy)]
enum Kind {
    Genuine { dual_mic: bool },
    Attack(AttackFamily),
}

impl Kind {
    fn all() -> Vec<Kind> {
        let mut kinds = vec![
            Kind::Genuine { dual_mic: false },
            Kind::Genuine { dual_mic: true },
        ];
        kinds.extend(AttackFamily::all().map(Kind::Attack));
        kinds
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Genuine { dual_mic: false } => "genuine_single_mic",
            Kind::Genuine { dual_mic: true } => "genuine_dual_mic",
            Kind::Attack(family) => family.name(),
        }
    }
}

/// Captures one session: attacks alternate between the single-mic and
/// the dual-mic phone by index.
fn capture(spec: &Spec, user: &UserContext, dual: &UserContext, rng: &SimRng) -> SessionData {
    let fork = rng.fork_indexed(spec.kind.name(), spec.index as u64);
    match spec.kind {
        Kind::Genuine { dual_mic } => {
            ScenarioBuilder::genuine(if dual_mic { dual } else { user }).capture(&fork)
        }
        Kind::Attack(family) => {
            let u = if spec.index % 2 == 1 { dual } else { user };
            family
                .scenario(u, spec.index, &fork)
                .capture(&fork.fork("capture"))
        }
    }
}

/// Whether the speaker-ID stage accepts `z` against `threshold`: the
/// attack score `speaker_id::verify` computes, below the boundary 1.
fn accepts(z: f64, threshold: f64, cfg: &DefenseConfig) -> bool {
    let attack_score = if z.is_finite() {
        (1.0 - (z - threshold) / cfg.asv_scale).max(0.0)
    } else {
        2.0
    };
    attack_score < 1.0
}

/// What one bootstrap seed's corpus showed.
#[derive(Default)]
struct Audit {
    sessions: usize,
    flips: Vec<String>,
    max_dz: f64,
    min_margin: f64,
}

fn audit_seed(seed: u64, per_kind: usize) -> Audit {
    let rng = SimRng::from_seed(seed).fork("flip-audit");
    let (system, user) = bootstrap_with(&rng, BootstrapConfig::default());
    let mut dual = user.clone();
    dual.phone = PhoneModel::Nexus4;
    let snap = system.models();
    let cfg = snap.config;
    let specs: Vec<Spec> = Kind::all()
        .into_iter()
        .flat_map(|kind| (0..per_kind).map(move |index| Spec { kind, index }))
        .collect();
    let corpus_rng = rng.fork("corpus");
    let sessions = par::map(&specs, |spec| capture(spec, &user, &dual, &corpus_rng));
    let scores = par::map(&sessions, |session| {
        let model = &snap.speakers[&session.claimed_speaker];
        let audio = asv_audio(session);
        let fast = snap
            .engine
            .score_detailed_opts(model, &audio, cfg.asv_top_c, cfg.asv_quantized)
            .z;
        let frames = snap.engine.extractor.extract_reference(&audio);
        let mut scratch = ScoreScratch::default();
        let raw = if cfg.asv_quantized {
            llr_score_quantized(
                model.quantized(),
                snap.engine.quantized_ubm(),
                &frames,
                cfg.asv_top_c,
                &mut scratch,
            )
        } else {
            llr_score_prepared(
                model.prepared(),
                snap.engine.prepared_ubm(),
                &frames,
                cfg.asv_top_c,
                &mut scratch,
            )
        };
        let reference = model.normalize(raw.score);
        (
            fast,
            reference,
            model.calibrated_threshold(cfg.asv_threshold),
        )
    });
    let mut audit = Audit {
        sessions: sessions.len(),
        min_margin: f64::INFINITY,
        ..Audit::default()
    };
    for (spec, &(fast, reference, threshold)) in specs.iter().zip(&scores) {
        let dz = (fast - reference).abs();
        audit.max_dz = audit.max_dz.max(dz);
        audit.min_margin = audit.min_margin.min((reference - threshold).abs());
        if accepts(fast, threshold, &cfg) != accepts(reference, threshold, &cfg) {
            audit.flips.push(format!(
                "seed {seed} {} #{}: z {fast} (reference {reference}), threshold {threshold}",
                spec.kind.name(),
                spec.index
            ));
        }
    }
    audit
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_kind = if quick { 5 } else { 52 };
    let (mut sessions, mut flips, mut max_dz, mut min_margin) =
        (0, Vec::new(), 0.0f64, f64::INFINITY);
    for seed in SEEDS {
        let audit = audit_seed(seed, per_kind);
        println!(
            "seed {seed}: {} sessions, {} flips, max |Δz| {:.3e}, min |z − threshold| {:.3e}",
            audit.sessions,
            audit.flips.len(),
            audit.max_dz,
            audit.min_margin
        );
        sessions += audit.sessions;
        flips.extend(audit.flips);
        max_dz = max_dz.max(audit.max_dz);
        min_margin = min_margin.min(audit.min_margin);
    }
    println!(
        "flip audit: {sessions} sessions, {} flips, max |Δz| {max_dz:.3e}, min |z − threshold| {min_margin:.3e}",
        flips.len()
    );
    if !flips.is_empty() {
        for flip in &flips {
            eprintln!("flip: {flip}");
        }
        std::process::exit(1);
    }
}

//! Micro-benchmark for the telemetry plane's hot path (DESIGN.md §12):
//! what does always-on labeled instrumentation cost a verification?
//!
//! Primitive timings (flat counter inc, interned labeled inc, flat
//! histogram record, and a labeled histogram record carrying an
//! exemplar) are composed into the per-session recording sequence the
//! cascade actually performs — one labeled exemplar record per stage that
//! ran (`pipeline.stage.seconds`), one per session
//! (`pipeline.session.seconds`) and the one flat verdict counter
//! (`pipeline.accepts`) — and compared against the measured end-to-end
//! verify latency. That sequence is the whole of a verification's
//! telemetry: beside it, a run records only its verdict. Absolute ns/op
//! varies across machines, so the CI gate compares only **ratios** under
//! the `"metrics"` key:
//!
//! * `obs_overhead_pct` — per-session telemetry cost as a percentage
//!   of verify latency. The headline number: the telemetry plane must
//!   stay a rounding error next to the DSP/ASV work it observes.
//! * `labeled_inc_vs_flat` — interned labeled increment vs. a plain
//!   atomic increment; bounds the label-lookup tax.
//! * `exemplar_record_vs_flat` — labeled histogram record with exemplar
//!   capture vs. a flat record; bounds the exemplar tax.
//!
//! Output: `results/BENCH_obs.json` (override with `--out`), consumed
//! by `scripts/bench_gate.py` in the CI `bench-gate` job. `--quick`
//! shrinks the system and timing budgets for CI.

use magshield_bench::{print_header, print_row, write_gate_json, Better, EXPERIMENT_SEED};
use magshield_core::pipeline::BootstrapConfig;
use magshield_core::scenario::{bootstrap_with, ScenarioBuilder};
use magshield_obs::labels::Labels;
use magshield_obs::metrics::Registry;
use magshield_simkit::rng::SimRng;
use std::hint::black_box;
use std::time::Instant;

/// Cascade stages (distance, SLD, sound field, loudspeaker, speaker
/// id): the `stage` label values the timings cycle through.
const STAGES: usize = 5;

/// Ops batched per timed closure call so sub-10ns primitives are
/// measured above timer resolution.
const BATCH: usize = 256;

struct Timings {
    flat_inc_ns: f64,
    labeled_inc_ns: f64,
    flat_record_ns: f64,
    exemplar_record_ns: f64,
    verify_ns: f64,
    session_obs_ns: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_obs.json".to_string());

    let rng = SimRng::from_seed(EXPERIMENT_SEED).fork("obs-overhead");
    let budget_s = if quick { 0.05 } else { 0.25 };

    eprintln!("(bootstrapping defense system...)");
    let bootstrap = if quick {
        BootstrapConfig::tiny()
    } else {
        BootstrapConfig::default()
    };
    let (system, user) = bootstrap_with(&rng, bootstrap);
    let session = ScenarioBuilder::genuine(&user).capture(&rng.fork("capture"));

    let registry = Registry::default();
    let flat = registry.counter("bench.flat");
    let labeled_vec = registry.counter_vec("bench.labeled");
    let flat_hist = registry.histogram("bench.flat.seconds");
    let hist_vec = registry.histogram_vec("bench.labeled.seconds");
    // The same label shapes the cascade uses, cycled so the interning
    // cache is exercised across keys, not pinned to one hot entry.
    let stage_labels: Vec<Labels> = [
        "distance",
        "sld",
        "sound_field",
        "loudspeaker",
        "speaker_id",
    ]
    .iter()
    .map(|s| Labels::new().stage(s).policy("full"))
    .collect();

    let flat_inc_ns = time_ns_per_op(budget_s, || {
        for _ in 0..BATCH {
            black_box(&flat).inc();
        }
    });
    let labeled_inc_ns = time_ns_per_op(budget_s, || {
        for i in 0..BATCH {
            labeled_vec.with(black_box(&stage_labels[i % STAGES])).inc();
        }
    });
    let flat_record_ns = time_ns_per_op(budget_s, || {
        for i in 0..BATCH {
            flat_hist.record_secs(black_box(1e-4 * (i + 1) as f64));
        }
    });
    let exemplar_record_ns = time_ns_per_op(budget_s, || {
        for i in 0..BATCH {
            hist_vec
                .with(black_box(&stage_labels[i % STAGES]))
                .record_secs_with_exemplar(black_box(1e-4 * (i + 1) as f64), "speaker-7");
        }
    });

    // End-to-end verify latency, instrumented as shipped.
    let verify_budget = budget_s * 4.0;
    let ran = system.verify(&session).results().count();
    black_box(system.verify(&session));
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_secs_f64() < verify_budget {
        black_box(system.verify(&session));
        iters += 1;
    }
    let verify_ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;

    // The per-session recording sequence (cascade step + finish): each
    // stage that ran lands one labeled exemplar record, the session one
    // more, and the verdict one flat counter.
    let session_obs_ns = (ran + 1) as f64 * exemplar_record_ns + flat_inc_ns;

    let t = Timings {
        flat_inc_ns,
        labeled_inc_ns,
        flat_record_ns,
        exemplar_record_ns,
        verify_ns,
        session_obs_ns,
    };

    print_header(
        &format!("telemetry-plane overhead ({iters} verifies timed)"),
        &["ns/op"],
    );
    print_row("flat inc", &[t.flat_inc_ns]);
    print_row("labeled inc", &[t.labeled_inc_ns]);
    print_row("flat record", &[t.flat_record_ns]);
    print_row("exemplar rec", &[t.exemplar_record_ns]);
    print_row("session obs", &[t.session_obs_ns]);
    print_row("verify", &[t.verify_ns]);
    println!(
        "\nobs overhead: {:.4}% of verify latency",
        100.0 * t.session_obs_ns / t.verify_ns
    );

    write_gate_json(
        &out,
        "obs_overhead",
        quick,
        |w| {
            w.key("info").begin_object().key("stages").u64(ran as u64);
            for (key, value) in [
                ("flat_inc_ns", t.flat_inc_ns),
                ("labeled_inc_ns", t.labeled_inc_ns),
                ("flat_record_ns", t.flat_record_ns),
                ("exemplar_record_ns", t.exemplar_record_ns),
                ("session_obs_ns", t.session_obs_ns),
                ("verify_ns", t.verify_ns),
            ] {
                w.key(key).f64(value);
            }
            w.end_object();
        },
        &[
            (
                "obs_overhead_pct",
                100.0 * t.session_obs_ns / t.verify_ns,
                Better::Lower,
            ),
            (
                "labeled_inc_vs_flat",
                t.labeled_inc_ns / t.flat_inc_ns,
                Better::Lower,
            ),
            (
                "exemplar_record_vs_flat",
                t.exemplar_record_ns / t.flat_record_ns,
                Better::Lower,
            ),
        ],
    );
}

/// Runs `f` (a `BATCH`-op closure) until `budget_s` of wall clock is
/// spent (after warm-up) and returns mean ns per op.
fn time_ns_per_op(budget_s: f64, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_secs_f64() < budget_s {
        f();
        iters += 1;
    }
    start.elapsed().as_secs_f64() * 1e9 / (iters as f64 * BATCH as f64)
}

//! Adversarial robustness matrix: attack family × EMF environment ×
//! execution policy, per-cell FAR/FRR/EER.
//!
//! Every cell runs its corpus through a
//! [`magshield_core::server::VerificationServer`] client — the same wire
//! path production traffic takes: encode, queue, decode, cascade — so a
//! perf or refactor change that moves a verdict anywhere on that path
//! moves a cell and trips the gate. The corpus is deterministic under
//! [`EXPERIMENT_SEED`]: captures are pure functions of the seed, so two
//! runs of the same build produce bit-identical tables.
//!
//! Two output shapes:
//!
//! * full run (default): the committed per-cell table
//!   `results/robustness_matrix.jsonl` (one JSON row per cell) — the
//!   repo's security reference surface;
//! * `--quick`: the CI smoke slice — tiny bootstrap, reduced trial
//!   counts, full family/environment/policy coverage — written as a
//!   single JSON document (default `results/BENCH_robustness.json`,
//!   override with `--out`) consumed by `scripts/security_gate.py`.
//!   The committed baseline is a `--quick` artifact so CI compares
//!   like with like.

use magshield_bench::{
    print_header, print_row, write_gate_json, write_results, Better, ResultRow, EXPERIMENT_SEED,
};
use magshield_core::pipeline::BootstrapConfig;
use magshield_core::robustness::{family_far, run_matrix, MatrixSpec};
use magshield_core::scenario::bootstrap_with;
use magshield_simkit::rng::SimRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_robustness.json".to_string());

    let rng = SimRng::from_seed(EXPERIMENT_SEED);
    let (bootstrap, spec) = if quick {
        (BootstrapConfig::tiny(), MatrixSpec::smoke())
    } else {
        (BootstrapConfig::default(), MatrixSpec::full())
    };
    eprintln!(
        "(bootstrapping {} system; {} cells...)",
        if quick { "tiny" } else { "full" },
        spec.cells()
    );
    let (system, user) = bootstrap_with(&rng, bootstrap);
    let cells = run_matrix(&system, &user, &spec, &rng.fork("robustness"));

    print_header(
        "Robustness matrix (FAR/FRR/EER %, per cell)",
        &["cell", "FAR %", "FRR %", "EER %"],
    );
    for c in &cells {
        print_row(
            &format!("{}/{}/{}", c.family, c.environment, c.policy),
            &[c.far_pct, c.frr_pct, c.eer_pct],
        );
    }
    println!("\nper-family FAR (gated no-rise):");
    for (family, far) in family_far(&cells) {
        println!("  {family:>20}: {far:>6.2} %");
    }

    if quick {
        let fars = family_far(&cells);
        let worst_far = fars.iter().map(|(_, f)| *f).fold(0.0f64, f64::max);
        let mean_eer = if cells.is_empty() {
            0.0
        } else {
            cells.iter().map(|c| c.eer_pct).sum::<f64>() / cells.len() as f64
        };
        write_gate_json(
            &out,
            "robustness",
            quick,
            |w| {
                w.key("seed")
                    .u64(EXPERIMENT_SEED)
                    .key("genuine_per_env")
                    .u64(spec.genuine_per_env as u64)
                    .key("attacks_per_cell")
                    .u64(spec.attacks_per_cell as u64)
                    .key("cells")
                    .begin_array();
                for c in &cells {
                    w.begin_object()
                        .key("family")
                        .str(c.family)
                        .key("environment")
                        .str(c.environment)
                        .key("policy")
                        .str(c.policy)
                        .key("attacks")
                        .u64(c.attacks as u64)
                        .key("genuine")
                        .u64(c.genuine as u64)
                        .key("far_pct")
                        .f64(c.far_pct)
                        .key("frr_pct")
                        .f64(c.frr_pct)
                        .key("eer_pct")
                        .f64(c.eer_pct)
                        .end_object();
                }
                w.end_array().key("families").begin_object();
                for (family, far) in &fars {
                    w.key(family)
                        .begin_object()
                        .key("far_pct")
                        .f64(*far)
                        .end_object();
                }
                w.end_object();
            },
            &[
                ("robustness_worst_family_far_pct", worst_far, Better::Lower),
                ("robustness_mean_eer_pct", mean_eer, Better::Lower),
            ],
        );
    } else {
        let rows: Vec<ResultRow> = cells
            .iter()
            .map(|c| ResultRow {
                experiment: "robustness_matrix".into(),
                condition: format!("{}/{}/{}", c.family, c.environment, c.policy),
                metrics: vec![
                    ("far_pct".into(), c.far_pct),
                    ("frr_pct".into(), c.frr_pct),
                    ("eer_pct".into(), c.eer_pct),
                    ("attacks".into(), c.attacks as f64),
                    ("genuine".into(), c.genuine as f64),
                ],
            })
            .collect();
        write_results("robustness_matrix", &rows);
    }
}

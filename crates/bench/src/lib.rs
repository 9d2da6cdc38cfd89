//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (§VI) — see DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded results.

use magshield_core::pipeline::{BootstrapConfig, DefenseSystem};
use magshield_core::scenario::{bootstrap_with, ScenarioBuilder, UserContext};
use magshield_core::verdict::DefenseVerdict;
use magshield_obs::export::JsonWriter;
use magshield_obs::metrics::HistogramSnapshot;
use magshield_obs::PipelineTrace;
use magshield_simkit::rng::SimRng;
use magshield_voice::attacks::AttackKind;
use magshield_voice::devices::PlaybackDevice;
use magshield_voice::profile::SpeakerProfile;
use std::io::Write;

/// Master seed shared by all experiments so EXPERIMENTS.md is regenerable.
pub const EXPERIMENT_SEED: u64 = 20170605;

/// Builds the standard experiment system (moderate sizing) and its user.
pub fn experiment_system() -> (DefenseSystem, UserContext, SimRng) {
    let rng = SimRng::from_seed(EXPERIMENT_SEED);
    let (system, user) = bootstrap_with(&rng, BootstrapConfig::default());
    (system, user, rng)
}

/// Runs `n` genuine sessions at final distance `d_m`; returns verdicts.
pub fn genuine_verdicts(
    system: &DefenseSystem,
    user: &UserContext,
    d_m: f64,
    n: usize,
    rng: &SimRng,
    config: &magshield_core::config::DefenseConfig,
) -> Vec<DefenseVerdict> {
    (0..n)
        .map(|i| {
            let s = ScenarioBuilder::genuine(user)
                .at_distance(d_m)
                .capture(&rng.fork_indexed("genuine", i as u64));
            system.verify_with_config(&s, config)
        })
        .collect()
}

/// Runs replay attacks at distance `d_m` through each device in
/// `devices`, `per_device` times; returns verdicts.
#[allow(clippy::too_many_arguments)]
pub fn attack_verdicts(
    system: &DefenseSystem,
    user: &UserContext,
    devices: &[PlaybackDevice],
    d_m: f64,
    per_device: usize,
    shielded: bool,
    rng: &SimRng,
    config: &magshield_core::config::DefenseConfig,
) -> Vec<DefenseVerdict> {
    let attacker = SpeakerProfile::sample(901, &rng.fork("gauntlet-attacker"));
    let mut out = Vec::new();
    for (di, dev) in devices.iter().enumerate() {
        for i in 0..per_device {
            let mut b = ScenarioBuilder::machine_attack(
                user,
                AttackKind::Replay,
                dev.clone(),
                attacker.clone(),
            )
            .at_distance(d_m);
            if shielded {
                b = b.with_shielding();
            }
            let s = b.capture(&rng.fork_indexed("attack", (di * 1000 + i) as u64));
            out.push(system.verify_with_config(&s, config));
        }
    }
    out
}

/// FAR/FRR/EER from verdict sets: decisions at the nominal boundary, EER
/// from sweeping the boundary multiplier over the combined scores.
/// (Shared with the robustness matrix — see
/// [`magshield_core::robustness::rates`].)
pub fn rates(genuine: &[DefenseVerdict], attacks: &[DefenseVerdict]) -> (f64, f64, f64) {
    magshield_core::robustness::rates(genuine, attacks)
}

/// One emitted result row (also serialized to JSON for EXPERIMENTS.md).
#[derive(Debug)]
pub struct ResultRow {
    /// Experiment id, e.g. "fig12a".
    pub experiment: String,
    /// Condition label, e.g. "d=6cm".
    pub condition: String,
    /// Metric name → value (percent unless noted).
    pub metrics: Vec<(String, f64)>,
}

/// Writes rows as JSON lines under `results/<experiment>.jsonl`.
pub fn write_results(experiment: &str, rows: &[ResultRow]) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{experiment}.jsonl"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        for r in rows {
            let _ = writeln!(f, "{}", r.to_json_line());
        }
        eprintln!("(wrote {})", path.display());
    }
}

impl ResultRow {
    /// The row as one JSON object:
    /// `{"experiment":...,"condition":...,"metrics":[[k,v],...]}`.
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object()
            .key("experiment")
            .str(&self.experiment)
            .key("condition")
            .str(&self.condition)
            .key("metrics")
            .begin_array();
        for (k, v) in &self.metrics {
            w.begin_array().str(k).f64(*v).end_array();
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// Which way a gated metric improves: its `"direction"` in a gate file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Higher values are better (speedups, fractions kept).
    Higher,
    /// Lower values are better (latencies, error rates, overheads).
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Renders a gate file that `scripts/bench_gate.py` and
/// `scripts/security_gate.py` read: one JSON object holding
/// `"experiment"` and `"quick"`, then the keys `fields` writes (an
/// `"info"` object, run parameters, per-cell arrays), then a
/// `"metrics"` object mapping each gated metric to
/// `{"value", "direction"}`. Floats print at full precision.
pub fn gate_json(
    experiment: &str,
    quick: bool,
    fields: impl FnOnce(&mut JsonWriter),
    metrics: &[(&str, f64, Better)],
) -> String {
    let mut w = JsonWriter::default();
    w.begin_object()
        .key("experiment")
        .str(experiment)
        .key("quick")
        .bool(quick);
    fields(&mut w);
    w.key("metrics").begin_object();
    for (name, value, better) in metrics {
        w.key(name)
            .begin_object()
            .key("value")
            .f64(*value)
            .key("direction")
            .str(better.name())
            .end_object();
    }
    w.end_object().end_object();
    let mut json = w.finish();
    json.push('\n');
    json
}

/// Writes [`gate_json`] to `path`, creating its directory; exits the
/// process with status 1 when the file cannot be written, so a gate
/// never reads a stale file.
pub fn write_gate_json(
    path: &str,
    experiment: &str,
    quick: bool,
    fields: impl FnOnce(&mut JsonWriter),
    metrics: &[(&str, f64, Better)],
) {
    let json = gate_json(experiment, quick, fields, metrics);
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("(wrote {path})"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Percentile cells from a latency histogram, in milliseconds, keyed
/// `<prefix>_p50_ms` … `<prefix>_max_ms` for [`ResultRow::metrics`].
pub fn latency_metrics(prefix: &str, h: &HistogramSnapshot) -> Vec<(String, f64)> {
    [
        ("p50_ms", h.quantile(0.50)),
        ("p95_ms", h.quantile(0.95)),
        ("p99_ms", h.quantile(0.99)),
        ("max_ms", h.max_s()),
    ]
    .into_iter()
    .map(|(k, secs)| (format!("{prefix}_{k}"), secs * 1e3))
    .collect()
}

/// Prints one labelled `n / p50 / p95 / p99 / max` latency line.
pub fn print_latency(label: &str, h: &HistogramSnapshot) {
    println!(
        "{label:>20}: n={:<5} p50={:>8.3} ms  p95={:>8.3} ms  p99={:>8.3} ms  max={:>8.3} ms",
        h.count,
        h.quantile(0.50) * 1e3,
        h.quantile(0.95) * 1e3,
        h.quantile(0.99) * 1e3,
        h.max_s() * 1e3,
    );
}

/// Appends per-session pipeline traces as JSON lines under
/// `results/logs/<experiment>_traces.jsonl`, size-capped: past
/// [`magshield_obs::export::DEFAULT_MAX_JSONL_BYTES`] the file rotates
/// to `.1` and restarts, so repeated experiment runs keep the newest
/// traces without growing the log without bound.
pub fn write_trace_log(experiment: &str, traces: &[PipelineTrace]) {
    let path = std::path::Path::new("results")
        .join("logs")
        .join(format!("{experiment}_traces.jsonl"));
    match PipelineTrace::append_jsonl_rotating(
        &path,
        traces,
        magshield_obs::export::DEFAULT_MAX_JSONL_BYTES,
    ) {
        Ok(()) => eprintln!("(wrote {} traces to {})", traces.len(), path.display()),
        Err(e) => eprintln!("(failed to write {}: {e})", path.display()),
    }
}

/// Prints a fixed-width header.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    let mut line = String::new();
    for c in cols {
        line.push_str(&format!("{c:>14}"));
    }
    println!("{line}");
    println!("{}", "-".repeat(14 * cols.len()));
}

/// Prints a row of f64 cells after a label cell.
pub fn print_row(label: &str, values: &[f64]) {
    let mut line = format!("{label:>14}");
    for v in values {
        line.push_str(&format!("{v:>14.1}"));
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_row_renders_serde_compatible_json() {
        let row = ResultRow {
            experiment: "fig12".into(),
            condition: "d=6cm \"quoted\"".into(),
            metrics: vec![
                ("far_pct".into(), 16.666666666666664),
                ("n".into(), 12.0),
                ("bad".into(), f64::NAN),
            ],
        };
        assert_eq!(
            row.to_json_line(),
            "{\"experiment\":\"fig12\",\"condition\":\"d=6cm \\\"quoted\\\"\",\
             \"metrics\":[[\"far_pct\",16.666666666666664],[\"n\",12.0],[\"bad\",null]]}"
        );
    }

    #[test]
    fn gate_json_puts_fields_between_header_and_metrics() {
        let json = gate_json(
            "kernels",
            true,
            |w| {
                w.key("info")
                    .begin_object()
                    .key("frames")
                    .u64(151)
                    .end_object();
            },
            &[
                ("speedup", 1.5, Better::Higher),
                ("eer_pct", 0.0, Better::Lower),
            ],
        );
        assert_eq!(
            json,
            "{\"experiment\":\"kernels\",\"quick\":true,\"info\":{\"frames\":151},\
             \"metrics\":{\"speedup\":{\"value\":1.5,\"direction\":\"higher\"},\
             \"eer_pct\":{\"value\":0.0,\"direction\":\"lower\"}}}\n"
        );
        let bare = gate_json(
            "throughput",
            false,
            |_| {},
            &[("peak_sessions_per_sec", 310.5, Better::Higher)],
        );
        assert_eq!(
            bare,
            "{\"experiment\":\"throughput\",\"quick\":false,\"metrics\":\
             {\"peak_sessions_per_sec\":{\"value\":310.5,\"direction\":\"higher\"}}}\n"
        );
    }
}

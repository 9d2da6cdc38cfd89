//! Throughput and tail latency of the verification server under offered
//! load.
//!
//! Closed-loop load generation: `L` client threads each drive one shared
//! [`VerificationServer`] with verify round trips (encode → queue →
//! decode → cascade → reply) over a pre-captured session pool (mixed
//! genuine and replay-attack sessions, so short-circuit pruning has real
//! work to do). For each offered load the run reports sessions/sec and
//! client-observed p50/p95/p99 latency, keeping the best of [`SAMPLES`]
//! short measurements so bursty host contention (which can only lower a
//! sample) doesn't masquerade as a code regression.
//!
//! Before measuring anything, the binary asserts the server's wire
//! verdicts are bit-identical to sequential per-session runs under BOTH
//! execution policies — a throughput number for a differently-deciding
//! cascade would be meaningless.
//!
//! After the sweep, the best operating point is re-run with Gaussian
//! pruning disabled (`asv_top_c = 0`) so the artifact records what the
//! top-C fast path is worth end to end. `peak_sessions_per_sec` stays
//! the default-config number — the CI gate keys on it, under the
//! artifact's `"metrics"` object like every other gate file.
//!
//! Output: `results/BENCH_throughput.json` (override with `--out`),
//! consumed by the CI `bench-gate` job. `--quick` shrinks the system and
//! the sweep for CI.

use magshield_bench::{print_header, print_row, write_gate_json, Better, EXPERIMENT_SEED};
use magshield_core::cascade::ExecutionPolicy;
use magshield_core::pipeline::{BootstrapConfig, DefenseSystem};
use magshield_core::scenario::{bootstrap_with, ScenarioBuilder, UserContext};
use magshield_core::server::VerificationServer;
use magshield_core::session::SessionData;
use magshield_core::verdict::DefenseVerdict;
use magshield_obs::metrics::Histogram;
use magshield_simkit::rng::SimRng;
use magshield_voice::attacks::AttackKind;
use magshield_voice::devices::table_iv_catalog;
use magshield_voice::profile::SpeakerProfile;
use std::time::Instant;

/// One measured operating point.
struct LoadPoint {
    offered: usize,
    sessions: usize,
    sessions_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_throughput.json".to_string());

    let rng = SimRng::from_seed(EXPERIMENT_SEED);
    let bootstrap = if quick {
        BootstrapConfig::tiny()
    } else {
        BootstrapConfig::default()
    };
    eprintln!(
        "(bootstrapping {} system...)",
        if quick { "tiny" } else { "full" }
    );
    let (system, user) = bootstrap_with(&rng, bootstrap);

    let pool_size = if quick { 24 } else { 48 };
    let loads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };
    // Size the worker pool to the machine: on a single-core host extra
    // workers only add context-switch overhead between themselves and the
    // submitters, and on big hosts four workers already saturate the
    // five-stage cascade.
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4);
    let pool = session_pool(&user, pool_size, &rng);

    verify_wire_identity(&system, &pool);

    print_header(
        "Verification server throughput (closed-loop)",
        &["sess/s", "p50 ms", "p95 ms", "p99 ms"],
    );
    let mut points = Vec::new();
    for &offered in loads {
        let p = run_load(&system, &pool, workers, offered);
        print_row(
            &format!("L={offered}"),
            &[p.sessions_per_sec, p.p50_ms, p.p95_ms, p.p99_ms],
        );
        points.push(p);
    }

    let peak = points
        .iter()
        .map(|p| p.sessions_per_sec)
        .fold(0.0f64, f64::max);
    println!("\npeak throughput: {peak:.2} sessions/sec");

    // Re-run the best operating point with pruning off: same sessions,
    // same policy, exact speaker-side evaluation. The delta is the
    // end-to-end value of the top-C fast path.
    let best_offered = points
        .iter()
        .max_by(|a, b| a.sessions_per_sec.total_cmp(&b.sessions_per_sec))
        .map_or(1, |p| p.offered);
    let mut exact_system = system.clone();
    exact_system.config.asv_top_c = 0;
    let exact = run_load(&exact_system, &pool, workers, best_offered);
    print_row(
        &format!("L={best_offered} exact"),
        &[
            exact.sessions_per_sec,
            exact.p50_ms,
            exact.p95_ms,
            exact.p99_ms,
        ],
    );
    println!(
        "exact (top_c=0) at L={best_offered}: {:.2} sessions/sec ({:.2}x from pruning)",
        exact.sessions_per_sec,
        peak / exact.sessions_per_sec
    );

    write_gate_json(
        &out,
        "throughput",
        quick,
        |w| {
            w.key("workers")
                .u64(workers as u64)
                .key("samples")
                .u64(SAMPLES as u64)
                .key("policy")
                .str("short_circuit")
                .key("loads")
                .begin_array();
            for p in &points {
                w.begin_object()
                    .key("offered")
                    .u64(p.offered as u64)
                    .key("sessions")
                    .u64(p.sessions as u64)
                    .key("sessions_per_sec")
                    .f64(p.sessions_per_sec)
                    .key("p50_ms")
                    .f64(p.p50_ms)
                    .key("p95_ms")
                    .f64(p.p95_ms)
                    .key("p99_ms")
                    .f64(p.p99_ms)
                    .end_object();
            }
            w.end_array()
                .key("exact")
                .begin_object()
                .key("asv_top_c")
                .u64(0)
                .key("offered")
                .u64(exact.offered as u64)
                .key("sessions_per_sec")
                .f64(exact.sessions_per_sec)
                .key("p95_ms")
                .f64(exact.p95_ms)
                .end_object();
        },
        &[("peak_sessions_per_sec", peak, Better::Higher)],
    );
}

/// A mixed pool: two thirds genuine, one third close-range replay attacks
/// so the short-circuit policy has stages to prune.
fn session_pool(user: &UserContext, n: usize, rng: &SimRng) -> Vec<SessionData> {
    let attacker = SpeakerProfile::sample(901, &rng.fork("tp-attacker"));
    let dev = table_iv_catalog()[0].clone();
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                ScenarioBuilder::machine_attack(
                    user,
                    AttackKind::Replay,
                    dev.clone(),
                    attacker.clone(),
                )
                .at_distance(0.05)
                .capture(&rng.fork_indexed("tp-attack", i as u64))
            } else {
                ScenarioBuilder::genuine(user).capture(&rng.fork_indexed("tp-genuine", i as u64))
            }
        })
        .collect()
}

/// Asserts the server's wire verdicts are exactly the sequential ones,
/// under both execution policies. Aborts the benchmark on any mismatch.
fn verify_wire_identity(system: &DefenseSystem, pool: &[SessionData]) {
    for policy in [
        ExecutionPolicy::FullEvaluation,
        ExecutionPolicy::ShortCircuit,
    ] {
        let sequential: Vec<DefenseVerdict> = pool
            .iter()
            .map(|s| system.verify_with_policy(s, policy))
            .collect();
        let server = VerificationServer::spawn_with_policy(system.with_fresh_obs(), 4, policy);
        let client = server.client();
        let pending: Vec<_> = pool
            .iter()
            .map(|s| client.submit(s).expect("server is running"))
            .collect();
        for (i, (p, expected)) in pending.into_iter().zip(&sequential).enumerate() {
            assert_eq!(
                &p.wait().expect("verdict"),
                expected,
                "session {i}: wire verdict diverged from sequential under {policy:?}"
            );
        }
        server.shutdown();
    }
    eprintln!("(identity check passed: wire == sequential under both policies)");
}

/// Samples per operating point. Host contention can only *subtract*
/// throughput from a sample — the cascade cannot run faster than the code
/// allows — so keeping the best of a few short samples estimates the
/// achievable rate while rejecting bursty interference (the same rationale
/// as criterion's multi-sample estimators). The first sample doubles as
/// cache/branch-predictor warm-up.
const SAMPLES: usize = 3;

/// Runs one closed-loop operating point: `offered` client threads in
/// verify round-trip lockstep against a shared server. Measures
/// [`SAMPLES`] times and returns the best sample.
fn run_load(
    system: &DefenseSystem,
    pool: &[SessionData],
    workers: usize,
    offered: usize,
) -> LoadPoint {
    (0..SAMPLES)
        .map(|_| measure_once(system, pool, workers, offered))
        .max_by(|a, b| a.sessions_per_sec.total_cmp(&b.sessions_per_sec))
        .expect("SAMPLES > 0")
}

/// One timed pass over the pool: spawn a fresh server, drive it, shut it
/// down.
fn measure_once(
    system: &DefenseSystem,
    pool: &[SessionData],
    workers: usize,
    offered: usize,
) -> LoadPoint {
    let server = VerificationServer::spawn_with_policy(
        system.with_fresh_obs(),
        workers,
        ExecutionPolicy::ShortCircuit,
    );
    let latency = Histogram::default();
    let sessions = pool.len();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..offered {
            let client = server.client();
            let latency = latency.clone();
            scope.spawn(move || {
                for s in pool.iter().skip(t).step_by(offered) {
                    let t0 = Instant::now();
                    client
                        .verify(s)
                        .expect("a running server answers every verify");
                    latency.record(t0.elapsed());
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();
    let snap = latency.snapshot();
    LoadPoint {
        offered,
        sessions,
        sessions_per_sec: sessions as f64 / elapsed,
        p50_ms: snap.p50() * 1e3,
        p95_ms: snap.p95() * 1e3,
        p99_ms: snap.p99() * 1e3,
    }
}

//! Streaming continuous verification: first-chunk→verdict latency and
//! the early-reject win on attack sessions.
//!
//! Each pre-captured session is replayed as a chunked stream through
//! [`DefenseSystem::open_stream`] → `ingest` / `finalize` — the code each
//! of the server's stream frames runs — and timed from its first chunk
//! to its terminal verdict. Genuine sessions must ride `Progress` acks
//! to a finalize that is decision-identical to the one-shot cascade;
//! attack sessions should be settled mid-stream by a monotone
//! early-reject bound, well before the utterance ends. The artifact
//! records first-chunk→verdict p50/p99 for both populations, the
//! fraction of attack sessions rejected early, and the wall-clock
//! speedup of the early reject over the full-utterance path (which must
//! wait for capture to finish before the one-shot cascade can run at
//! all).
//!
//! Before measuring anything, the binary asserts every streamed decision
//! matches the one-shot cascade on the same samples under BOTH execution
//! policies — a latency number for a differently-deciding pipeline would
//! be meaningless.
//!
//! Output: `results/BENCH_streaming.json` (override with `--out`) in the
//! generic `"metrics"` shape consumed by the CI `bench-gate` job.
//! `--quick` shrinks the system and the pools for CI.

use magshield_bench::{print_header, print_row, write_gate_json, Better, EXPERIMENT_SEED};
use magshield_core::cascade::ExecutionPolicy;
use magshield_core::pipeline::{BootstrapConfig, DefenseSystem};
use magshield_core::scenario::{bootstrap_with, ScenarioBuilder, UserContext};
use magshield_core::session::SessionData;
use magshield_core::stream::{chunk_session, StreamConfig, StreamEvent, StreamOpenInfo};
use magshield_core::verdict::DefenseVerdict;
use magshield_obs::metrics::Histogram;
use magshield_simkit::rng::SimRng;
use magshield_voice::attacks::AttackKind;
use magshield_voice::devices::table_iv_catalog;
use magshield_voice::profile::SpeakerProfile;
use std::time::{Duration, Instant};

/// ~100 ms of audio per chunk at the simulated 48 kHz capture rate: the
/// cadence a phone client would plausibly ship capture buffers at.
const CHUNK_SAMPLES: usize = 4800;

/// Samples per population. Host contention can only *add* latency to a
/// sample, so keeping the best (lowest-latency) of a few short passes
/// estimates the achievable figure while rejecting bursty interference.
const SAMPLES: usize = 3;

/// One measured population (genuine or attack sessions).
struct Population {
    p50_ms: f64,
    p99_ms: f64,
    early_rejects: usize,
    sessions: usize,
    /// Chunks consumed before the terminal verdict, summed over early
    /// rejects only.
    early_chunks: usize,
    early_total_chunks: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_streaming.json".to_string());

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

    let per_pool = if quick { 8 } else { 16 };
    let genuine: Vec<SessionData> = (0..per_pool)
        .map(|i| ScenarioBuilder::genuine(&user).capture(&rng.fork_indexed("st-genuine", i as u64)))
        .collect();
    let attacks = attack_pool(&user, per_pool, &rng);

    verify_stream_identity(&system, &genuine, &attacks);

    print_header(
        "Streaming verification (chunk = 100 ms audio)",
        &["p50 ms", "p99 ms", "early", "sess"],
    );
    let gen_pop = run_population(&system, &genuine);
    print_row(
        "genuine",
        &[
            gen_pop.p50_ms,
            gen_pop.p99_ms,
            gen_pop.early_rejects as f64,
            gen_pop.sessions as f64,
        ],
    );
    let atk_pop = run_population(&system, &attacks);
    print_row(
        "attack",
        &[
            atk_pop.p50_ms,
            atk_pop.p99_ms,
            atk_pop.early_rejects as f64,
            atk_pop.sessions as f64,
        ],
    );

    // The comparison the streaming path exists to win is wall-clock from
    // utterance start: the one-shot cascade cannot answer before the
    // whole utterance has been captured, while an early reject settles
    // after a fraction of it. Both sides = audio time consumed before the
    // verdict + verification compute; audio time dominates, so the ratio
    // is deterministic across hosts.
    let one_shot_p50 = one_shot_p50_ms(&system, &attacks);
    let early_fraction = atk_pop.early_rejects as f64 / atk_pop.sessions as f64;
    let chunk_ms = CHUNK_SAMPLES as f64 / 48.0; // 48 kHz capture
    let full_utterance_ms = atk_pop.early_total_chunks as f64 * chunk_ms + one_shot_p50;
    let streamed_ms = atk_pop.early_chunks as f64 * chunk_ms + atk_pop.p50_ms;
    let speedup = if atk_pop.early_rejects > 0 {
        full_utterance_ms / streamed_ms
    } else {
        1.0
    };
    println!(
        "\nattack early-reject fraction: {early_fraction:.2} \
         (median stream position {:.2})",
        atk_pop.early_chunks as f64 / atk_pop.early_total_chunks.max(1) as f64
    );
    println!(
        "attack wall-clock from utterance start: streamed {streamed_ms:.0} ms vs \
         full-utterance {full_utterance_ms:.0} ms ({speedup:.2}x)"
    );

    write_gate_json(
        &out,
        "streaming",
        quick,
        |w| {
            w.key("chunk_samples")
                .u64(CHUNK_SAMPLES as u64)
                .key("samples")
                .u64(SAMPLES as u64)
                .key("policy")
                .str("short_circuit")
                .key("genuine_sessions")
                .u64(gen_pop.sessions as u64)
                .key("attack_sessions")
                .u64(atk_pop.sessions as u64)
                .key("attack_one_shot_p50_ms")
                .f64(one_shot_p50);
        },
        &[
            (
                "stream_genuine_first_verdict_p50_ms",
                gen_pop.p50_ms,
                Better::Lower,
            ),
            (
                "stream_genuine_first_verdict_p99_ms",
                gen_pop.p99_ms,
                Better::Lower,
            ),
            (
                "stream_attack_first_verdict_p50_ms",
                atk_pop.p50_ms,
                Better::Lower,
            ),
            (
                "stream_attack_first_verdict_p99_ms",
                atk_pop.p99_ms,
                Better::Lower,
            ),
            (
                "stream_attack_early_reject_fraction",
                early_fraction,
                Better::Higher,
            ),
            (
                "stream_attack_early_reject_speedup",
                speedup,
                Better::Higher,
            ),
        ],
    );
}

/// Close-range replay attacks — the population the loudspeaker stage's
/// monotone bounds should settle mid-stream.
fn attack_pool(user: &UserContext, n: usize, rng: &SimRng) -> Vec<SessionData> {
    let attacker = SpeakerProfile::sample(901, &rng.fork("st-attacker"));
    let dev = table_iv_catalog()[0].clone();
    (0..n)
        .map(|i| {
            ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev.clone(), attacker.clone())
                .at_distance(0.05)
                .capture(&rng.fork_indexed("st-attack", i as u64))
        })
        .collect()
}

/// Drives one session through a stream. Returns the terminal verdict,
/// whether it settled mid-stream, how many chunks it consumed, the total
/// chunk count, and first-chunk→verdict time.
fn stream_one(
    system: &DefenseSystem,
    session: &SessionData,
    policy: ExecutionPolicy,
) -> (DefenseVerdict, bool, usize, usize, Duration) {
    let chunks = chunk_session(session, CHUNK_SAMPLES);
    let total = chunks.len();
    let mut stream = system.open_stream(
        &StreamOpenInfo::for_session(session),
        StreamConfig {
            policy,
            ..StreamConfig::default()
        },
    );
    let t0 = Instant::now();
    for (i, chunk) in chunks.iter().enumerate() {
        match stream
            .ingest(chunk, &system.config, system.obs())
            .expect("stream is open")
        {
            StreamEvent::Progress(_) => {}
            StreamEvent::EarlyReject(v) | StreamEvent::ReverifyReject(v) => {
                return (v, true, i + 1, total, t0.elapsed());
            }
        }
    }
    let verdict = stream
        .finalize(&system.config, system.obs())
        .expect("stream is open");
    (verdict, false, total, total, t0.elapsed())
}

/// Asserts the streamed decision matches the one-shot cascade for every
/// pooled session under both execution policies. Aborts the benchmark on
/// any mismatch.
fn verify_stream_identity(
    system: &DefenseSystem,
    genuine: &[SessionData],
    attacks: &[SessionData],
) {
    for policy in [
        ExecutionPolicy::FullEvaluation,
        ExecutionPolicy::ShortCircuit,
    ] {
        for (i, session) in genuine.iter().chain(attacks).enumerate() {
            let one_shot = system.verify_with_policy(session, policy);
            let (streamed, early, ..) = stream_one(system, session, policy);
            if early {
                assert!(
                    !one_shot.accepted(),
                    "session {i}: early reject on a one-shot-accepted session under {policy:?}"
                );
                assert!(!streamed.accepted());
            } else {
                assert_eq!(
                    streamed.decision, one_shot.decision,
                    "session {i}: streamed decision diverged from one-shot under {policy:?}"
                );
            }
        }
    }
    eprintln!("(identity check passed: streamed == one-shot under both policies)");
}

/// Measures one population [`SAMPLES`] times and keeps the
/// lowest-latency sample (the early-reject counts are deterministic
/// across samples — only the clock varies).
fn run_population(system: &DefenseSystem, pool: &[SessionData]) -> Population {
    (0..SAMPLES)
        .map(|_| measure_population(system, pool))
        .min_by(|a, b| a.p50_ms.total_cmp(&b.p50_ms))
        .expect("SAMPLES > 0")
}

fn measure_population(system: &DefenseSystem, pool: &[SessionData]) -> Population {
    let latency = Histogram::default();
    let mut early_rejects = 0;
    let mut early_chunks = 0;
    let mut early_total_chunks = 0;
    for session in pool {
        let (_verdict, early, consumed, total, elapsed) =
            stream_one(system, session, ExecutionPolicy::ShortCircuit);
        latency.record(elapsed);
        if early {
            early_rejects += 1;
            early_chunks += consumed;
            early_total_chunks += total;
        }
    }
    let snap = latency.snapshot();
    Population {
        p50_ms: snap.p50() * 1e3,
        p99_ms: snap.p99() * 1e3,
        early_rejects,
        sessions: pool.len(),
        early_chunks,
        early_total_chunks,
    }
}

/// Best-of-[`SAMPLES`] p50 of the full one-shot cascade over the pool.
fn one_shot_p50_ms(system: &DefenseSystem, pool: &[SessionData]) -> f64 {
    (0..SAMPLES)
        .map(|_| {
            let latency = Histogram::default();
            for session in pool {
                let t0 = Instant::now();
                let _ = system.verify_with_policy(session, ExecutionPolicy::ShortCircuit);
                latency.record(t0.elapsed());
            }
            latency.snapshot().p50() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

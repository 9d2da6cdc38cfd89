//! Voice-unlock service: the client/server deployment of §V.
//!
//! Spawns the verification server with a worker pool, then drives it from
//! several concurrent "phone" clients over the binary wire protocol —
//! genuine unlocks, a replay attack, and a corrupted frame.
//!
//! ```sh
//! cargo run --release --example voice_unlock_server
//! ```

use magshield::core::scenario::{self, ScenarioBuilder};
use magshield::core::server::VerificationServer;
use magshield::core::trainer::{BootstrapConfig, Trainer};
use magshield::simkit::rng::SimRng;
use magshield::voice::attacks::AttackKind;
use magshield::voice::devices::table_iv_catalog;
use magshield::voice::profile::SpeakerProfile;
use magshield::voice::synth::{FormantSynthesizer, SessionEffects};
use std::time::Instant;

fn main() {
    let rng = SimRng::from_seed(5005);
    println!("training the defense system...");
    let (system, user) = scenario::bootstrap_system(&rng);

    let workers = 4;
    println!("spawning verification server with {workers} workers...");
    let server = VerificationServer::spawn(system, workers);

    // Three concurrent genuine unlock attempts.
    let started = Instant::now();
    let mut handles = Vec::new();
    for i in 0..3u64 {
        let client = server.client();
        let session = ScenarioBuilder::genuine(&user).capture(&rng.fork_indexed("unlock", i));
        handles.push(std::thread::spawn(move || {
            let t0 = Instant::now();
            let verdict = client.verify(&session).expect("server reachable");
            (verdict.accepted(), t0.elapsed())
        }));
    }
    for (i, h) in handles.into_iter().enumerate() {
        let (accepted, dt) = h.join().unwrap();
        println!(
            "  unlock #{i}: {} in {:.1} ms",
            if accepted { "ACCEPTED" } else { "REJECTED" },
            dt.as_secs_f64() * 1000.0
        );
    }
    println!(
        "  3 concurrent unlocks done in {:.1} ms wall",
        started.elapsed().as_secs_f64() * 1000.0
    );

    // A morning rush of unlock attempts: one client submits them all
    // before waiting on any, so the requests pipeline across the pool.
    let rush: Vec<_> = (0..8u64)
        .map(|i| ScenarioBuilder::genuine(&user).capture(&rng.fork_indexed("rush", i)))
        .collect();
    let t0 = Instant::now();
    let client = server.client();
    let pending: Vec<_> = rush
        .iter()
        .map(|s| client.submit(s).expect("server reachable"))
        .collect();
    let accepted = pending
        .into_iter()
        .map(|p| p.wait().expect("server reachable"))
        .filter(|v| v.accepted())
        .count();
    println!(
        "  rush of {}: {accepted} accepted in {:.1} ms wall",
        rush.len(),
        t0.elapsed().as_secs_f64() * 1000.0
    );

    // A replay attack arrives at the same service.
    let attacker = SpeakerProfile::sample(13, &rng.fork("attacker"));
    let attack = ScenarioBuilder::machine_attack(
        &user,
        AttackKind::Replay,
        table_iv_catalog()[4].clone(), // Bose SoundLink Mini
        attacker,
    )
    .at_distance(0.05)
    .capture(&rng.fork("attack"));
    let verdict = server.client().verify(&attack).expect("server reachable");
    println!(
        "  replay attack via Bose SoundLink Mini: {}",
        if verdict.accepted() {
            "ACCEPTED (!)"
        } else {
            "REJECTED"
        }
    );

    // Model lifecycle over the wire (protocol v4): a second family
    // member enrolls against the running server — no restart — and a
    // freshly trained bundle hot-swaps in while the pool keeps serving.
    let newcomer = SpeakerProfile::sample(2002, &rng.fork("newcomer"));
    let synth = FormantSynthesizer::default();
    let utterances: Vec<Vec<f64>> = (0..2u64)
        .map(|k| {
            synth.render_digits(
                &newcomer,
                "582931",
                SessionEffects::neutral(),
                &rng.fork_indexed("enroll", k),
            )
        })
        .collect();
    let generation = server
        .client()
        .enroll(2002, &utterances)
        .expect("server reachable");
    println!("  enrolled speaker 2002 online → registry generation {generation}");

    let retrained = Trainer::new(BootstrapConfig::default())
        .with_notes("nightly retrain")
        .train(&user, &rng.fork("retrain"));
    let generation = server
        .client()
        .swap_bundle(&retrained)
        .expect("server reachable");
    let verdict = server
        .client()
        .verify(&ScenarioBuilder::genuine(&user).capture(&rng.fork("post-swap")))
        .expect("server reachable");
    println!(
        "  hot-swapped retrained bundle → generation {generation}; next unlock {} (served by generation {})",
        if verdict.accepted() { "ACCEPTED" } else { "REJECTED" },
        verdict.generation.unwrap_or(0),
    );
    // A corrupted frame exercises the protocol error path.
    let raw_reply = server
        .client()
        .send_raw(vec![0xDE, 0xAD, 0xBE, 0xEF])
        .expect("server reachable");
    println!("  corrupted frame → {} byte error reply", raw_reply.len());

    // Server-side observability over the wire: a metrics scrape returns
    // queue/compute latency histograms and per-worker counters.
    let (snap, _) = server.client().metrics().expect("server reachable");
    let per_worker: Vec<u64> = (0..workers)
        .map(|i| snap.counters[&format!("server.worker.{i}.processed")])
        .collect();
    let compute = &snap.histograms["server.compute.seconds"];
    let queue_wait = &snap.histograms["server.queue.wait.seconds"];
    println!(
        "\nserver stats: {} verified, {} protocol errors, queue depth {}",
        per_worker.iter().sum::<u64>(),
        snap.counters["server.protocol.errors"],
        snap.gauges["server.queue.depth"]
    );
    println!(
        "  compute latency:  p50={:.1} ms  p95={:.1} ms  p99={:.1} ms  max={:.1} ms",
        compute.quantile(0.50) * 1e3,
        compute.quantile(0.95) * 1e3,
        compute.quantile(0.99) * 1e3,
        compute.max_s() * 1e3,
    );
    println!(
        "  queue wait:       p50={:.2} ms  p99={:.2} ms",
        queue_wait.quantile(0.50) * 1e3,
        queue_wait.quantile(0.99) * 1e3,
    );
    println!("  per-worker processed: {per_worker:?}");
    server.shutdown();
}

//! End-to-end telemetry-plane tests (protocol v5, DESIGN.md §12): a
//! shed storm through the [`BatchEngine`] must surface as a degraded
//! SLO health verdict *over the wire*, labeled metrics and exemplars
//! must survive the scrape, and a panicking worker pool must never
//! report `Healthy`.

use magshield::core::batch::{AdmissionPolicy, BatchConfig, BatchEngine, ShedReason};
use magshield::core::cascade::ExecutionPolicy;
use magshield::core::pipeline::{BootstrapConfig, DefenseSystem};
use magshield::core::scenario::{bootstrap_with, ScenarioBuilder, UserContext};
use magshield::core::server::{ServerConfig, VerificationServer, PANIC_FRAME};
use magshield::core::session::SessionData;
use magshield::obs::slo::HealthState;
use magshield::simkit::rng::SimRng;
use std::sync::OnceLock;

fn fixture() -> &'static (DefenseSystem, UserContext) {
    static F: OnceLock<(DefenseSystem, UserContext)> = OnceLock::new();
    F.get_or_init(|| bootstrap_with(&SimRng::from_seed(6001), BootstrapConfig::tiny()))
}

fn session(seed: u64) -> SessionData {
    let (_, user) = fixture();
    ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(seed))
}

/// The acceptance scenario: flood a paused batch engine until admission
/// sheds, then watch the server's SLO engine call it over the wire.
#[test]
fn shed_storm_degrades_health_over_the_wire() {
    let (system, _) = fixture();
    // One system, one registry: the engine sheds into the same metrics
    // the server's health endpoint evaluates.
    let system = system.with_fresh_obs();
    let engine = BatchEngine::spawn_paused(
        system.clone(),
        BatchConfig {
            workers: 1,
            queue_capacity: 2, // tiny on purpose: the storm must shed
            policy: ExecutionPolicy::ShortCircuit,
            admission: AdmissionPolicy::Shed,
        },
    );
    let srv = VerificationServer::spawn_with_config(
        system,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let client = srv.client();

    // Before the storm: healthy.
    assert_eq!(client.health().expect("health").state, HealthState::Healthy);

    // The storm: with no workers draining the 2-slot queue, every
    // submission past the second sheds with `QueueFull`.
    let s = session(42);
    let mut sheds = 0u64;
    for _ in 0..32 {
        if let Err(reason) = engine.submit(s.clone()) {
            assert_eq!(reason, ShedReason::QueueFull);
            sheds += 1;
        }
    }
    assert!(
        sheds >= 30,
        "paused engine must shed the flood, got {sheds}"
    );

    // Over the wire: the shed-ratio guard (sheds vs verdicts served)
    // trips past Degraded — here everything shed, so Unhealthy.
    let report = client.health().expect("health");
    assert!(
        report.state >= HealthState::Degraded,
        "shed storm must degrade health, got {report:?}"
    );
    assert!(
        report.notes.iter().any(|n| n.contains("shed")),
        "the verdict must say why: {report:?}"
    );

    // The labeled evidence is scrapeable too.
    let (snap, exposition) = client.metrics().expect("metrics");
    assert_eq!(
        snap.counter_family_total("batch.shed"),
        sheds,
        "the shed family must sum to the storm"
    );
    assert!(
        snap.counters
            .keys()
            .any(|k| k.contains("shed_reason=\"queue_full\"")),
        "shed reason label must survive the wire: {:?}",
        snap.counters.keys().collect::<Vec<_>>()
    );
    assert!(exposition.contains("shed_reason=\"queue_full\""));

    engine.shutdown();
    srv.shutdown();
}

/// Satellite: a panicking worker pool must never scrape `Healthy`
/// (`server.worker.panics` feeds the health guards).
#[test]
fn worker_panic_degrades_health_over_the_wire() {
    let (system, _) = fixture();
    let srv = VerificationServer::spawn(system.with_fresh_obs(), 1);
    let client = srv.client();
    assert_eq!(client.health().expect("health").state, HealthState::Healthy);

    // Inject a worker panic; the pool survives and answers the scrape.
    let _ = client.send_raw(PANIC_FRAME.to_vec()).expect("error reply");
    let report = client.health().expect("health after panic");
    assert!(
        report.state >= HealthState::Degraded,
        "a worker panic must not scrape Healthy: {report:?}"
    );
    assert!(
        report.notes.iter().any(|n| n.contains("panic")),
        "the verdict must name the panic: {report:?}"
    );
    srv.shutdown();
}

/// Labeled stage metrics and their exemplars survive the wire scrape,
/// and the exemplar trace id matches the session's trace record.
#[test]
fn stage_exemplars_link_scrape_to_traces() {
    let (system, user) = fixture();
    let system = system.with_fresh_obs();
    let srv = VerificationServer::spawn(system, 1);
    let client = srv.client();
    let s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(77));
    let claimed = s.claimed_speaker;
    client.verify(&s).expect("verdict");

    let (snap, _) = client.metrics().expect("metrics");
    let (key, hist) = snap
        .histograms
        .iter()
        .find(|(k, _)| k.starts_with("pipeline.stage.seconds{"))
        .expect("labeled stage histogram on the wire");
    assert!(key.contains("stage=\""), "stage label present: {key}");
    assert!(
        key.contains("policy=\"full\""),
        "policy label present: {key}"
    );
    assert!(
        hist.exemplars
            .iter()
            .any(|e| e.trace_id == format!("speaker-{claimed}")),
        "exemplar must carry the session's trace id: {hist:?}"
    );
    srv.shutdown();
}

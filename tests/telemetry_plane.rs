//! End-to-end telemetry-plane tests (protocol v5, DESIGN.md §12):
//! labeled metrics and exemplars must survive the scrape, and a
//! panicking worker pool must never report `Healthy` over the wire.

use magshield::core::pipeline::{BootstrapConfig, DefenseSystem};
use magshield::core::scenario::{bootstrap_with, ScenarioBuilder, UserContext};
use magshield::core::server::{VerificationServer, PANIC_FRAME};
use magshield::obs::slo::HealthState;
use magshield::simkit::rng::SimRng;
use std::sync::OnceLock;

fn fixture() -> &'static (DefenseSystem, UserContext) {
    static F: OnceLock<(DefenseSystem, UserContext)> = OnceLock::new();
    F.get_or_init(|| bootstrap_with(&SimRng::from_seed(6001), BootstrapConfig::tiny()))
}

/// A panicking worker pool must never scrape `Healthy`
/// (`server.worker.panics` feeds the health guard).
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

//! Batch-engine integration tests: admission control and graceful
//! shutdown under load. The contract under test: every submitted session
//! resolves to exactly one outcome — a verdict for admitted work, a
//! distinct shed for refused work — never a silent drop.

use magshield::core::batch::{AdmissionPolicy, BatchConfig, BatchEngine, BatchOutcome, ShedReason};
use magshield::core::cascade::ExecutionPolicy;
use magshield::core::pipeline::{BootstrapConfig, DefenseSystem};
use magshield::core::scenario::{bootstrap_with, ScenarioBuilder, UserContext};
use magshield::core::session::SessionData;
use magshield::obs::labels::Labels;
use magshield::simkit::rng::SimRng;
use std::sync::OnceLock;

fn fixture() -> &'static (DefenseSystem, UserContext) {
    static F: OnceLock<(DefenseSystem, UserContext)> = OnceLock::new();
    F.get_or_init(|| bootstrap_with(&SimRng::from_seed(4001), BootstrapConfig::tiny()))
}

fn session(seed: u64) -> SessionData {
    let (_, user) = fixture();
    ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(seed))
}

#[test]
fn graceful_shutdown_under_load_never_drops_a_session() {
    let (system, _) = fixture();
    let engine = BatchEngine::spawn(
        system.with_fresh_obs(),
        BatchConfig {
            workers: 2,
            queue_capacity: 8, // small on purpose: rapid submits may shed
            policy: ExecutionPolicy::ShortCircuit,
            admission: AdmissionPolicy::Shed,
        },
    );
    // Pre-capture so the submit loop outpaces the workers.
    let sessions: Vec<SessionData> = (0..40).map(|i| session(100 + i)).collect();
    let submissions: Vec<_> = sessions.into_iter().map(|s| engine.submit(s)).collect();
    // Trigger shutdown mid-drain: the workers are still chewing through
    // the queue at this point.
    engine.initiate_shutdown();
    // Late arrivals see a distinct, immediate shed — not silence.
    assert_eq!(
        engine.submit(session(999)).err(),
        Some(ShedReason::ShuttingDown)
    );
    let mut verdicts = 0u64;
    let mut shed_full = 0u64;
    for sub in submissions {
        match sub {
            // Graceful: every admitted session still gets its verdict,
            // even though shutdown started while it sat in the queue.
            Ok(ticket) => match ticket.wait() {
                BatchOutcome::Verdict(_) => verdicts += 1,
                BatchOutcome::Shed(r) => panic!("admitted session shed with {r}"),
            },
            Err(r) => {
                assert_eq!(r, ShedReason::QueueFull, "only queue-full sheds expected");
                shed_full += 1;
            }
        }
    }
    assert_eq!(verdicts + shed_full, 40, "every session accounted for");
    assert!(verdicts > 0, "the admitted work was drained, not discarded");
    let registry = engine.metrics().clone();
    engine.shutdown();
    let policy = Labels::new().policy(ExecutionPolicy::ShortCircuit.name());
    let shed = |r: ShedReason| {
        registry
            .counter_with("batch.shed", &policy.clone().shed_reason(r.name()))
            .get()
    };
    assert_eq!(
        registry.counter_with("batch.verdicts", &policy).get(),
        verdicts
    );
    assert_eq!(shed(ShedReason::QueueFull), shed_full);
    // The post-shutdown submission.
    assert_eq!(shed(ShedReason::ShuttingDown), 1);
    // Each event counted once: the families hold nothing else.
    let snap = registry.snapshot();
    assert_eq!(snap.counter_family_total("batch.verdicts"), verdicts);
    assert_eq!(snap.counter_family_total("batch.shed"), shed_full + 1);
    assert_eq!(
        registry.gauge("batch.queue.depth").get(),
        0,
        "no leaked slots"
    );
    assert_eq!(
        registry.gauge("batch.inflight").get(),
        0,
        "no leaked claims"
    );
}

#[test]
fn backpressure_shutdown_drains_every_admitted_session() {
    let (system, _) = fixture();
    let engine = BatchEngine::spawn(
        system.with_fresh_obs(),
        BatchConfig {
            workers: 2,
            queue_capacity: 4,
            policy: ExecutionPolicy::FullEvaluation,
            admission: AdmissionPolicy::Backpressure,
        },
    );
    // Backpressure admission never refuses: all 12 are admitted (some
    // submits block until the workers free queue slots).
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            engine
                .submit(session(200 + i))
                .expect("backpressure admits")
        })
        .collect();
    engine.initiate_shutdown();
    for t in tickets {
        assert!(
            matches!(t.wait(), BatchOutcome::Verdict(_)),
            "admitted sessions drain to verdicts through shutdown"
        );
    }
    engine.shutdown();
}

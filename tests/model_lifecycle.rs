//! Model-lifecycle integration tests for the training/serving split:
//! a trained [`ModelBundle`] round-trips through its binary codec into a
//! serving [`DefenseSystem`] with bit-identical verdicts, online
//! enrollment lands against a running server without a restart, and
//! concurrent hot-swaps under server load never yield a verdict that
//! mixes model generations.

use magshield::core::artifact::{BundleMeta, ModelBundle};
use magshield::core::cascade::ExecutionPolicy;
use magshield::core::pipeline::{BootstrapConfig, DefenseSystem};
use magshield::core::registry::ModelRegistry;
use magshield::core::scenario::{bootstrap_with, ScenarioBuilder, UserContext};
use magshield::core::server::VerificationServer;
use magshield::core::session::SessionData;
use magshield::core::trainer::Trainer;
use magshield::core::verdict::StageOutcome;
use magshield::ml::codec::BinaryCodec;
use magshield::simkit::rng::SimRng;
use magshield::voice::attacks::AttackKind;
use magshield::voice::devices::table_iv_catalog;
use magshield::voice::profile::SpeakerProfile;
use magshield::voice::synth::{FormantSynthesizer, SessionEffects};
use std::collections::BTreeSet;
use std::sync::OnceLock;
use std::time::Duration;

fn fixture() -> &'static (DefenseSystem, UserContext) {
    static F: OnceLock<(DefenseSystem, UserContext)> = OnceLock::new();
    F.get_or_init(|| bootstrap_with(&SimRng::from_seed(5150), BootstrapConfig::tiny()))
}

fn meta(notes: &str) -> BundleMeta {
    BundleMeta {
        producer: "model-lifecycle-tests".to_string(),
        ubm_speakers: 3,
        ubm_components: 8,
        em_iters: 4,
        use_isv: false,
        notes: notes.to_string(),
    }
}

/// An isolated system serving the shared fixture's models from a fresh
/// registry, so enroll/swap cannot leak into other tests' fixture.
fn isolated_system() -> DefenseSystem {
    let bundle = ModelBundle::from_snapshot(meta("isolated"), &fixture().0.models());
    DefenseSystem::from_bundle(bundle).expect("fixture models are valid")
}

/// The headline acceptance criterion of the training/serving split:
/// `Trainer::train → to_bytes → from_bytes → DefenseSystem::from_bundle`
/// serves verdicts bit-identical to the legacy bootstrap path on the
/// same seeds — serialization is invisible to the cascade.
#[test]
fn serialized_bundle_serves_bit_identical_verdicts() {
    let rng = SimRng::from_seed(2024);
    let (old, user) = bootstrap_with(&rng, BootstrapConfig::tiny());
    // The trainer consumes the exact RNG stream `bootstrap_with` handed
    // to the legacy path, so the two systems share their models.
    let bundle = Trainer::new(BootstrapConfig::tiny())
        .train(&user, &SimRng::from_seed(2024).fork("bootstrap"));
    let bytes = bundle.to_bytes();
    let revived = DefenseSystem::from_bundle(ModelBundle::from_bytes(&bytes).expect("decodes"))
        .expect("validates");

    let attacker = SpeakerProfile::sample(404, &SimRng::from_seed(9));
    let mut sessions: Vec<SessionData> = (0..3u64)
        .map(|i| ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(8100 + i)))
        .collect();
    sessions.push(
        ScenarioBuilder::machine_attack(
            &user,
            AttackKind::Replay,
            table_iv_catalog()[0].clone(),
            attacker,
        )
        .at_distance(0.05)
        .capture(&SimRng::from_seed(8200)),
    );
    for (i, s) in sessions.iter().enumerate() {
        let a = old.verify(s);
        let b = revived.verify(s);
        assert_eq!(a, b, "session {i}: serialized system diverged");
        for (x, y) in a.stages.iter().zip(&b.stages) {
            if let (StageOutcome::Ran(rx), StageOutcome::Ran(ry)) = (x, y) {
                assert_eq!(
                    rx.attack_score.to_bits(),
                    ry.attack_score.to_bits(),
                    "session {i}: {:?} score drifted across serialization",
                    rx.component
                );
            }
        }
    }
}

/// Online enrollment against a live server: a speaker unknown at spawn
/// time enrolls over the wire, the registry generation advances, and
/// subsequent verdicts are stamped with the new generation — no restart.
#[test]
fn online_enrollment_lands_without_restart() {
    let server = VerificationServer::spawn(isolated_system(), 2);
    let client = server.client();

    let newcomer = SpeakerProfile::sample(7070, &SimRng::from_seed(600));
    let synth = FormantSynthesizer::default();
    let utterances: Vec<Vec<f64>> = (0..2)
        .map(|k| {
            synth.render_digits(
                &newcomer,
                "582931",
                SessionEffects::neutral(),
                &SimRng::from_seed(601 + k),
            )
        })
        .collect();
    let generation = client
        .enroll(7070, &utterances)
        .expect("enrollment over the wire");
    assert_eq!(generation, ModelRegistry::FIRST_GENERATION + 1);

    let (_, user) = fixture();
    let verdict = client
        .verify(&ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(610)))
        .expect("verdict");
    assert_eq!(
        verdict.generation,
        Some(generation),
        "post-enrollment verdicts serve the new generation"
    );
    server.shutdown();
}

/// Hot-swap under load: a server verifies a steady stream of pipelined
/// requests while a background thread swaps whole bundle generations
/// into the registry the server shares. Every verdict must be
/// attributable to exactly one generation (its stamp), every request
/// must be answered, and the registry must land on the final
/// generation.
#[test]
fn hot_swap_under_load_never_mixes_generations() {
    const SWAPS: u64 = 12;
    let system = isolated_system();
    let control = system.clone(); // shares the registry with the server
    let server = VerificationServer::spawn_with_policy(system, 2, ExecutionPolicy::ShortCircuit);
    let client = server.client();
    let (_, user) = fixture();
    let sessions: Vec<SessionData> = (0..48u64)
        .map(|i| ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(8300 + i)))
        .collect();

    let swapper = std::thread::spawn(move || {
        for k in 0..SWAPS {
            // Each swap exports the current serving state as the next
            // generation — no retraining on the swap path.
            let bundle = ModelBundle::from_snapshot(meta(&format!("swap {k}")), &control.models());
            control.try_swap_bundle(bundle).expect("valid bundle");
            std::thread::sleep(Duration::from_millis(2));
        }
        control.generation()
    });

    let pending: Vec<_> = sessions
        .iter()
        .map(|s| client.submit(s).expect("server is running"))
        .collect();
    let mut seen = BTreeSet::new();
    for (i, p) in pending.into_iter().enumerate() {
        let v = p
            .wait()
            .unwrap_or_else(|e| panic!("session {i} not answered: {e}"));
        let g = v
            .generation
            .expect("every served verdict carries its generation");
        assert!(
            (ModelRegistry::FIRST_GENERATION..=ModelRegistry::FIRST_GENERATION + SWAPS)
                .contains(&g),
            "session {i}: generation {g} was never published"
        );
        seen.insert(g);
    }
    let final_generation = swapper.join().expect("swapper lives");
    assert_eq!(final_generation, ModelRegistry::FIRST_GENERATION + SWAPS);
    assert!(!seen.is_empty(), "throughput stalled: no verdicts at all");
    server.shutdown();
}

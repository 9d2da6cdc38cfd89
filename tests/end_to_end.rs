//! End-to-end integration tests spanning every workspace crate: bootstrap
//! a trained system, then drive genuine sessions and the full attack
//! taxonomy through the cascade and the client/server runtime.

use magshield::core::cascade::ExecutionPolicy;
use magshield::core::pipeline::{BootstrapConfig, DefenseSystem};
use magshield::core::scenario::{bootstrap_with, ScenarioBuilder, SourceKind, UserContext};
use magshield::core::server::VerificationServer;
use magshield::core::verdict::Component;
use magshield::obs::labels::Labels;
use magshield::physics::acoustics::tube::SoundTube;
use magshield::physics::magnetics::interference::EmfEnvironment;
use magshield::simkit::rng::SimRng;
use magshield::simkit::vec3::Vec3;
use magshield::voice::attacks::AttackKind;
use magshield::voice::devices::table_iv_catalog;
use magshield::voice::profile::SpeakerProfile;
use std::sync::OnceLock;

fn fixture() -> &'static (DefenseSystem, UserContext) {
    static F: OnceLock<(DefenseSystem, UserContext)> = OnceLock::new();
    F.get_or_init(|| bootstrap_with(&SimRng::from_seed(2017), BootstrapConfig::tiny()))
}

fn attacker() -> SpeakerProfile {
    SpeakerProfile::sample(404, &SimRng::from_seed(9))
}

#[test]
fn genuine_sessions_accepted() {
    let (system, user) = fixture();
    for i in 0..5u64 {
        let s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(7000 + i));
        let v = system.verify(&s);
        assert!(
            v.accepted(),
            "genuine session {i} rejected: {:?}",
            v.results()
                .map(|r| (r.component, r.attack_score))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn all_machine_attack_types_rejected() {
    let (system, user) = fixture();
    let dev = table_iv_catalog()[0].clone();
    for kind in AttackKind::machine_based() {
        let s = ScenarioBuilder::machine_attack(user, kind, dev.clone(), attacker())
            .at_distance(0.05)
            .capture(&SimRng::from_seed(8000));
        let v = system.verify(&s);
        assert!(
            !v.accepted(),
            "{kind:?} through a PC speaker must be rejected"
        );
        // The loudspeaker detector specifically must fire (the magnet).
        assert!(
            v.result_of(Component::Loudspeaker).unwrap().attack_score >= 1.0,
            "{kind:?}: loudspeaker detector should flag the magnet"
        );
    }
}

#[test]
fn shielded_speaker_rejected_close_in() {
    let (system, user) = fixture();
    let dev = table_iv_catalog()[0].clone();
    let s = ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev, attacker())
        .at_distance(0.05)
        .with_shielding()
        .capture(&SimRng::from_seed(8100));
    assert!(
        !system.verify(&s).accepted(),
        "Mu-metal shield at 5 cm must fail"
    );
}

#[test]
fn sound_tube_attack_rejected() {
    let (system, user) = fixture();
    let dev = table_iv_catalog()[0].clone();
    let mut b = ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev.clone(), attacker())
        .at_distance(0.05);
    b.source = SourceKind::DeviceViaTube {
        device: dev,
        tube: SoundTube::new(0.30, 0.0125),
    };
    let s = b.capture(&SimRng::from_seed(8200));
    assert!(!system.verify(&s).accepted(), "sound-tube attack must fail");
}

#[test]
fn off_center_pivot_rejected_by_ranging() {
    let (system, user) = fixture();
    let dev = table_iv_catalog()[0].clone();
    let s = ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev, attacker())
        .at_distance(0.25)
        .with_off_center_pivot(Vec3::new(0.0, -0.20, 0.0))
        .capture(&SimRng::from_seed(8300));
    let v = system.verify(&s);
    assert!(!v.accepted());
    assert!(
        v.result_of(Component::Distance).unwrap().attack_score >= 1.0,
        "faked sweep geometry should trip the distance/ranging component: {:?}",
        v.result_of(Component::Distance)
    );
}

#[test]
fn genuine_still_accepted_near_computer() {
    let (system, user) = fixture();
    // Computer 40 cm away — the benign end of Fig. 14(a).
    let env = EmfEnvironment::near_computer(Vec3::new(0.0, 0.40, 0.0));
    let s = ScenarioBuilder::genuine(user)
        .in_environment(env)
        .capture(&SimRng::from_seed(8400));
    assert!(system.verify(&s).accepted());
}

#[test]
fn car_environment_inflates_false_rejections() {
    let (system, user) = fixture();
    let mut rejected = 0;
    for i in 0..8u64 {
        let s = ScenarioBuilder::genuine(user)
            .in_environment(EmfEnvironment::in_car())
            .capture(&SimRng::from_seed(8500 + i));
        if !system.verify(&s).accepted() {
            rejected += 1;
        }
    }
    assert!(
        rejected >= 2,
        "car EMF should cause false rejections at fixed thresholds (Fig. 14b), got {rejected}/8"
    );
}

#[test]
fn adaptive_thresholds_recover_car_usability() {
    let (system, user) = fixture();
    use magshield::core::adaptive::{adapted_config, calibrate};
    use magshield::physics::magnetics::scene::MagneticScene;
    let scene = MagneticScene::quiet().with_environment(EmfEnvironment::in_car());
    let stationary = scene.sample_along(
        &vec![Vec3::new(0.05, -0.15, 0.0); 300],
        100.0,
        &SimRng::from_seed(8600),
    );
    let adapted = adapted_config(system.config, calibrate(&stationary));
    let mut fixed_rej = 0;
    let mut adapted_rej = 0;
    for i in 0..8u64 {
        let s = ScenarioBuilder::genuine(user)
            .in_environment(EmfEnvironment::in_car())
            .capture(&SimRng::from_seed(8700 + i));
        if !system.verify(&s).accepted() {
            fixed_rej += 1;
        }
        if !system.verify_with_config(&s, &adapted).accepted() {
            adapted_rej += 1;
        }
    }
    assert!(
        adapted_rej < fixed_rej,
        "adaptation should reduce car FRR: fixed {fixed_rej}/8, adapted {adapted_rej}/8"
    );
}

#[test]
fn server_round_trip_matches_local_verdict() {
    let (system, user) = fixture();
    let server = VerificationServer::spawn(system.clone(), 2);
    let client = server.client();
    let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(8800));
    let local = system.verify(&session);
    let remote = client.verify(&session).expect("server reachable");
    assert_eq!(local.decision, remote.decision);
    assert_eq!(local.stages.len(), remote.stages.len());
    for (l, r) in local.results().zip(remote.results()) {
        assert_eq!(l.component, r.component);
        assert!((l.attack_score - r.attack_score).abs() < 1e-9);
    }
    server.shutdown();
}

#[test]
fn short_circuit_skips_asv_but_agrees_with_full_evaluation() {
    let (system, user) = fixture();
    // Fresh registries so histogram counts below are owned by this test.
    let full_sys = system.with_fresh_obs();
    let short_sys = system.with_fresh_obs();
    let dev = table_iv_catalog()[0].clone();
    let s = ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev, attacker())
        .at_distance(0.05)
        .capture(&SimRng::from_seed(9100));

    let full = full_sys.verify_with_policy(&s, ExecutionPolicy::FullEvaluation);
    let (short, timings) = short_sys
        .cascade()
        .with_policy(ExecutionPolicy::ShortCircuit)
        .run(&s, &short_sys.config, short_sys.obs());

    // Same decision either way; the replay magnet fires at the first stage.
    assert!(!full.accepted() && !short.accepted());
    assert_eq!(full.decision, short.decision);

    // The ASV back end was skipped, not run: the verdict carries a Skipped
    // outcome naming the stage that short-circuited it, the run timed
    // nothing for it, and its latency histogram recorded nothing.
    let skipped = short
        .skipped_of(Component::SpeakerIdentity)
        .expect("speaker_id should be short-circuited");
    assert_eq!(skipped.cause, Component::Loudspeaker);
    assert_eq!(timings.stage_s[Component::SpeakerIdentity.index()], 0.0);
    let asv = |policy: ExecutionPolicy| Labels::new().stage("speaker_id").policy(policy.name());
    let short_snap = short_sys.metrics().snapshot();
    assert!(
        !short_snap
            .histograms
            .contains_key(&asv(ExecutionPolicy::ShortCircuit).key_for("pipeline.stage.seconds")),
        "skipped stage must not contribute a latency sample"
    );
    assert_eq!(
        short_snap.counters[&asv(ExecutionPolicy::ShortCircuit).key_for("pipeline.stage.skipped")],
        1
    );
    // Full evaluation, by contrast, ran every stage.
    assert_eq!(full.skipped().count(), 0);
    assert_eq!(
        full_sys.metrics().snapshot().histograms
            [&asv(ExecutionPolicy::FullEvaluation).key_for("pipeline.stage.seconds")]
            .count,
        1
    );
}

#[test]
fn traced_session_exports_every_component() {
    let (system, user) = fixture();
    let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(9000));
    let (verdict, trace) = system.verify_traced(&session);
    assert!(verdict.accepted(), "genuine session should verify");
    assert!(trace.accepted);
    assert!(trace.total_s > 0.0);

    const STAGES: [&str; 4] = ["distance", "sound_field", "loudspeaker", "speaker_id"];
    for stage in STAGES {
        let c = trace
            .component(stage)
            .unwrap_or_else(|| panic!("trace missing cascade component {stage}"));
        assert!(
            c.duration_s > 0.0,
            "{stage} duration must be strictly positive"
        );
        assert!(
            (c.threshold_margin - (1.0 - c.attack_score)).abs() < 1e-12,
            "{stage} margin should be 1 - attack_score"
        );
    }

    // The shared registry must hold a latency series per stage.
    let snap = system.metrics().snapshot();
    for stage in STAGES {
        let key = Labels::new()
            .stage(stage)
            .policy(ExecutionPolicy::FullEvaluation.name())
            .key_for("pipeline.stage.seconds");
        let h = &snap.histograms[&key];
        assert!(h.count >= 1, "{key} should have samples");
        assert!(h.quantile(0.5) > 0.0);
    }
}

#[test]
fn verdicts_are_deterministic() {
    let (system, user) = fixture();
    let s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(8900));
    let a = system.verify(&s);
    let b = system.verify(&s);
    assert_eq!(a, b);
}

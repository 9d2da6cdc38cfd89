//! Failure-injection tests: the pipeline must reject (never panic on)
//! degraded, truncated or hostile sensor data.

use magshield::core::pipeline::{BootstrapConfig, DefenseSystem};
use magshield::core::scenario::{bootstrap_with, ScenarioBuilder, UserContext};
use magshield::core::server::protocol::{decode_frame, encode_request, Message};
use magshield::core::server::{ClientError, VerificationServer, PANIC_FRAME};
use magshield::core::store::StoreError;
use magshield::simkit::rng::SimRng;
use magshield::simkit::vec3::Vec3;
use std::sync::OnceLock;

fn fixture() -> &'static (DefenseSystem, UserContext) {
    static F: OnceLock<(DefenseSystem, UserContext)> = OnceLock::new();
    F.get_or_init(|| bootstrap_with(&SimRng::from_seed(3001), BootstrapConfig::tiny()))
}

fn genuine_session(seed: u64) -> magshield::core::session::SessionData {
    let (_, user) = fixture();
    ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(seed))
}

#[test]
fn truncated_audio_rejected_without_panic() {
    let (system, _) = fixture();
    let mut s = genuine_session(1);
    s.audio.truncate(100);
    let v = system.verify(&s);
    assert!(!v.accepted(), "a 2 ms recording cannot pass verification");
}

#[test]
fn empty_sensor_streams_rejected() {
    let (system, _) = fixture();
    for strip in 0..3 {
        let mut s = genuine_session(2);
        match strip {
            0 => s.mag_readings.clear(),
            1 => s.accel_readings.clear(),
            _ => s.gyro_readings.clear(),
        }
        assert!(!system.verify(&s).accepted());
    }
}

#[test]
fn saturated_magnetometer_rejected() {
    let (system, _) = fixture();
    let mut s = genuine_session(3);
    // A magnet slammed against the sensor: full-scale clipping.
    for r in s.mag_readings.iter_mut() {
        *r = Vec3::new(1200.0, 1200.0, 1200.0);
    }
    let v = system.verify(&s);
    assert!(!v.accepted(), "saturated magnetometer must reject");
}

#[test]
fn clipped_audio_degrades_gracefully() {
    let (system, _) = fixture();
    let mut s = genuine_session(4);
    for x in s.audio.iter_mut() {
        *x = x.signum() * x.abs().min(0.02); // crush to heavy clipping
    }
    // Must not panic; decision may be either way but scores stay finite.
    let v = system.verify(&s);
    for r in v.results() {
        assert!(r.attack_score.is_finite() || r.attack_score == f64::INFINITY);
    }
}

#[test]
fn nan_poisoned_session_rejected() {
    let (system, _) = fixture();
    let mut s = genuine_session(5);
    s.audio[1000] = f64::NAN;
    assert!(!system.verify(&s).accepted());
    let mut s2 = genuine_session(6);
    s2.gyro_readings[10] = Vec3::new(f64::INFINITY, 0.0, 0.0);
    assert!(!system.verify(&s2).accepted());
}

#[test]
fn sensor_dropout_mid_session_rejected_or_flagged() {
    let (system, _) = fixture();
    let mut s = genuine_session(7);
    // Magnetometer dies halfway: stream truncated.
    let half = s.mag_readings.len() / 2;
    s.mag_readings.truncate(half);
    let v = system.verify(&s);
    // The shortened magnitude trace loses the close-in segment; the
    // pipeline must stay well-defined.
    for r in v.results() {
        assert!(!r.attack_score.is_nan());
    }
}

#[test]
fn stationary_phone_rejected() {
    // An attacker who props the phone on a stand: no approach, no sweep,
    // and a static magnetic scene (all three sensors agree the phone
    // never moved).
    let (system, _) = fixture();
    let mut s = genuine_session(8);
    for a in s.accel_readings.iter_mut() {
        *a = Vec3::ZERO;
    }
    for g in s.gyro_readings.iter_mut() {
        *g = Vec3::ZERO;
    }
    let earth = s.earth_reference;
    for m in s.mag_readings.iter_mut() {
        *m = earth;
    }
    let v = system.verify(&s);
    assert!(!v.accepted(), "no protocol motion → reject");
}

#[test]
fn fuzzed_protocol_frames_never_panic() {
    let frame = encode_request(1, &genuine_session(9));
    let mut rng = SimRng::from_seed(10);
    // Random corruptions of a valid frame.
    for _ in 0..200 {
        let mut f = frame.clone();
        let flips = 1 + rng.index(8);
        for _ in 0..flips {
            let i = rng.index(f.len());
            f[i] ^= 1 << rng.index(8);
        }
        let _ = decode_frame(&f); // must not panic
    }
    // Random garbage of random lengths.
    for _ in 0..200 {
        let n = rng.index(256);
        let mut g = vec![0u8; n];
        for b in g.iter_mut() {
            *b = rng.index(256) as u8;
        }
        let _ = decode_frame(&g);
    }
}

#[test]
fn worker_panic_releases_queue_depth_and_pool_survives() {
    let (system, user) = fixture();
    let workers = 2;
    let server = VerificationServer::spawn(system.with_fresh_obs(), workers);
    let client = server.client();
    // Drive more panics than there are workers: a pool that lost a thread
    // per panic would have none left. Each reply must be an error frame,
    // not a hang or a dead connection.
    for _ in 0..workers + 1 {
        let raw = client
            .send_raw(PANIC_FRAME.to_vec())
            .expect("panicking job still answers");
        match decode_frame(&raw) {
            Ok(Message::Error { message, .. }) => {
                assert!(message.contains("panic"), "unexpected error: {message}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }
    assert_eq!(
        server.metrics().counter("server.worker.panics").get(),
        workers as u64 + 1
    );
    assert_eq!(
        server.metrics().gauge("server.queue.depth").get(),
        0,
        "a panicking frame must not leak the depth gauge"
    );
    // The pool survives: a normal request still gets a full verdict.
    let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(12));
    let verdict = client.verify(&session).expect("worker alive after panic");
    assert!(verdict.results().count() >= 4, "all components ran");
    assert_eq!(server.metrics().gauge("server.queue.depth").get(), 0);
    server.shutdown();
}

#[test]
fn server_survives_hostile_then_valid_traffic() {
    let (system, user) = fixture();
    // Fresh obs: the counters below must not see other tests' servers.
    let server = VerificationServer::spawn(system.with_fresh_obs(), 2);
    let client = server.client();
    // Hostile garbage first.
    for seed in 0..5u64 {
        let mut rng = SimRng::from_seed(seed);
        let n = 4 + rng.index(64);
        let mut g = vec![0u8; n];
        for b in g.iter_mut() {
            *b = rng.index(256) as u8;
        }
        let _ = client.send_raw(g).expect("server keeps replying");
    }
    // Then a legitimate request still gets a full verdict (this test is
    // about server survival, not the verdict itself).
    let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(11));
    let verdict = client.verify(&session).expect("server alive");
    assert_eq!(verdict.results().count(), 4, "all components ran");
    let m = server.metrics();
    assert!(m.counter("server.protocol.errors").get() >= 5);
    let processed: u64 = (0..2)
        .map(|i| m.counter(&format!("server.worker.{i}.processed")).get())
        .sum();
    assert_eq!(processed, 1);
    server.shutdown();
}

#[test]
fn too_short_enrollment_is_refused_without_a_worker_panic() {
    let (system, user) = fixture();
    // Two 100-sample takes: non-empty, so the server's framing guard
    // admits them, but shorter than one feature frame.
    let take = genuine_session(13).audio[..100].to_vec();
    let generation = system.generation();
    assert!(matches!(
        system.try_enroll_speaker(4242, &[take.as_slice()]),
        Err(StoreError::Enroll(_))
    ));

    let server = VerificationServer::spawn(system.with_fresh_obs(), 2);
    let client = server.client();
    match client.enroll(4242, &[take.clone(), take]) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("no frames"), "unexpected error: {message}");
        }
        other => panic!("expected an enrollment refusal, got {other:?}"),
    }
    let m = server.metrics();
    assert_eq!(m.counter("server.worker.panics").get(), 0);
    assert_eq!(m.counter("server.protocol.errors").get(), 1);
    assert_eq!(
        system.generation(),
        generation,
        "a refused enrollment publishes nothing"
    );
    assert!(!system.is_enrolled(4242));
    // The worker that refused it still serves.
    let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(14));
    let verdict = client
        .verify(&session)
        .expect("worker alive after the refusal");
    assert!(verdict.results().count() >= 4, "all components ran");
    server.shutdown();
}

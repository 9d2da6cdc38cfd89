//! The bulk wire codec against a per-sample oracle.
//!
//! The oracle below writes and reads the v6 frame layout one field and
//! one sample at a time, the way the protocol did before its sample
//! vectors moved onto the codec's bulk slice methods. The bulk path must
//! produce the same bytes and decode `to_bits`-equal values on every
//! sample-carrying frame kind, including NaN payloads, signed zeros,
//! subnormals, infinities and empty vectors. A closed-form session and
//! chunk pin the layout itself: their frame hashes were taken from the
//! per-sample encoder and must never move without a protocol version
//! bump.

use magshield_core::server::protocol::{
    decode_frame, encode_enroll, encode_request, encode_stream_chunk, Message, PROTOCOL_VERSION,
};
use magshield_core::session::SessionData;
use magshield_core::stream::SessionChunk;
use magshield_ml::codec::fnv1a_64;
use magshield_simkit::vec3::Vec3;

const MAGIC: u16 = 0x4D53;
const T_VERIFY_REQUEST: u8 = 1;
const T_ENROLL: u8 = 8;
const T_STREAM_CHUNK: u8 = 17;

/// Per-sample encoder of the v6 layout.
struct OracleWriter(Vec<u8>);

impl OracleWriter {
    fn frame(ty: u8) -> Self {
        let mut w = Self(Vec::new());
        w.0.extend_from_slice(&MAGIC.to_le_bytes());
        w.0.push(PROTOCOL_VERSION);
        w.0.push(ty);
        w
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64s(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.f64(x);
        }
    }

    fn vec3s(&mut self, v: &[Vec3]) {
        self.u32(v.len() as u32);
        for x in v {
            self.f64(x.x);
            self.f64(x.y);
            self.f64(x.z);
        }
    }

    fn session(&mut self, s: &SessionData) {
        self.u32(s.claimed_speaker);
        self.f64(s.audio_rate);
        self.f64(s.pilot_hz);
        self.f64(s.imu_rate);
        self.f64(s.sweep_start_s);
        self.f64(s.earth_reference.x);
        self.f64(s.earth_reference.y);
        self.f64(s.earth_reference.z);
        self.f64s(&s.audio);
        match &s.audio2 {
            Some(a2) => {
                self.0.push(1);
                self.f64s(a2);
            }
            None => self.0.push(0),
        }
        self.vec3s(&s.mag_readings);
        self.vec3s(&s.accel_readings);
        self.vec3s(&s.gyro_readings);
    }
}

fn oracle_request(id: u64, s: &SessionData) -> Vec<u8> {
    let mut w = OracleWriter::frame(T_VERIFY_REQUEST);
    w.u64(id);
    w.session(s);
    w.0
}

fn oracle_enroll(id: u64, speaker: u32, utterances: &[Vec<f64>]) -> Vec<u8> {
    let mut w = OracleWriter::frame(T_ENROLL);
    w.u64(id);
    w.u32(speaker);
    w.u32(utterances.len() as u32);
    for u in utterances {
        w.f64s(u);
    }
    w.0
}

fn oracle_chunk(id: u64, stream: u64, c: &SessionChunk) -> Vec<u8> {
    let mut w = OracleWriter::frame(T_STREAM_CHUNK);
    w.u64(id);
    w.u64(stream);
    w.f64s(&c.audio);
    w.f64s(&c.audio2);
    w.vec3s(&c.mag);
    w.vec3s(&c.accel);
    w.vec3s(&c.gyro);
    w.0
}

/// Per-sample decoder of the v6 layout; trusts its (oracle-made) input.
struct OracleReader<'a>(&'a [u8]);

impl OracleReader<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        head.try_into().unwrap()
    }

    fn header(&mut self, ty: u8) {
        assert_eq!(u16::from_le_bytes(self.take()), MAGIC);
        assert_eq!(self.take::<1>()[0], PROTOCOL_VERSION);
        assert_eq!(self.take::<1>()[0], ty);
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }

    fn f64s(&mut self) -> Vec<f64> {
        let n = self.u32() as usize;
        (0..n).map(|_| self.f64()).collect()
    }

    fn vec3s(&mut self) -> Vec<Vec3> {
        let n = self.u32() as usize;
        (0..n)
            .map(|_| Vec3::new(self.f64(), self.f64(), self.f64()))
            .collect()
    }

    fn session(&mut self) -> SessionData {
        SessionData {
            claimed_speaker: self.u32(),
            audio_rate: self.f64(),
            pilot_hz: self.f64(),
            imu_rate: self.f64(),
            sweep_start_s: self.f64(),
            earth_reference: Vec3::new(self.f64(), self.f64(), self.f64()),
            audio: self.f64s(),
            audio2: match self.take::<1>()[0] {
                0 => None,
                _ => Some(self.f64s()),
            },
            mag_readings: self.vec3s(),
            accel_readings: self.vec3s(),
            gyro_readings: self.vec3s(),
        }
    }

    fn chunk(&mut self) -> SessionChunk {
        SessionChunk {
            audio: self.f64s(),
            audio2: self.f64s(),
            mag: self.vec3s(),
            accel: self.vec3s(),
            gyro: self.vec3s(),
        }
    }

    fn finish(self) {
        assert!(self.0.is_empty(), "oracle left {} bytes", self.0.len());
    }
}

/// Every value of a session as raw bits, in wire order: equal vectors
/// of bits are equal sessions, NaN payloads included.
fn session_bits(s: &SessionData) -> Vec<u64> {
    let mut out = vec![s.claimed_speaker as u64];
    for x in [s.audio_rate, s.pilot_hz, s.imu_rate, s.sweep_start_s] {
        out.push(x.to_bits());
    }
    vec3_bits(&mut out, &[s.earth_reference]);
    f64_bits(&mut out, &s.audio);
    match &s.audio2 {
        Some(a2) => {
            out.push(1);
            f64_bits(&mut out, a2);
        }
        None => out.push(0),
    }
    vec3_bits(&mut out, &s.mag_readings);
    vec3_bits(&mut out, &s.accel_readings);
    vec3_bits(&mut out, &s.gyro_readings);
    out
}

fn chunk_bits(c: &SessionChunk) -> Vec<u64> {
    let mut out = Vec::new();
    f64_bits(&mut out, &c.audio);
    f64_bits(&mut out, &c.audio2);
    vec3_bits(&mut out, &c.mag);
    vec3_bits(&mut out, &c.accel);
    vec3_bits(&mut out, &c.gyro);
    out
}

fn f64_bits(out: &mut Vec<u64>, v: &[f64]) {
    out.push(v.len() as u64);
    out.extend(v.iter().map(|x| x.to_bits()));
}

fn vec3_bits(out: &mut Vec<u64>, v: &[Vec3]) {
    out.push(v.len() as u64);
    for p in v {
        out.extend([p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]);
    }
}

/// Values a bit-exact codec must carry untouched.
fn edge_values() -> Vec<f64> {
    vec![
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001), // signaling NaN
        f64::from_bits(0xfff8_dead_beef_0042), // negative NaN with payload
        0.0,
        -0.0,
        f64::from_bits(1), // smallest subnormal
        -f64::MIN_POSITIVE / 3.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN_POSITIVE,
        0.1,
    ]
}

fn edge_vec3s() -> Vec<Vec3> {
    let e = edge_values();
    (0..e.len())
        .map(|i| Vec3::new(e[i], e[(i + 5) % e.len()], e[(i + 9) % e.len()]))
        .collect()
}

fn edge_sessions() -> Vec<SessionData> {
    let full = SessionData {
        claimed_speaker: u32::MAX,
        audio: edge_values(),
        audio2: Some(edge_values().into_iter().rev().collect()),
        audio_rate: 48_000.0,
        pilot_hz: f64::NAN,
        mag_readings: edge_vec3s(),
        accel_readings: edge_vec3s(),
        gyro_readings: edge_vec3s(),
        imu_rate: -0.0,
        sweep_start_s: f64::from_bits(3),
        earth_reference: Vec3::new(f64::INFINITY, -0.0, f64::NAN),
    };
    let mono = SessionData {
        audio2: None,
        ..full.clone()
    };
    let empty = SessionData {
        claimed_speaker: 0,
        audio: vec![],
        audio2: Some(vec![]),
        audio_rate: 0.0,
        pilot_hz: 0.0,
        mag_readings: vec![],
        accel_readings: vec![],
        gyro_readings: vec![],
        imu_rate: 0.0,
        sweep_start_s: 0.0,
        earth_reference: Vec3::new(0.0, 0.0, 0.0),
    };
    let empty_mono = SessionData {
        audio2: None,
        ..empty.clone()
    };
    vec![full, mono, empty, empty_mono, closed_form_session()]
}

fn edge_chunks() -> Vec<SessionChunk> {
    vec![
        SessionChunk {
            audio: edge_values(),
            audio2: edge_values(),
            mag: edge_vec3s(),
            accel: vec![],
            gyro: edge_vec3s(),
        },
        SessionChunk::default(),
        closed_form_chunk(),
    ]
}

/// A deterministic, RNG-free session: every value is an exactly rounded
/// quotient of small integers, so its bytes are the same on every
/// platform.
fn closed_form_session() -> SessionData {
    let audio = |k: usize| -> Vec<f64> {
        (0..480)
            .map(|i| ((i * k) % 2001) as f64 / 1000.0 - 1.0)
            .collect()
    };
    let imu = |scale: f64| -> Vec<Vec3> {
        (0..30)
            .map(|i| {
                let t = i as f64;
                Vec3::new(t * scale, -t / 3.0, 40.0 + t * 0.25)
            })
            .collect()
    };
    SessionData {
        claimed_speaker: 17,
        audio: audio(7919),
        audio2: Some(audio(104_729)),
        audio_rate: 48_000.0,
        pilot_hz: 19_000.0,
        mag_readings: imu(0.5),
        accel_readings: imu(0.01),
        gyro_readings: imu(-0.002),
        imu_rate: 100.0,
        sweep_start_s: 1.5,
        earth_reference: Vec3::new(0.0, 28.0, -39.0),
    }
}

fn closed_form_chunk() -> SessionChunk {
    let s = closed_form_session();
    SessionChunk {
        audio: s.audio[..96].to_vec(),
        audio2: s.audio2.unwrap()[..96].to_vec(),
        mag: s.mag_readings[..2].to_vec(),
        accel: s.accel_readings[..2].to_vec(),
        gyro: vec![],
    }
}

fn edge_utterances() -> Vec<Vec<f64>> {
    vec![edge_values(), vec![], closed_form_session().audio]
}

#[test]
fn bulk_encoders_write_the_oracle_bytes() {
    let sessions = edge_sessions();
    for (i, s) in sessions.iter().enumerate() {
        assert_eq!(
            encode_request(i as u64, s),
            oracle_request(i as u64, s),
            "verify frame {i}"
        );
    }
    let utterances = edge_utterances();
    assert_eq!(
        encode_enroll(9, 4040, &utterances),
        oracle_enroll(9, 4040, &utterances)
    );
    assert_eq!(encode_enroll(10, 1, &[]), oracle_enroll(10, 1, &[]));
    for (i, c) in edge_chunks().iter().enumerate() {
        assert_eq!(
            encode_stream_chunk(i as u64, 3, c),
            oracle_chunk(i as u64, 3, c),
            "chunk frame {i}"
        );
    }
}

#[test]
fn bulk_decoder_reads_the_oracle_bits() {
    let sessions = edge_sessions();
    for s in &sessions {
        let frame = oracle_request(5, s);
        let mut r = OracleReader(&frame);
        r.header(T_VERIFY_REQUEST);
        assert_eq!(r.u64(), 5);
        let oracle = r.session();
        r.finish();
        let Message::VerifyRequest {
            request_id,
            session,
        } = decode_frame(&frame).unwrap()
        else {
            panic!("not a verify request");
        };
        assert_eq!(request_id, 5);
        assert_eq!(session_bits(&session), session_bits(&oracle));
        assert_eq!(session_bits(&session), session_bits(s));
    }

    let utterances = edge_utterances();
    let frame = oracle_enroll(7, 4040, &utterances);
    let mut r = OracleReader(&frame);
    r.header(T_ENROLL);
    assert_eq!((r.u64(), r.u32()), (7, 4040));
    let oracle: Vec<Vec<f64>> = (0..r.u32()).map(|_| r.f64s()).collect();
    r.finish();
    let Message::Enroll {
        utterances: decoded,
        ..
    } = decode_frame(&frame).unwrap()
    else {
        panic!("not an enroll frame");
    };
    let bits = |us: &[Vec<f64>]| -> Vec<u64> {
        let mut out = Vec::new();
        for u in us {
            f64_bits(&mut out, u);
        }
        out
    };
    assert_eq!(bits(&decoded), bits(&oracle));
    assert_eq!(bits(&decoded), bits(&utterances));

    for c in edge_chunks() {
        let frame = oracle_chunk(8, 3, &c);
        let mut r = OracleReader(&frame);
        r.header(T_STREAM_CHUNK);
        assert_eq!((r.u64(), r.u64()), (8, 3));
        let oracle = r.chunk();
        r.finish();
        let Message::StreamChunk { chunk, .. } = decode_frame(&frame).unwrap() else {
            panic!("not a stream chunk");
        };
        assert_eq!(chunk_bits(&chunk), chunk_bits(&oracle));
        assert_eq!(chunk_bits(&chunk), chunk_bits(&c));
    }
}

/// FNV-1a/64 of each sample-carrying frame built from the closed-form
/// session and chunk, recorded from the per-sample encoder.
const PINNED_V6: [(&str, u64); 4] = [
    ("verify", 0x5d93_8870_201b_f7d6),
    ("verify_mono", 0x8745_90a7_b2d2_6482),
    ("enroll", 0xdfcf_f0d8_90e9_194a),
    ("chunk", 0x88ce_5bac_9976_6731),
];

#[test]
fn v6_layout_is_pinned() {
    let s = closed_form_session();
    let mono = SessionData {
        audio2: None,
        ..s.clone()
    };
    let frames = [
        encode_request(1, &s),
        encode_request(2, &mono),
        encode_enroll(4, 17, &[s.audio.clone(), s.audio2.clone().unwrap()]),
        encode_stream_chunk(5, 6, &closed_form_chunk()),
    ];
    for ((name, pinned), frame) in PINNED_V6.iter().zip(&frames) {
        assert_eq!(fnv1a_64(frame), *pinned, "{name} frame layout moved");
    }
}

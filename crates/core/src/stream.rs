//! Streaming continuous verification: chunk-fed cascade execution.
//!
//! The batch pipeline verifies *complete* sessions. This module
//! restructures that into a stream: a [`StreamingVerification`] is opened
//! against one pinned registry generation, fed [`SessionChunk`]s as the
//! capture progresses, and produces a terminal [`DefenseVerdict`] either
//! mid-stream (early reject) or at close (finalize).
//!
//! # Decision identity
//!
//! The streaming path is **decision-identical to the one-shot path by
//! construction**:
//!
//! * [`StreamingVerification::finalize`] and re-verification passes run
//!   the *stock* one-shot cascade ([`Cascade::run`]) over the
//!   accumulated chunk data — the exact code path
//!   [`DefenseSystem::verify_with_policy`] uses;
//! * a mid-stream [`StreamEvent::EarlyReject`] is the loudspeaker
//!   stage's own verdict: it fires only when a **monotone lower bound**
//!   on the detector's final raw score crosses its boundary, so the
//!   one-shot loudspeaker stage rejects every completion of the stream.
//!   The verdict records the loudspeaker stage as run with the bound as
//!   its score (≥ 1) and every later applicable stage as skipped by it,
//!   exactly as a short-circuiting one-shot run would. No cascade runs
//!   on the prefix, which would fail session validation (the sweep
//!   has not been captured yet). The loudspeaker detector is the only
//!   stage with such a bound (its changing-rate maximum over stable
//!   centered-smoothed pairs only grows with more data, and its
//!   baseline-deviation bound confines the final baseline median to the
//!   observed pre-close-range interval — see
//!   [`loudspeaker::StreamingRateTracker`]), and it is precisely the
//!   stage that condemns magnet-and-coil replay hardware within the
//!   first few hundred milliseconds.
//!
//! The other stages score the whole utterance or the whole approach
//! sweep, so no prefix statistic of theirs can decide anything; a stream
//! does no per-chunk work for them and runs them once, at finalize.
//!
//! # Re-verification cadence
//!
//! Long-lived streams can be re-checked every
//! [`StreamConfig::reverify_every_chunks`] chunks: the full one-shot
//! cascade runs over the accumulated prefix. A rejecting pass is
//! **advisory** by default (counted, surfaced in the event) because a
//! prefix rejection does not imply a full-session rejection for the
//! non-monotone stages; opting into
//! [`StreamConfig::terminate_on_reverify`] trades that decision-identity
//! guarantee for faster containment.
//!
//! [`DefenseSystem::verify_with_policy`]: crate::pipeline::DefenseSystem::verify_with_policy

use crate::cascade::{Cascade, ExecutionPolicy};
use crate::components::loudspeaker;
use crate::config::DefenseConfig;
use crate::pipeline::PipelineObs;
use crate::session::SessionData;
use crate::verdict::{Component, ComponentResult, DefenseVerdict};
use magshield_simkit::vec3::Vec3;
use std::fmt;
use std::time::Instant;

/// Per-stream policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamConfig {
    /// Re-run the full one-shot cascade on the accumulated prefix every
    /// this many chunks (`0` disables the cadence). Each pass costs a
    /// full cascade evaluation including the ASV back end.
    pub reverify_every_chunks: u32,
    /// Whether a rejecting re-verification pass terminates the stream
    /// ([`StreamEvent::ReverifyReject`]). **Off by default**: a prefix
    /// rejection from a non-monotone stage does not imply the complete
    /// session would reject, so enabling this forfeits strict decision
    /// identity with the one-shot path.
    pub terminate_on_reverify: bool,
    /// Execution policy for finalize and re-verification passes.
    pub policy: ExecutionPolicy,
}

/// Stream-constant metadata: the [`SessionData`] scalars that must be
/// known before the first chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOpenInfo {
    /// Claimed speaker identity.
    pub claimed_speaker: u32,
    /// Audio sample rate (Hz).
    pub audio_rate: f64,
    /// IMU sample rate (Hz).
    pub imu_rate: f64,
    /// Ranging pilot tone frequency (Hz).
    pub pilot_hz: f64,
    /// When the ranging sweep starts (s from stream start).
    pub sweep_start_s: f64,
    /// Calibrated Earth-field reference (µT).
    pub earth_reference: Vec3,
    /// Whether the stream carries a second microphone channel.
    pub dual_mic: bool,
}

impl StreamOpenInfo {
    /// The open info describing an existing complete session (what a
    /// capture of the same device/geometry would have streamed).
    pub fn for_session(session: &SessionData) -> Self {
        Self {
            claimed_speaker: session.claimed_speaker,
            audio_rate: session.audio_rate,
            imu_rate: session.imu_rate,
            pilot_hz: session.pilot_hz,
            sweep_start_s: session.sweep_start_s,
            earth_reference: session.earth_reference,
            dual_mic: session.audio2.is_some(),
        }
    }
}

/// One chunk of interleaved sensor data. Streams may chunk audio and IMU
/// at different granularities; empty fields are allowed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionChunk {
    /// Primary-microphone samples at the stream's audio rate.
    pub audio: Vec<f64>,
    /// Second-microphone samples (ignored on single-mic streams).
    pub audio2: Vec<f64>,
    /// Magnetometer readings (µT) at the IMU rate.
    pub mag: Vec<Vec3>,
    /// Accelerometer readings at the IMU rate.
    pub accel: Vec<Vec3>,
    /// Gyroscope readings at the IMU rate.
    pub gyro: Vec<Vec3>,
}

impl SessionChunk {
    /// Whether the chunk carries no data at all.
    pub fn is_empty(&self) -> bool {
        self.audio.is_empty()
            && self.audio2.is_empty()
            && self.mag.is_empty()
            && self.accel.is_empty()
            && self.gyro.is_empty()
    }
}

/// Non-terminal progress after one chunk.
#[derive(Debug, Clone)]
pub struct StreamProgress {
    /// Chunks ingested so far.
    pub chunks: u32,
    /// Accumulated audio samples.
    pub audio_samples: usize,
    /// Accumulated IMU (magnetometer) samples.
    pub imu_samples: usize,
    /// Whether the most recent re-verification pass (if any ran on this
    /// chunk) rejected the accumulated prefix.
    pub reverify_rejected: bool,
}

/// What [`StreamingVerification::ingest`] reports.
#[derive(Debug)]
pub enum StreamEvent {
    /// Keep streaming.
    Progress(StreamProgress),
    /// The loudspeaker detector's monotone bound crossed its boundary
    /// mid-stream. The verdict is that stage's rejection, every later
    /// stage skipped by it (see the module docs). The stream is
    /// terminated.
    EarlyReject(DefenseVerdict),
    /// A re-verification pass rejected the prefix and
    /// [`StreamConfig::terminate_on_reverify`] is set. The stream is
    /// terminated.
    ReverifyReject(DefenseVerdict),
}

/// Error: a chunk was fed to (or finalize called on) a stream that
/// already produced its terminal verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamClosed;

impl fmt::Display for StreamClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream already terminated")
    }
}

impl std::error::Error for StreamClosed {}

/// One in-flight streaming verification, pinned to a registry
/// generation (see the module docs for the decision-identity contract).
pub struct StreamingVerification {
    /// The pinned cascade, under the stream's policy, that re-verifies
    /// and finalizes the stream.
    cascade: Cascade,
    /// Fed every magnetometer magnitude as it arrives; its bound is the
    /// only per-chunk statistic that can end a stream early.
    tracker: loudspeaker::StreamingRateTracker,
    data: SessionData,
    stream: StreamConfig,
    chunks: u32,
    opened: Instant,
    terminated: bool,
}

impl StreamingVerification {
    /// Opens a stream scored by `cascade` under `stream.policy`
    /// ([`DefenseSystem::open_stream`](crate::pipeline::DefenseSystem::open_stream)
    /// pins it to the currently served generation).
    pub(crate) fn open(cascade: Cascade, info: &StreamOpenInfo, stream: StreamConfig) -> Self {
        let data = SessionData {
            claimed_speaker: info.claimed_speaker,
            audio: Vec::new(),
            audio2: info.dual_mic.then(Vec::new),
            audio_rate: info.audio_rate,
            pilot_hz: info.pilot_hz,
            mag_readings: Vec::new(),
            accel_readings: Vec::new(),
            gyro_readings: Vec::new(),
            imu_rate: info.imu_rate,
            sweep_start_s: info.sweep_start_s,
            earth_reference: info.earth_reference,
        };
        Self {
            cascade: cascade.with_policy(stream.policy),
            // The one-shot detector's close-range segment starts here.
            tracker: loudspeaker::StreamingRateTracker::new(
                info.imu_rate,
                data.sweep_start_index() / 2,
            ),
            data,
            stream,
            chunks: 0,
            opened: Instant::now(),
            terminated: false,
        }
    }

    /// The registry generation this stream is pinned to.
    pub fn generation(&self) -> u64 {
        self.cascade.generation()
    }

    /// Chunks ingested so far.
    pub fn chunks(&self) -> u32 {
        self.chunks
    }

    /// Samples held across every stored channel: both microphones and
    /// all three IMU streams (one per reading). This is what a stream's
    /// memory grows with, so it is what a sample budget must cap.
    pub fn stored_samples(&self) -> usize {
        let d = &self.data;
        d.audio.len()
            + d.audio2.as_ref().map_or(0, Vec::len)
            + d.mag_readings.len()
            + d.accel_readings.len()
            + d.gyro_readings.len()
    }

    /// Whether the stream has produced its terminal verdict.
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// Time since the stream was opened.
    pub fn age(&self) -> std::time::Duration {
        self.opened.elapsed()
    }

    /// Ingests one chunk: appends it to the accumulated session, feeds its
    /// magnetometer readings to the loudspeaker bound, and — on the
    /// configured cadence — re-verifies the prefix. Terminal events
    /// ([`StreamEvent::EarlyReject`], [`StreamEvent::ReverifyReject`])
    /// close the stream; feeding it afterwards returns [`StreamClosed`].
    pub fn ingest(
        &mut self,
        chunk: &SessionChunk,
        config: &DefenseConfig,
        obs: &PipelineObs,
    ) -> Result<StreamEvent, StreamClosed> {
        if self.terminated {
            return Err(StreamClosed);
        }
        self.data.audio.extend_from_slice(&chunk.audio);
        if let Some(audio2) = &mut self.data.audio2 {
            audio2.extend_from_slice(&chunk.audio2);
        }
        self.data.mag_readings.extend_from_slice(&chunk.mag);
        self.data.accel_readings.extend_from_slice(&chunk.accel);
        self.data.gyro_readings.extend_from_slice(&chunk.gyro);
        self.chunks += 1;
        obs.registry.counter("pipeline.stream.chunks").inc();

        for r in &chunk.mag {
            self.tracker.push(r.norm());
        }
        let bound = self.tracker.raw_score_bound(config)
            / config.stage_boundaries.get(Component::Loudspeaker);
        if bound >= 1.0 {
            self.terminated = true;
            let verdict = self.early_reject(bound);
            obs.registry.counter("pipeline.rejects").inc();
            let elapsed = self.opened.elapsed().as_secs_f64().max(1e-9);
            obs.registry
                .histogram("pipeline.stream.first_verdict.seconds")
                .record_secs(elapsed);
            obs.registry
                .histogram("pipeline.stream.early_reject.seconds")
                .record_secs(elapsed);
            obs.registry.counter("pipeline.stream.early_rejects").inc();
            return Ok(StreamEvent::EarlyReject(verdict));
        }

        let mut reverify_rejected = false;
        if self.stream.reverify_every_chunks > 0
            && self
                .chunks
                .is_multiple_of(self.stream.reverify_every_chunks)
        {
            let (verdict, _) = self.cascade.run(&self.data, config, obs);
            obs.registry
                .counter("pipeline.stream.reverify.passes")
                .inc();
            if !verdict.accepted() {
                reverify_rejected = true;
                obs.registry
                    .counter("pipeline.stream.reverify.rejects")
                    .inc();
                if self.stream.terminate_on_reverify {
                    self.terminated = true;
                    let elapsed = self.opened.elapsed().as_secs_f64().max(1e-9);
                    obs.registry
                        .histogram("pipeline.stream.first_verdict.seconds")
                        .record_secs(elapsed);
                    return Ok(StreamEvent::ReverifyReject(verdict));
                }
            }
        }

        Ok(StreamEvent::Progress(StreamProgress {
            chunks: self.chunks,
            audio_samples: self.data.audio.len(),
            imu_samples: self.data.mag_readings.len(),
            reverify_rejected,
        }))
    }

    /// Closes the stream: runs the stock one-shot cascade over the
    /// complete accumulated session — the decision is identical to
    /// verifying the same data in one shot — and returns the verdict,
    /// stamped with the pinned generation.
    pub fn finalize(
        mut self,
        config: &DefenseConfig,
        obs: &PipelineObs,
    ) -> Result<DefenseVerdict, StreamClosed> {
        if self.terminated {
            return Err(StreamClosed);
        }
        self.terminated = true;
        let (verdict, _) = self.cascade.run(&self.data, config, obs);
        obs.registry
            .histogram("pipeline.stream.first_verdict.seconds")
            .record_secs(self.opened.elapsed().as_secs_f64().max(1e-9));
        obs.registry.counter("pipeline.stream.completed").inc();
        Ok(verdict)
    }

    /// A borrowed view of the accumulated session prefix.
    pub fn accumulated(&self) -> &SessionData {
        &self.data
    }

    /// The early reject's verdict: the loudspeaker stage ran, scoring
    /// its crossed lower bound (`bound` ≥ 1, boundary-normalized), and
    /// every other stage that applies to the session is skipped by it.
    fn early_reject(&self, bound: f64) -> DefenseVerdict {
        let loudspeaker = ComponentResult {
            component: Component::Loudspeaker,
            attack_score: bound,
            detail: format!(
                "lower bound on the full-session score after {} chunks",
                self.chunks
            ),
        };
        self.cascade.early_reject(&self.data, loudspeaker)
    }
}

/// Splits a complete captured session into `n`-audio-sample chunks, the
/// IMU streams cut at the matching timestamps (`round(t · imu_rate)`);
/// the last chunk carries every remainder. Replaying the chunks through
/// [`StreamingVerification::ingest`] reassembles the session exactly.
pub fn chunk_session(session: &SessionData, chunk_audio_samples: usize) -> Vec<SessionChunk> {
    let n = session.audio.len();
    let step = chunk_audio_samples.max(1);
    if n == 0 {
        return vec![SessionChunk {
            audio: Vec::new(),
            audio2: session.audio2.clone().unwrap_or_default(),
            mag: session.mag_readings.clone(),
            accel: session.accel_readings.clone(),
            gyro: session.gyro_readings.clone(),
        }];
    }
    let mut chunks = Vec::with_capacity(n / step + 1);
    let mut a0 = 0usize;
    let mut i0 = 0usize;
    while a0 < n {
        let a1 = (a0 + step).min(n);
        let last = a1 == n;
        let i1 = if last {
            session.mag_readings.len()
        } else {
            let t = a1 as f64 / session.audio_rate;
            ((t * session.imu_rate).round() as usize)
                .min(session.mag_readings.len())
                .max(i0)
        };
        let imu = |v: &[Vec3]| v[i0.min(v.len())..i1.min(v.len())].to_vec();
        chunks.push(SessionChunk {
            audio: session.audio[a0..a1].to_vec(),
            audio2: session
                .audio2
                .as_ref()
                .map(|a| a[a0.min(a.len())..a1.min(a.len())].to_vec())
                .unwrap_or_default(),
            mag: imu(&session.mag_readings),
            accel: imu(&session.accel_readings),
            gyro: imu(&session.gyro_readings),
        });
        a0 = a1;
        i0 = i1;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use magshield_simkit::prop::prelude::*;
    use magshield_simkit::rng::SimRng;
    use magshield_voice::attacks::AttackKind;
    use magshield_voice::devices::table_iv_catalog;
    use magshield_voice::profile::SpeakerProfile;

    fn genuine_session(seed: u64) -> SessionData {
        let (_, user) = crate::test_support::shared_tiny_system();
        ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(seed))
    }

    fn replay_session(seed: u64) -> SessionData {
        let (_, user) = crate::test_support::shared_tiny_system();
        let attacker = SpeakerProfile::sample(7, &SimRng::from_seed(1));
        let dev = table_iv_catalog()[0].clone();
        ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev, attacker)
            .at_distance(0.05)
            .capture(&SimRng::from_seed(seed))
    }

    /// Streams a session chunk-by-chunk to its terminal verdict.
    fn stream_to_verdict(
        session: &SessionData,
        chunk_audio: usize,
        stream: StreamConfig,
    ) -> (DefenseVerdict, bool) {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let mut v = sys.open_stream(&StreamOpenInfo::for_session(session), stream);
        for chunk in chunk_session(session, chunk_audio) {
            match v.ingest(&chunk, &sys.config, sys.obs()).unwrap() {
                StreamEvent::Progress(_) => {}
                StreamEvent::EarlyReject(verdict) | StreamEvent::ReverifyReject(verdict) => {
                    return (verdict, true);
                }
            }
        }
        (v.finalize(&sys.config, sys.obs()).unwrap(), false)
    }

    /// [`stream_to_verdict`] under an explicit config (the quantized
    /// decision-identity test swaps in `asv_quantized`).
    fn stream_to_verdict_with_config(
        session: &SessionData,
        chunk_audio: usize,
        stream: StreamConfig,
        config: &DefenseConfig,
    ) -> (DefenseVerdict, bool) {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let mut v = sys.open_stream(&StreamOpenInfo::for_session(session), stream);
        for chunk in chunk_session(session, chunk_audio) {
            match v.ingest(&chunk, config, sys.obs()).unwrap() {
                StreamEvent::Progress(_) => {}
                StreamEvent::EarlyReject(verdict) | StreamEvent::ReverifyReject(verdict) => {
                    return (verdict, true);
                }
            }
        }
        (v.finalize(config, sys.obs()).unwrap(), false)
    }

    #[test]
    fn chunks_reassemble_the_session_exactly() {
        let s = genuine_session(91);
        for chunk_audio in [1usize, 4801, 16_000, s.audio.len(), s.audio.len() * 2] {
            let chunks = chunk_session(&s, chunk_audio);
            let mut audio = Vec::new();
            let mut audio2 = Vec::new();
            let mut mag = Vec::new();
            let mut accel = Vec::new();
            let mut gyro = Vec::new();
            for c in &chunks {
                audio.extend_from_slice(&c.audio);
                audio2.extend_from_slice(&c.audio2);
                mag.extend_from_slice(&c.mag);
                accel.extend_from_slice(&c.accel);
                gyro.extend_from_slice(&c.gyro);
            }
            assert_eq!(audio, s.audio);
            assert_eq!(audio2, s.audio2.clone().unwrap_or_default());
            assert_eq!(mag.len(), s.mag_readings.len());
            assert_eq!(accel.len(), s.accel_readings.len());
            assert_eq!(gyro.len(), s.gyro_readings.len());
        }
    }

    #[test]
    fn genuine_stream_matches_one_shot_decision() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let s = genuine_session(92);
        let one_shot = sys.verify(&s);
        let (streamed, early) = stream_to_verdict(&s, 9600, StreamConfig::default());
        assert!(!early, "genuine session must not early-reject");
        assert_eq!(streamed.decision, one_shot.decision);
        assert_eq!(streamed.generation, one_shot.generation);
    }

    #[test]
    fn replay_stream_early_rejects_mid_stream() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let s = replay_session(93);
        let one_shot = sys.verify(&s);
        assert!(!one_shot.accepted(), "replay at 5 cm must reject");
        let (streamed, early) = stream_to_verdict(&s, 4800, StreamConfig::default());
        assert!(early, "magnet+coil replay must be caught mid-stream");
        assert!(!streamed.accepted());
        assert_eq!(streamed.decision, one_shot.decision);
    }

    /// An early reject is the loudspeaker stage's verdict on its crossed
    /// bound, shaped like the one-shot short-circuit verdict: no cascade
    /// runs on the prefix, so nothing is counted as invalid.
    #[test]
    fn early_reject_is_the_loudspeaker_stages_verdict() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let sys = sys.with_fresh_obs();
        let s = replay_session(97);
        let one_shot = sys.verify_with_policy(&s, ExecutionPolicy::ShortCircuit);
        let one_shot_skips: Vec<_> = one_shot.skipped().copied().collect();
        for policy in [
            ExecutionPolicy::FullEvaluation,
            ExecutionPolicy::ShortCircuit,
        ] {
            let stream = StreamConfig {
                policy,
                ..StreamConfig::default()
            };
            let mut v = sys.open_stream(&StreamOpenInfo::for_session(&s), stream);
            let verdict = chunk_session(&s, 4800)
                .iter()
                .find_map(|c| match v.ingest(c, &sys.config, sys.obs()).unwrap() {
                    StreamEvent::EarlyReject(verdict) => Some(verdict),
                    _ => None,
                })
                .expect("a 5 cm replay early-rejects");
            assert_eq!(verdict.invalid, None, "{policy:?}");
            assert_eq!(verdict.generation, Some(v.generation()));
            let rejector = verdict.results().find(|r| !r.passes_at(1.0));
            assert_eq!(
                rejector.map(|r| r.component),
                Some(Component::Loudspeaker),
                "{policy:?}: {verdict:?}"
            );
            assert!(rejector.unwrap().attack_score >= 1.0);
            assert_eq!(verdict.results().count(), 1, "only the loudspeaker ran");
            assert_eq!(
                verdict.skipped().copied().collect::<Vec<_>>(),
                one_shot_skips
            );
        }
        assert_eq!(sys.metrics().counter("pipeline.invalid").get(), 0);
        assert_eq!(sys.metrics().counter("pipeline.rejects").get(), 3);
    }

    #[test]
    fn terminated_stream_refuses_more_chunks() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let s = replay_session(94);
        let mut v = sys.open_stream(&StreamOpenInfo::for_session(&s), StreamConfig::default());
        let chunks = chunk_session(&s, 4800);
        let mut rejected = false;
        for chunk in &chunks {
            match v.ingest(chunk, &sys.config, sys.obs()) {
                Ok(StreamEvent::EarlyReject(_)) => {
                    rejected = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(rejected);
        assert!(v.terminated());
        assert_eq!(
            v.ingest(&chunks[0], &sys.config, sys.obs()).unwrap_err(),
            StreamClosed
        );
        assert!(v.finalize(&sys.config, sys.obs()).is_err());
    }

    #[test]
    fn advisory_reverify_counts_but_does_not_terminate() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let sys = sys.with_fresh_obs();
        let s = genuine_session(95);
        let stream = StreamConfig {
            reverify_every_chunks: 2,
            ..StreamConfig::default()
        };
        let mut v = sys.open_stream(&StreamOpenInfo::for_session(&s), stream);
        for chunk in chunk_session(&s, s.audio.len() / 6) {
            match v.ingest(&chunk, &sys.config, sys.obs()).unwrap() {
                StreamEvent::Progress(_) => {}
                other => panic!("genuine stream terminated early: {other:?}"),
            }
        }
        assert!(
            sys.metrics()
                .counter("pipeline.stream.reverify.passes")
                .get()
                >= 2
        );
        let verdict = v.finalize(&sys.config, sys.obs()).unwrap();
        assert_eq!(verdict.decision, sys.verify(&s).decision);
    }

    /// The early reject fires on exactly the first chunk whose
    /// magnetometer prefix pushes a standalone loudspeaker tracker's bound
    /// across the boundary, and every earlier chunk reports the
    /// accumulated counts.
    #[test]
    fn early_reject_fires_on_the_first_chunk_whose_bound_crosses() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let s = replay_session(96);
        let boundary = sys.config.stage_boundaries.get(Component::Loudspeaker);
        // 10 ms, 100 ms, ~1/3 session.
        for chunk_audio in [
            (s.audio_rate / 100.0) as usize,
            (s.audio_rate / 10.0) as usize,
            (s.audio.len() / 3).max(1),
        ] {
            let chunks = chunk_session(&s, chunk_audio);
            let mut oracle =
                loudspeaker::StreamingRateTracker::new(s.imu_rate, s.sweep_start_index() / 2);
            let crossing = chunks
                .iter()
                .position(|c| {
                    for r in &c.mag {
                        oracle.push(r.norm());
                    }
                    oracle.raw_score_bound(&sys.config) / boundary >= 1.0
                })
                .expect("a magnet-and-coil replay at 5 cm crosses the bound");
            let mut v = sys.open_stream(&StreamOpenInfo::for_session(&s), StreamConfig::default());
            for (n, chunk) in chunks.iter().enumerate() {
                match v.ingest(chunk, &sys.config, sys.obs()).unwrap() {
                    StreamEvent::Progress(p) => {
                        assert!(
                            n < crossing,
                            "chunk {n} of {chunk_audio}: missed the crossing"
                        );
                        assert_eq!(p.chunks as usize, n + 1);
                        assert_eq!(p.chunks, v.chunks());
                        assert_eq!(p.audio_samples, v.accumulated().audio.len());
                        assert_eq!(p.imu_samples, v.accumulated().mag_readings.len());
                    }
                    StreamEvent::EarlyReject(verdict) => {
                        assert_eq!(n, crossing, "chunking {chunk_audio}");
                        assert!(!verdict.accepted());
                        break;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert!(v.terminated(), "chunking {chunk_audio} never rejected");
        }
    }

    proptest! {
        // Each case runs the cascade at least twice (stream + one-shot);
        // keep the case count low — the fixture is shared.
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The tentpole invariant (satellite 3): across chunk sizes —
        /// including single-frame-scale and whole-utterance chunks — and
        /// under both execution policies, a stream that completes yields
        /// the one-shot decision, and a stream that early-rejects has a
        /// one-shot decision of Reject.
        #[test]
        fn streaming_is_decision_identical_across_chunkings(
            seed in 0u64..5000,
            attack in 0u8..2,
            chunk_sel in 0usize..4,
            short_circuit in 0u8..2,
        ) {
            let (sys, _) = crate::test_support::shared_tiny_system();
            let s = if attack == 1 {
                replay_session(seed)
            } else {
                genuine_session(seed)
            };
            // 10 ms, 100 ms, ~1/3 session, whole utterance.
            let chunk_audio = match chunk_sel {
                0 => (s.audio_rate / 100.0) as usize,
                1 => (s.audio_rate / 10.0) as usize,
                2 => (s.audio.len() / 3).max(1),
                _ => s.audio.len(),
            };
            let policy = if short_circuit == 1 {
                ExecutionPolicy::ShortCircuit
            } else {
                ExecutionPolicy::FullEvaluation
            };
            let one_shot = sys.verify_with_policy(&s, policy);
            let stream = StreamConfig { policy, ..StreamConfig::default() };
            let (streamed, early) = stream_to_verdict(&s, chunk_audio, stream);
            if early {
                prop_assert!(!streamed.accepted());
                prop_assert!(
                    !one_shot.accepted(),
                    "early reject on a session the one-shot cascade accepts"
                );
            } else {
                prop_assert_eq!(streamed.decision, one_shot.decision);
            }
        }

        /// Quantized ASV scoring is decision-identical to exact scoring
        /// for the whole cascade — one-shot and streamed at several
        /// chunk granularities, under both execution policies. The
        /// analytic quantization drift bound sits far below the decision
        /// margins of the scenario corpus, so no verdict may flip.
        #[test]
        fn quantized_cascade_is_decision_identical_across_chunkings(
            seed in 0u64..5000,
            attack in 0u8..2,
            chunk_sel in 0usize..3,
            short_circuit in 0u8..2,
        ) {
            let (sys, _) = crate::test_support::shared_tiny_system();
            let s = if attack == 1 {
                replay_session(seed)
            } else {
                genuine_session(seed)
            };
            // 100 ms, ~1/3 session, whole utterance.
            let chunk_audio = match chunk_sel {
                0 => (s.audio_rate / 10.0) as usize,
                1 => (s.audio.len() / 3).max(1),
                _ => s.audio.len(),
            };
            let policy = if short_circuit == 1 {
                ExecutionPolicy::ShortCircuit
            } else {
                ExecutionPolicy::FullEvaluation
            };
            let quant_cfg = DefenseConfig { asv_quantized: true, ..sys.config };
            let exact = sys.verify_with_policy(&s, policy);
            let quant = sys
                .cascade()
                .with_policy(policy)
                .run(&s, &quant_cfg, sys.obs())
                .0;
            prop_assert_eq!(
                quant.decision,
                exact.decision,
                "quantization flipped the one-shot verdict"
            );
            let stream = StreamConfig { policy, ..StreamConfig::default() };
            let (streamed, early) =
                stream_to_verdict_with_config(&s, chunk_audio, stream, &quant_cfg);
            if early {
                prop_assert!(!streamed.accepted());
                prop_assert!(
                    !exact.accepted(),
                    "quantized early reject on a session the exact cascade accepts"
                );
            } else {
                prop_assert_eq!(streamed.decision, quant.decision);
            }
        }

        /// The advisory re-verification cadence never changes the
        /// terminal decision.
        #[test]
        fn advisory_reverify_preserves_decisions(
            seed in 0u64..5000,
            attack in 0u8..2,
            cadence in 1u32..5,
        ) {
            let s = if attack == 1 {
                replay_session(seed)
            } else {
                genuine_session(seed)
            };
            let base = stream_to_verdict(&s, 9600, StreamConfig::default());
            let with_reverify = stream_to_verdict(
                &s,
                9600,
                StreamConfig { reverify_every_chunks: cadence, ..StreamConfig::default() },
            );
            prop_assert_eq!(base.0.decision, with_reverify.0.decision);
            prop_assert_eq!(base.1, with_reverify.1, "same early/complete shape");
        }
    }
}

//! Client–server deployment (§V of the paper).
//!
//! The paper's prototype splits into an Android client that captures
//! sensor data and a Tornado server backend that runs the verification
//! pipeline over a secure socket. This module reproduces that
//! decomposition in-process: [`protocol`] defines the binary wire format
//! (tagged, versioned frames with length-prefixed vectors and strings,
//! written and read with the same `magshield_ml::codec` primitives as the
//! model artifacts, bulk for sample vectors; a frame must decode
//! exactly, with no bytes left over), and [`VerificationServer`] runs
//! every frame on its worker pool (`pool`), the only way work enters
//! it. A client frame waits in one bounded FIFO beside its
//! `std::sync::mpsc` reply sender (a client blocks while 256 frames
//! wait), then a pool thread decodes, handles and answers it under the
//! pool's one `catch_unwind`. Shutdown drains: every admitted frame is
//! answered, and later frames see [`ClientError::Disconnected`] and
//! count once in `batch.shed{policy,shed_reason="shutdown"}`.
//!
//! Protocol v3 added batch frames that carried many sessions in one
//! frame to one worker. They are retired (tags 6 and 7 decode as
//! `BadType`): [`Client::submit`] / [`PendingVerdict::wait`] pipeline
//! single verify requests across the whole pool instead, one request
//! per session.
//!
//! Protocol v4 adds the model-lifecycle operations of the
//! training/serving split: `Message::Enroll` enrolls a new speaker into
//! the server's live [`ModelRegistry`](crate::registry::ModelRegistry)
//! without a restart, and `Message::SwapBundle` atomically replaces the
//! whole served [`ModelBundle`] —
//! in-flight verifications finish on the snapshot they pinned, and every
//! verdict returns the registry generation that produced it.
//!
//! The server is instrumented against `magshield-obs` (DESIGN.md §9):
//! its pool reports `server.queue.wait.seconds` (enqueue→pickup) and
//! `server.compute.seconds` (per verification) histograms, the
//! `server.queue.depth` gauge (the queue length, set under the queue's
//! lock) and `server.inflight` gauge (frames being served, counted
//! around each frame, panics included), the `server.worker.panics`
//! counter and the `batch.verdicts{policy}` /
//! `batch.shed{policy,shed_reason}` counters; the server adds per-worker
//! `server.worker.<i>.processed` counters and a `server.protocol.errors`
//! counter, all sharing the [`DefenseSystem`]'s registry so one snapshot
//! covers pipeline and server alike.
//!
//! Protocol v5 adds the telemetry plane (DESIGN.md §12):
//! [`Client::metrics`] scrapes the full labeled snapshot — every
//! counter/gauge/histogram series with exemplars — plus its text
//! exposition (`Message::MetricsRequest`), and [`Client::health`]
//! fetches the verdict of an in-server [`SloEngine`] evaluating
//! declarative [`SloSpec`]s by multi-window burn rate, with a built-in
//! guard on `server.worker.panics` (`Message::HealthRequest`).
//!
//! Protocol v6 adds streaming continuous verification (DESIGN.md §13):
//! [`Client::open_stream`] opens a server-side
//! [`StreamingVerification`] keyed by a client-chosen stream id,
//! [`ClientStream::send_chunk`] feeds capture chunks — the loudspeaker
//! detector's provably monotone bound can settle the session
//! mid-stream with a `StreamVerdictKind::EarlyReject` reply long before
//! the utterance ends — and [`ClientStream::close`]
//! finalizes the genuine path with a verdict decision-identical to a
//! one-shot verification of the same samples. Open-stream count and
//! accumulated samples are capped ([`ServerConfig::max_open_streams`],
//! [`ServerConfig::max_stream_samples`]); unknown ids, duplicate opens,
//! a non-zero [`StreamConfig::reverify_every_chunks`] and chunks after a
//! terminal verdict are protocol errors. First-chunk → terminal-verdict
//! latency feeds the
//! `server.stream.first_verdict.seconds` histogram, guarded by the
//! `stream-verdict-latency` SLO in
//! [`VerificationServer::default_slos`].

mod pool;
pub mod protocol;

use crate::artifact::ModelBundle;
use crate::cascade::ExecutionPolicy;
use crate::pipeline::DefenseSystem;
use crate::session::SessionData;
use crate::store::StoreError;
use crate::stream::{
    SessionChunk, StreamConfig, StreamEvent, StreamOpenInfo, StreamingVerification,
};
use crate::verdict::DefenseVerdict;
use magshield_ml::codec::BinaryCodec;
use magshield_obs::export::render_text;
use magshield_obs::labels::Labels;
use magshield_obs::metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use magshield_obs::slo::{HealthReport, SloEngine, SloSpec, PANIC_COUNTER};
use magshield_obs::sync::lock;
use pool::{FrameQueue, Pool};
use protocol::{decode_frame, encode_response, Message, StreamVerdictKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A frame that makes the receiving worker panic mid-job. Exists so
/// failure-injection tests can prove the panic path cannot leak the
/// queue-depth gauge or kill the pool; it can never collide with a real
/// frame (wrong magic).
#[doc(hidden)]
pub const PANIC_FRAME: &[u8] = b"\xDE\xAD\xBE\xEFpanic-injection";

/// Server sizing and policy, consumed by
/// [`VerificationServer::spawn_with_config`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads sharing the trained system.
    pub workers: usize,
    /// Cascade execution policy for the whole pool.
    pub policy: ExecutionPolicy,
    /// Most concurrently open verification streams (protocol v6); a
    /// `StreamOpen` past the cap is refused with a protocol error, so a
    /// hostile client cannot grow server memory one open frame at a
    /// time.
    pub max_open_streams: usize,
    /// Most accumulated samples one stream may hold, counted over every
    /// stored channel ([`StreamingVerification::stored_samples`]); a
    /// chunk that would exceed it terminates the stream with a protocol
    /// error. Bounds per-stream memory against endless hostile chunking.
    pub max_stream_samples: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            policy: ExecutionPolicy::FullEvaluation,
            max_open_streams: 1024,
            // ~5.8 minutes of 48 kHz audio — far beyond any
            // authentication utterance, tight enough to bound memory.
            max_stream_samples: 16 << 20,
        }
    }
}

/// One server-side verification stream. The outer map lock is held only
/// to look up / insert / remove entries; the per-stream lock serializes
/// chunk ingestion for that stream while other streams (and verify
/// traffic) proceed in parallel on other workers. `None` marks a stream
/// whose terminal verdict is being produced by another worker.
type StreamSlot = Arc<Mutex<Option<StreamingVerification>>>;

/// State shared between the pool's workers and the server handle.
struct Shared {
    cfg: ServerConfig,
    /// The trained system every worker serves; its registry holds every
    /// server metric.
    system: DefenseSystem,
    /// Enqueue → pickup (`server.queue.wait.seconds`).
    queue_wait: Histogram,
    /// Frames being served (`server.inflight`).
    inflight: Gauge,
    /// Panics the pool contained (`server.worker.panics`).
    panics: Counter,
    /// One sample per chunk or verification (`server.compute.seconds`).
    compute: Histogram,
    /// `batch.verdicts{policy}`.
    verdicts: Counter,
    worker_processed: Vec<Counter>,
    /// Frames refused at the protocol layer (`server.protocol.errors`).
    protocol_errors: Counter,
    /// Open verification streams keyed by client-chosen stream id
    /// (protocol v6).
    streams: Mutex<HashMap<u64, StreamSlot>>,
    /// Gauge mirror of `streams.len()`.
    streams_open: Gauge,
    /// First chunk → terminal verdict latency, the streaming SLO's
    /// source series.
    stream_first_verdict: Histogram,
    /// The SLO burn-rate engine, evaluated on demand by health
    /// requests against the live registry snapshot.
    slo: Mutex<SloEngine>,
    /// Spawn instant — the monotonic time base the SLO engine's burn
    /// windows are anchored to.
    started: Instant,
}

/// A running verification server: wire frames served on its own worker
/// pool.
pub struct VerificationServer {
    pool: Pool,
    shared: Arc<Shared>,
}

impl VerificationServer {
    /// Spawns the server with `workers` threads sharing `system`, under
    /// [`ExecutionPolicy::FullEvaluation`] (every stage always runs).
    ///
    /// Server metrics are registered in `system`'s own registry, so
    /// [`VerificationServer::metrics`] exposes pipeline stage histograms
    /// and server queue/compute histograms side by side.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn spawn(system: DefenseSystem, workers: usize) -> Self {
        Self::spawn_with_policy(system, workers, ExecutionPolicy::FullEvaluation)
    }

    /// Recover-then-serve: opens the durable store at `dir`
    /// ([`DefenseSystem::open_durable`] — golden base + bit-exact WAL
    /// replay, truncating a torn tail), then spawns the worker pool on
    /// the recovered system. Returns the server together with the
    /// [`RecoveredState`](crate::store::RecoveredState) so operators can
    /// log what replay did. `Enroll` / `SwapBundle` requests against this
    /// server are journaled before they are acked.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn spawn_durable(
        dir: &std::path::Path,
        workers: usize,
    ) -> Result<(Self, crate::store::RecoveredState), crate::store::StoreError> {
        let (system, recovered) = DefenseSystem::open_durable(dir)?;
        Ok((Self::spawn(system, workers), recovered))
    }

    /// Spawns the server with an explicit cascade execution policy,
    /// selected once at spawn time for the whole worker pool.
    /// [`ExecutionPolicy::ShortCircuit`] spares the ASV back end sessions
    /// an earlier (cheaper) stage already condemned; clients then see
    /// verdicts whose skipped stages round-trip over the wire as
    /// [`StageOutcome::Skipped`](crate::verdict::StageOutcome) entries.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn spawn_with_policy(
        system: DefenseSystem,
        workers: usize,
        policy: ExecutionPolicy,
    ) -> Self {
        Self::spawn_with_config(
            system,
            ServerConfig {
                workers,
                policy,
                ..ServerConfig::default()
            },
        )
    }

    /// Spawns the server under a full [`ServerConfig`] (worker count,
    /// execution policy, stream caps), guarding health with
    /// [`VerificationServer::default_slos`].
    ///
    /// The pool admits frames under backpressure: a client blocks while
    /// the queue is full, and no frame is refused before shutdown.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers == 0`.
    pub fn spawn_with_config(system: DefenseSystem, cfg: ServerConfig) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        let registry = system.metrics();
        let shared = Arc::new(Shared {
            cfg,
            queue_wait: registry.histogram("server.queue.wait.seconds"),
            inflight: registry.gauge("server.inflight"),
            panics: registry.counter(PANIC_COUNTER),
            compute: registry.histogram("server.compute.seconds"),
            verdicts: registry
                .counter_with("batch.verdicts", &Labels::new().policy(cfg.policy.name())),
            worker_processed: (0..cfg.workers)
                .map(|i| registry.counter(&format!("server.worker.{i}.processed")))
                .collect(),
            protocol_errors: registry.counter("server.protocol.errors"),
            streams: Mutex::new(HashMap::new()),
            streams_open: registry.gauge("server.stream.open"),
            stream_first_verdict: registry.histogram("server.stream.first_verdict.seconds"),
            slo: Mutex::new(SloEngine::new(Self::default_slos())),
            started: Instant::now(),
            system,
        });
        let pool = Pool::spawn(&shared);
        Self { pool, shared }
    }

    /// The SLO objectives every server evaluates: 99% of end-to-end
    /// verifications within 500 ms, and 99% of streaming sessions
    /// reaching a terminal verdict within 500 ms of server compute after
    /// their first chunk. The SLO engine's built-in worker-panic guard
    /// applies besides.
    pub fn default_slos() -> Vec<SloSpec> {
        vec![
            SloSpec::latency("verify-latency", "pipeline.session.seconds", 0.5, 0.99),
            SloSpec::latency(
                "stream-verdict-latency",
                "server.stream.first_verdict.seconds",
                0.5,
                0.99,
            ),
        ]
    }

    /// A client handle for submitting sessions.
    pub fn client(&self) -> Client {
        Client {
            queue: Arc::clone(self.pool.queue()),
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The metrics registry (shared with the [`DefenseSystem`], so it
    /// also carries the `pipeline.stage.seconds{stage,policy}` histograms).
    pub fn metrics(&self) -> &Registry {
        self.shared.system.metrics()
    }

    /// Evaluates the SLO engine against the live registry in-process
    /// (the wire path is [`Client::health`]). Each call advances the
    /// engine's burn-window state.
    pub fn health(&self) -> HealthReport {
        let snap = self.metrics().snapshot();
        let now_s = self.shared.started.elapsed().as_secs_f64();
        lock(&self.shared.slo).observe(now_s, &snap)
    }

    /// Graceful shutdown: stops admission, answers every frame already
    /// queued, and joins the pool. Later requests see
    /// [`ClientError::Disconnected`].
    pub fn shutdown(self) {
        drop(self.pool);
    }
}

/// Decodes and executes one frame on pool thread `worker`, returning the
/// reply frame. Runs inside the pool's `catch_unwind`, so a panic
/// anywhere in here is contained to the frame.
fn serve_frame(frame: &[u8], shared: &Shared, worker: usize) -> Vec<u8> {
    if frame == PANIC_FRAME {
        panic!("injected worker panic");
    }
    let (system, cfg) = (&shared.system, &shared.cfg);
    match decode_frame(frame) {
        Ok(Message::VerifyRequest {
            request_id,
            session,
        }) => {
            let start = Instant::now();
            let verdict = system.verify_with_policy(&session, cfg.policy);
            shared.record_verdict(worker, start.elapsed());
            encode_response(request_id, &verdict)
        }
        Ok(Message::MetricsRequest { request_id }) => {
            // The scrape drains each exemplar window after copying it, so
            // every scrape reports the slowest sessions since the last
            // one (DESIGN.md §12).
            let snap = system.metrics().scrape();
            let exposition = render_text(&snap);
            protocol::encode_metrics_response(request_id, &snap, &exposition)
        }
        Ok(Message::HealthRequest { request_id }) => {
            let snap = system.metrics().snapshot();
            let now_s = shared.started.elapsed().as_secs_f64();
            let report = lock(&shared.slo).observe(now_s, &snap);
            protocol::encode_health_response(request_id, &report)
        }
        Ok(Message::Enroll {
            request_id,
            speaker_id,
            utterances,
        }) => {
            // Reject degenerate enrollments before touching the registry:
            // an empty enrollment would publish a generation serving a
            // model trained on nothing.
            if utterances.is_empty() || utterances.iter().any(|u| u.is_empty()) {
                shared.protocol_errors.inc();
                return protocol::encode_error(
                    request_id,
                    "enrollment needs at least one utterance, all non-empty",
                );
            }
            let refs: Vec<&[f64]> = utterances.iter().map(|u| u.as_slice()).collect();
            // Journaled when the system has a durable store attached
            // (Server::spawn_durable): the record is fsynced to the WAL
            // before the registry publishes, so an acked enrollment
            // survives a crash.
            match system.try_enroll_speaker(speaker_id, &refs) {
                Ok(generation) => {
                    protocol::encode_enroll_response(request_id, speaker_id, generation)
                }
                Err(e) => {
                    shared.protocol_errors.inc();
                    let message = match e {
                        StoreError::Enroll(_) => e.to_string(),
                        _ => format!("enrollment not journaled: {e}"),
                    };
                    protocol::encode_error(request_id, &message)
                }
            }
        }
        Ok(Message::SwapBundle {
            request_id,
            bundle_bytes,
        }) => match ModelBundle::from_bytes(&bundle_bytes) {
            Ok(bundle) => match system.try_swap_bundle(bundle) {
                Ok(generation) => protocol::encode_swap_bundle_response(request_id, generation),
                Err(e) => {
                    shared.protocol_errors.inc();
                    protocol::encode_error(request_id, &format!("bundle rejected: {e}"))
                }
            },
            Err(e) => {
                shared.protocol_errors.inc();
                protocol::encode_error(request_id, &format!("bundle decode error: {e}"))
            }
        },
        Ok(Message::StreamOpen {
            request_id,
            stream_id,
            info,
            stream,
        }) => {
            // A re-verification pass runs the whole cascade over every
            // sample received so far, so a client-chosen cadence would
            // buy O(n²) stage work per stream of n chunks.
            if stream.reverify_every_chunks != 0 {
                shared.protocol_errors.inc();
                return protocol::encode_error(
                    request_id,
                    "the server does not run client-requested re-verification",
                );
            }
            let mut streams = lock(&shared.streams);
            if streams.len() >= cfg.max_open_streams {
                drop(streams);
                shared.protocol_errors.inc();
                return protocol::encode_error(
                    request_id,
                    &format!("too many open streams (cap {})", cfg.max_open_streams),
                );
            }
            if streams.contains_key(&stream_id) {
                drop(streams);
                shared.protocol_errors.inc();
                return protocol::encode_error(
                    request_id,
                    &format!("stream {stream_id} already open"),
                );
            }
            let verification = system.open_stream(&info, stream);
            streams.insert(stream_id, Arc::new(Mutex::new(Some(verification))));
            shared.streams_open.set(streams.len() as i64);
            drop(streams);
            protocol::encode_stream_verdict(
                request_id,
                stream_id,
                StreamVerdictKind::Pending,
                0,
                None,
            )
        }
        Ok(Message::StreamChunk {
            request_id,
            stream_id,
            chunk,
        }) => {
            // Clone the slot Arc under the map lock, then ingest under
            // the per-stream lock only: chunks of the same stream
            // serialize (a stream is a stateful pipeline), while other
            // streams and verify traffic proceed on other workers.
            let Some(slot) = lock(&shared.streams).get(&stream_id).cloned() else {
                shared.protocol_errors.inc();
                return protocol::encode_error(
                    request_id,
                    &format!("unknown stream id {stream_id}"),
                );
            };
            let start = Instant::now();
            let mut guard = lock(&slot);
            let Some(verification) = guard.as_mut() else {
                shared.protocol_errors.inc();
                return protocol::encode_error(
                    request_id,
                    &format!("stream {stream_id} already terminated"),
                );
            };
            let ingested = chunk.audio.len()
                + chunk.audio2.len()
                + chunk.mag.len()
                + chunk.accel.len()
                + chunk.gyro.len();
            if verification.stored_samples() + ingested > cfg.max_stream_samples {
                // Kill, don't just refuse: a client that hit the budget
                // is either hostile or broken, and keeping the state
                // around would let it retry forever.
                *guard = None;
                drop(guard);
                remove_stream(shared, stream_id);
                shared.protocol_errors.inc();
                return protocol::encode_error(
                    request_id,
                    &format!(
                        "stream {stream_id} exceeded the accumulated sample budget ({})",
                        cfg.max_stream_samples
                    ),
                );
            }
            match verification.ingest(&chunk, &system.config, system.obs()) {
                Ok(StreamEvent::Progress(progress)) => {
                    shared.compute.record(start.elapsed());
                    protocol::encode_stream_verdict(
                        request_id,
                        stream_id,
                        StreamVerdictKind::Pending,
                        progress.chunks,
                        None,
                    )
                }
                // With no re-verification cadence (refused at open),
                // the only mid-stream verdict is the early reject.
                Ok(StreamEvent::EarlyReject(verdict) | StreamEvent::ReverifyReject(verdict)) => {
                    let (chunks, age) = (verification.chunks(), verification.age());
                    *guard = None;
                    drop(guard);
                    finish_stream(shared, worker, stream_id, age, start.elapsed());
                    protocol::encode_stream_verdict(
                        request_id,
                        stream_id,
                        StreamVerdictKind::EarlyReject,
                        chunks,
                        Some(&verdict),
                    )
                }
                Err(_) => {
                    // Unreachable in practice — terminated streams leave
                    // the table — but a hostile interleaving race still
                    // gets a clean protocol error, not a panic.
                    shared.protocol_errors.inc();
                    protocol::encode_error(
                        request_id,
                        &format!("stream {stream_id} already terminated"),
                    )
                }
            }
        }
        Ok(Message::StreamClose {
            request_id,
            stream_id,
        }) => {
            let Some(slot) = lock(&shared.streams).get(&stream_id).cloned() else {
                shared.protocol_errors.inc();
                return protocol::encode_error(
                    request_id,
                    &format!("unknown stream id {stream_id}"),
                );
            };
            let start = Instant::now();
            let Some(verification) = lock(&slot).take() else {
                shared.protocol_errors.inc();
                return protocol::encode_error(
                    request_id,
                    &format!("stream {stream_id} already terminated"),
                );
            };
            let (chunks, age) = (verification.chunks(), verification.age());
            match verification.finalize(&system.config, system.obs()) {
                Ok(verdict) => {
                    finish_stream(shared, worker, stream_id, age, start.elapsed());
                    protocol::encode_stream_verdict(
                        request_id,
                        stream_id,
                        StreamVerdictKind::Final,
                        chunks,
                        Some(&verdict),
                    )
                }
                Err(_) => {
                    shared.protocol_errors.inc();
                    protocol::encode_error(
                        request_id,
                        &format!("stream {stream_id} already terminated"),
                    )
                }
            }
        }
        Ok(other) => {
            shared.protocol_errors.inc();
            protocol::encode_error(other.request_id(), "unexpected message type")
        }
        Err(e) => {
            shared.protocol_errors.inc();
            protocol::encode_error(0, &format!("decode error: {e}"))
        }
    }
}

/// Drops a stream's table entry and re-mirrors the open-streams gauge.
fn remove_stream(shared: &Shared, stream_id: u64) {
    let mut streams = lock(&shared.streams);
    streams.remove(&stream_id);
    shared.streams_open.set(streams.len() as i64);
}

/// Terminal-verdict bookkeeping shared by early-reject, re-verify
/// reject and close: the stream leaves the table, its first-chunk →
/// verdict age feeds the streaming SLO series, and the finishing chunk's
/// compute counts toward the worker like any one-shot verification.
fn finish_stream(shared: &Shared, worker: usize, stream_id: u64, age: Duration, elapsed: Duration) {
    remove_stream(shared, stream_id);
    shared.stream_first_verdict.record(age);
    shared.record_verdict(worker, elapsed);
}

impl Shared {
    /// One verdict reached by `worker` after `compute`: one compute
    /// sample, one count in `batch.verdicts` and in the worker's
    /// `processed` counter.
    fn record_verdict(&self, worker: usize, compute: Duration) {
        self.compute.record(compute);
        self.verdicts.inc();
        self.worker_processed[worker].inc();
    }
}

/// A client handle (cheaply cloneable).
#[derive(Clone)]
pub struct Client {
    queue: Arc<FrameQueue>,
    next_id: Arc<AtomicU64>,
}

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Server is gone.
    Disconnected,
    /// Server replied with a protocol-level error.
    Server(String),
    /// Reply could not be decoded.
    BadReply(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Disconnected => write!(f, "server disconnected"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::BadReply(m) => write!(f, "bad reply: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl Client {
    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Sends a session for verification and waits for the verdict,
    /// exercising the full encode → wire → decode path.
    pub fn verify(&self, session: &SessionData) -> Result<DefenseVerdict, ClientError> {
        self.submit(session)?.wait()
    }

    /// Submits a session without waiting. Submit many, then drain the
    /// [`PendingVerdict`]s — requests pipeline across the worker pool
    /// instead of serializing on one round trip each.
    pub fn submit(&self, session: &SessionData) -> Result<PendingVerdict, ClientError> {
        let id = self.next_id();
        let rx = self.send_frame(protocol::encode_request(id, session))?;
        Ok(PendingVerdict { id, rx })
    }

    /// Enrolls a new speaker online (`Message::Enroll`, protocol v4):
    /// the server trains a speaker model from the utterances against its
    /// current UBM and publishes it to the live registry — no restart.
    /// Returns the registry generation the enrollment published; verdicts
    /// stamped with that generation (or later) can claim the speaker.
    pub fn enroll(&self, speaker_id: u32, utterances: &[Vec<f64>]) -> Result<u64, ClientError> {
        let id = self.next_id();
        let raw = self.send_raw(protocol::encode_enroll(id, speaker_id, utterances))?;
        match decode_frame(&raw) {
            Ok(Message::EnrollResponse {
                request_id,
                speaker_id: echoed,
                generation,
            }) => {
                if request_id != id {
                    return Err(ClientError::BadReply(format!(
                        "response id {request_id} != request id {id}"
                    )));
                }
                if echoed != speaker_id {
                    return Err(ClientError::BadReply(format!(
                        "enrolled speaker {echoed} != requested {speaker_id}"
                    )));
                }
                Ok(generation)
            }
            Ok(Message::Error { message, .. }) => Err(ClientError::Server(message)),
            Ok(_) => Err(ClientError::BadReply("unexpected message type".into())),
            Err(e) => Err(ClientError::BadReply(e.to_string())),
        }
    }

    /// Atomically replaces the server's whole model bundle
    /// (`Message::SwapBundle`, protocol v4). The bundle travels in its
    /// own checksummed encoding and is revalidated server-side; in-flight
    /// verifications finish on the snapshot they pinned. Returns the new
    /// registry generation.
    pub fn swap_bundle(&self, bundle: &ModelBundle) -> Result<u64, ClientError> {
        let id = self.next_id();
        let raw = self.send_raw(protocol::encode_swap_bundle(id, &bundle.to_bytes()))?;
        match decode_frame(&raw) {
            Ok(Message::SwapBundleResponse {
                request_id,
                generation,
            }) => {
                if request_id != id {
                    return Err(ClientError::BadReply(format!(
                        "response id {request_id} != request id {id}"
                    )));
                }
                Ok(generation)
            }
            Ok(Message::Error { message, .. }) => Err(ClientError::Server(message)),
            Ok(_) => Err(ClientError::BadReply("unexpected message type".into())),
            Err(e) => Err(ClientError::BadReply(e.to_string())),
        }
    }

    /// Scrapes the full labeled-metrics snapshot over the wire
    /// (`Message::MetricsRequest` → `Message::MetricsResponse`,
    /// protocol v5): every series — labeled keys included, with each
    /// histogram's exemplars since the previous scrape — plus the text
    /// exposition of the same snapshot. The scrape drains the server's
    /// exemplar windows; counts are never drained.
    pub fn metrics(&self) -> Result<(MetricsSnapshot, String), ClientError> {
        let id = self.next_id();
        let raw = self.send_raw(protocol::encode_metrics_request(id))?;
        match decode_frame(&raw) {
            Ok(Message::MetricsResponse {
                request_id,
                snapshot,
                exposition,
            }) => {
                if request_id != id {
                    return Err(ClientError::BadReply(format!(
                        "response id {request_id} != request id {id}"
                    )));
                }
                Ok((snapshot, exposition))
            }
            Ok(Message::Error { message, .. }) => Err(ClientError::Server(message)),
            Ok(_) => Err(ClientError::BadReply("unexpected message type".into())),
            Err(e) => Err(ClientError::BadReply(e.to_string())),
        }
    }

    /// Fetches the SLO engine's health verdict over the wire
    /// (`Message::HealthRequest` → `Message::HealthResponse`, protocol
    /// v5). Each request advances the server engine's burn-window
    /// state against a fresh registry snapshot.
    pub fn health(&self) -> Result<HealthReport, ClientError> {
        let id = self.next_id();
        let raw = self.send_raw(protocol::encode_health_request(id))?;
        match decode_frame(&raw) {
            Ok(Message::HealthResponse { request_id, report }) => {
                if request_id != id {
                    return Err(ClientError::BadReply(format!(
                        "response id {request_id} != request id {id}"
                    )));
                }
                Ok(report)
            }
            Ok(Message::Error { message, .. }) => Err(ClientError::Server(message)),
            Ok(_) => Err(ClientError::BadReply("unexpected message type".into())),
            Err(e) => Err(ClientError::BadReply(e.to_string())),
        }
    }

    /// Opens a continuous-verification stream (`Message::StreamOpen`,
    /// protocol v6). The returned [`ClientStream`] feeds capture chunks
    /// with [`ClientStream::send_chunk`] — each reply is either a
    /// `Pending` progress ack or a terminal mid-stream rejection — and
    /// settles the genuine path with [`ClientStream::close`]. Stream ids
    /// are process-unique, so concurrently cloned clients never collide.
    pub fn open_stream(
        &self,
        info: &StreamOpenInfo,
        stream: StreamConfig,
    ) -> Result<ClientStream, ClientError> {
        let id = self.next_id();
        let stream_id = NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed);
        let raw = self.send_raw(protocol::encode_stream_open(id, stream_id, info, stream))?;
        match decode_frame(&raw) {
            Ok(Message::StreamVerdict {
                request_id,
                stream_id: echoed,
                kind: StreamVerdictKind::Pending,
                ..
            }) => {
                if request_id != id {
                    return Err(ClientError::BadReply(format!(
                        "response id {request_id} != request id {id}"
                    )));
                }
                if echoed != stream_id {
                    return Err(ClientError::BadReply(format!(
                        "opened stream {echoed} != requested {stream_id}"
                    )));
                }
                Ok(ClientStream {
                    client: self.clone(),
                    stream_id,
                })
            }
            Ok(Message::Error { message, .. }) => Err(ClientError::Server(message)),
            Ok(_) => Err(ClientError::BadReply("unexpected message type".into())),
            Err(e) => Err(ClientError::BadReply(e.to_string())),
        }
    }

    /// Sends a raw frame (tests use this for failure injection).
    pub fn send_raw(&self, frame: Vec<u8>) -> Result<Vec<u8>, ClientError> {
        self.send_frame(frame)?
            .recv()
            .map_err(|_| ClientError::Disconnected)
    }

    /// Queues a frame on the server's pool and returns the reply
    /// channel without waiting for the reply (blocks while the queue is
    /// full).
    fn send_frame(&self, frame: Vec<u8>) -> Result<Receiver<Vec<u8>>, ClientError> {
        self.queue.submit(frame)
    }
}

/// Process-wide stream-id source: client-chosen ids must be unique
/// across every client handle talking to the same in-process server.
static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(1);

/// A server-side continuous-verification stream, opened with
/// [`Client::open_stream`] (protocol v6).
pub struct ClientStream {
    client: Client,
    stream_id: u64,
}

impl ClientStream {
    /// The wire stream id (useful for correlating server logs).
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// Feeds one capture chunk and waits for the server's incremental
    /// answer: `(Pending, None)` while the cascade keeps listening, or a
    /// terminal `(EarlyReject | ReverifyReject, Some(verdict))` when a
    /// monotone bound (or re-verification pass) settled mid-stream. A
    /// terminal reply retires the server-side stream — further chunks
    /// come back as protocol errors.
    pub fn send_chunk(
        &self,
        chunk: &SessionChunk,
    ) -> Result<(StreamVerdictKind, Option<DefenseVerdict>), ClientError> {
        let id = self.client.next_id();
        let raw = self
            .client
            .send_raw(protocol::encode_stream_chunk(id, self.stream_id, chunk))?;
        self.expect_verdict(id, raw)
    }

    /// Ends the utterance: the server finalizes every stage on the
    /// accumulated capture and replies with the full-cascade verdict —
    /// decision-identical to a one-shot verification of the same
    /// samples.
    pub fn close(self) -> Result<DefenseVerdict, ClientError> {
        let id = self.client.next_id();
        let raw = self
            .client
            .send_raw(protocol::encode_stream_close(id, self.stream_id))?;
        match self.expect_verdict(id, raw)? {
            (StreamVerdictKind::Final, Some(verdict)) => Ok(verdict),
            (kind, _) => Err(ClientError::BadReply(format!(
                "close replied with {kind:?} instead of a final verdict"
            ))),
        }
    }

    fn expect_verdict(
        &self,
        id: u64,
        raw: Vec<u8>,
    ) -> Result<(StreamVerdictKind, Option<DefenseVerdict>), ClientError> {
        match decode_frame(&raw) {
            Ok(Message::StreamVerdict {
                request_id,
                stream_id,
                kind,
                verdict,
                ..
            }) => {
                if request_id != id {
                    return Err(ClientError::BadReply(format!(
                        "response id {request_id} != request id {id}"
                    )));
                }
                if stream_id != self.stream_id {
                    return Err(ClientError::BadReply(format!(
                        "reply for stream {stream_id} != stream {}",
                        self.stream_id
                    )));
                }
                Ok((kind, verdict))
            }
            Ok(Message::Error { message, .. }) => Err(ClientError::Server(message)),
            Ok(_) => Err(ClientError::BadReply("unexpected message type".into())),
            Err(e) => Err(ClientError::BadReply(e.to_string())),
        }
    }
}

/// A submitted-but-unresolved verification: the handle returned by
/// [`Client::submit`]. [`PendingVerdict::wait`] blocks for the verdict.
pub struct PendingVerdict {
    id: u64,
    rx: Receiver<Vec<u8>>,
}

impl PendingVerdict {
    /// Blocks until the server replies, then decodes the verdict.
    pub fn wait(self) -> Result<DefenseVerdict, ClientError> {
        let raw = self.rx.recv().map_err(|_| ClientError::Disconnected)?;
        match decode_frame(&raw) {
            Ok(Message::VerifyResponse {
                request_id,
                verdict,
            }) => {
                if request_id != self.id {
                    return Err(ClientError::BadReply(format!(
                        "response id {request_id} != request id {}",
                        self.id
                    )));
                }
                Ok(verdict)
            }
            Ok(Message::Error { message, .. }) => Err(ClientError::Server(message)),
            Ok(_) => Err(ClientError::BadReply("unexpected message type".into())),
            Err(e) => Err(ClientError::BadReply(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use magshield_simkit::prop::prelude::*;
    use magshield_simkit::rng::SimRng;
    use magshield_simkit::vec3::Vec3;
    use std::sync::mpsc;

    /// Requests fully processed, summed over the per-worker counters.
    fn processed(srv: &VerificationServer) -> u64 {
        srv.metrics()
            .snapshot()
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("server.worker.") && k.ends_with(".processed"))
            .map(|(_, v)| v)
            .sum()
    }

    fn protocol_errors(srv: &VerificationServer) -> u64 {
        srv.metrics().counter("server.protocol.errors").get()
    }

    fn server() -> (VerificationServer, crate::scenario::UserContext) {
        let (system, user) = crate::test_support::shared_tiny_system();
        // Fresh obs: the fixture system is shared across the whole test
        // binary, so a plain clone would leak other tests' counts into
        // this server's histograms.
        (
            VerificationServer::spawn(system.with_fresh_obs(), 2),
            user.clone(),
        )
    }

    #[test]
    fn round_trip_verification() {
        let (srv, user) = server();
        let client = srv.client();
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(51));
        let verdict = client.verify(&session).expect("verdict");
        assert!(verdict.accepted());
        assert_eq!(processed(&srv), 1);
        srv.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let (srv, user) = server();
        let sessions: Vec<_> = (0..6)
            .map(|i| ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(60 + i)))
            .collect();
        let mut joins = Vec::new();
        for s in sessions {
            let c = srv.client();
            joins.push(std::thread::spawn(move || c.verify(&s).unwrap().accepted()));
        }
        for j in joins {
            assert!(j.join().unwrap());
        }
        assert_eq!(processed(&srv), 6);
        let snap = srv.metrics().snapshot();
        assert_eq!(snap.histograms["server.compute.seconds"].count, 6);
        assert_eq!(snap.histograms["server.queue.wait.seconds"].count, 6);
        assert!(snap.histograms["server.compute.seconds"].p50() > 0.0);
        assert_eq!(
            snap.gauges["server.queue.depth"], 0,
            "queue drains after replies"
        );
        let per_worker: Vec<u64> = (0..2)
            .map(|i| snap.counters[&format!("server.worker.{i}.processed")])
            .collect();
        assert_eq!(per_worker.iter().sum::<u64>(), 6);
        srv.shutdown();
    }

    #[test]
    fn short_circuit_policy_round_trips_skipped_stages() {
        use crate::verdict::Component;
        use magshield_voice::attacks::AttackKind;
        use magshield_voice::devices::table_iv_catalog;
        use magshield_voice::profile::SpeakerProfile;

        let (system, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn_with_policy(
            system.with_fresh_obs(),
            2,
            ExecutionPolicy::ShortCircuit,
        );
        let client = srv.client();
        let attacker = SpeakerProfile::sample(7, &SimRng::from_seed(1));
        let dev = table_iv_catalog()[0].clone();
        let session = ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev, attacker)
            .at_distance(0.05)
            .capture(&SimRng::from_seed(55));
        let verdict = client.verify(&session).expect("verdict");
        assert!(!verdict.accepted());
        // The expensive ASV stage was never run, and the wire protocol
        // preserved that fact end to end.
        let sk = verdict
            .skipped_of(Component::SpeakerIdentity)
            .expect("speaker_id short-circuited");
        assert_eq!(sk.cause, Component::Loudspeaker);
        let asv_skipped = magshield_obs::labels::Labels::new()
            .stage("speaker_id")
            .policy(ExecutionPolicy::ShortCircuit.name())
            .key_for("pipeline.stage.skipped");
        assert_eq!(srv.metrics().snapshot().counters[&asv_skipped], 1);
        // An accepted session on the same server runs every stage (the
        // acceptance guard keeps this robust to per-platform RNG drift in
        // the simulated capture).
        let genuine = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(56));
        let v2 = client.verify(&genuine).expect("verdict");
        if v2.accepted() {
            assert_eq!(v2.skipped().count(), 0);
        }
        srv.shutdown();
    }

    #[test]
    fn streaming_submit_then_drain() {
        let (system, user) = crate::test_support::shared_tiny_system();
        let sessions: Vec<_> = (0..5)
            .map(|i| ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(150 + i)))
            .collect();
        for policy in [
            ExecutionPolicy::FullEvaluation,
            ExecutionPolicy::ShortCircuit,
        ] {
            let srv = VerificationServer::spawn_with_policy(system.with_fresh_obs(), 2, policy);
            let client = srv.client();
            // Submit everything before waiting on anything: the requests
            // pipeline across both workers.
            let pending: Vec<_> = sessions
                .iter()
                .map(|s| client.submit(s).expect("submit"))
                .collect();
            for (p, s) in pending.into_iter().zip(&sessions) {
                // The default policy must match the traced local path.
                let expected = match policy {
                    ExecutionPolicy::FullEvaluation => system.verify(s),
                    _ => system.verify_with_policy(s, policy),
                };
                assert_eq!(
                    p.wait().expect("verdict"),
                    expected,
                    "pipelined wire verdict must be bit-identical to a sequential run ({policy:?})"
                );
            }
            assert_eq!(processed(&srv), 5);
            let snap = srv.metrics().snapshot();
            assert_eq!(snap.histograms["server.compute.seconds"].count, 5);
            assert_eq!(snap.counter_family_total("batch.verdicts"), 5);
            assert_eq!(snap.gauges["server.queue.depth"], 0);
            srv.shutdown();
        }
    }

    proptest! {
        // Each case runs the cascade over every session twice (wire +
        // sequential); keep the case count low, the fixture is shared.
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Wire verdicts are identical — decisions, scores, skip records —
        /// to sequential per-session verdicts, under both execution
        /// policies.
        #[test]
        fn wire_verdicts_match_sequential(
            seeds in prop::collection::vec(0u64..5000, 1..6),
            attack_mask in 0u32..64,
            short_circuit in 0u8..2,
        ) {
            let (system, user) = crate::test_support::shared_tiny_system();
            let policy = if short_circuit == 1 {
                ExecutionPolicy::ShortCircuit
            } else {
                ExecutionPolicy::FullEvaluation
            };
            let sessions: Vec<SessionData> = seeds
                .iter()
                .enumerate()
                .map(|(i, &seed)| {
                    if attack_mask & (1 << i) != 0 {
                        replay_session(user, seed)
                    } else {
                        ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(seed))
                    }
                })
                .collect();
            let srv = VerificationServer::spawn_with_policy(system.with_fresh_obs(), 2, policy);
            let client = srv.client();
            let pending: Vec<_> = sessions
                .iter()
                .map(|s| client.submit(s).expect("submit"))
                .collect();
            for (p, s) in pending.into_iter().zip(&sessions) {
                prop_assert_eq!(p.wait().expect("verdict"), system.verify_with_policy(s, policy));
            }
            srv.shutdown();
        }
    }

    #[test]
    fn retired_stats_tags_are_protocol_errors() {
        let (srv, _) = server();
        let client = srv.client();
        // Tags 4 and 5 carried the scalar stats view, 6 and 7 the batch
        // frames; all are now unknown message types, refused and counted
        // like any other.
        for tag in [4u8, 5, 6, 7] {
            let mut frame = protocol::encode_metrics_request(1);
            frame[3] = tag;
            let reply = decode_frame(&client.send_raw(frame).unwrap()).unwrap();
            let Message::Error { message, .. } = reply else {
                panic!("tag {tag} answered with {reply:?}");
            };
            assert!(
                message.contains(&format!("unknown message type {tag}")),
                "{message}"
            );
        }
        assert_eq!(protocol_errors(&srv), 4);
        srv.shutdown();
    }

    #[test]
    fn metrics_scrape_over_the_wire() {
        let (srv, user) = server();
        let client = srv.client();
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(57));
        client.verify(&session).expect("verdict");
        let (snap, exposition) = client.metrics().expect("metrics over the wire");
        assert!(snap.histograms.contains_key("server.compute.seconds"));
        let session_seconds = magshield_obs::labels::Labels::new()
            .policy(ServerConfig::default().policy.name())
            .key_for("pipeline.session.seconds");
        assert!(snap.histograms.contains_key(&session_seconds));
        assert!(snap.counters.keys().any(|k| k.starts_with("pipeline.")));
        assert!(exposition.starts_with("# magshield metrics v1"));
        assert!(exposition.contains("server.compute.seconds_count"));
        // A scrape drains only the exemplar windows: a second scrape
        // sees the same counts (no verifications in between).
        let (snap2, _) = client.metrics().expect("second scrape");
        assert_eq!(
            snap.histograms[&session_seconds].count,
            snap2.histograms[&session_seconds].count
        );
        srv.shutdown();
    }

    /// A wire scrape reports the slowest samples since the previous
    /// scrape, while health requests and in-process snapshots leave the
    /// exemplar window as it is.
    #[test]
    fn metrics_scrape_rotates_exemplar_windows() {
        let (srv, _) = server();
        let client = srv.client();
        let latency = srv.metrics().histogram("test.latency.seconds");
        for i in 0..8 {
            latency.record_secs_with_exemplar(0.010, &format!("slow-{i}"));
        }
        let first = |snap: &MetricsSnapshot| {
            let h = &snap.histograms["test.latency.seconds"];
            (h.exemplars.len(), h.exemplars[0].value_ns)
        };
        client.health().expect("health");
        assert_eq!(first(&srv.metrics().snapshot()), (8, 10_000_000));
        let (scraped, _) = client.metrics().expect("first scrape");
        assert_eq!(first(&scraped), (8, 10_000_000));
        latency.record_secs_with_exemplar(0.005, "fast");
        let (scraped, _) = client.metrics().expect("second scrape");
        let h = &scraped.histograms["test.latency.seconds"];
        assert_eq!(h.count, 9, "counts are not drained");
        assert_eq!(h.exemplars.len(), 1);
        assert_eq!(h.exemplars[0].trace_id, "fast");
        assert_eq!(h.exemplars[0].value_ns, 5_000_000);
        srv.shutdown();
    }

    #[test]
    fn health_over_the_wire_starts_healthy() {
        use magshield_obs::slo::HealthState;
        let (srv, user) = server();
        let client = srv.client();
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(58));
        client.verify(&session).expect("verdict");
        let report = client.health().expect("health over the wire");
        assert_eq!(report.state, HealthState::Healthy);
        assert!(
            report.statuses.iter().any(|s| s.name == "verify-latency"),
            "default SLOs must be evaluated: {report:?}"
        );
        assert_eq!(report, srv.health());
        srv.shutdown();
    }

    /// A default SLO whose source family nothing records stays blind
    /// yet reports `Healthy`: every one must see each served session or
    /// stream.
    #[test]
    fn every_default_slo_reads_a_series_the_server_records() {
        use crate::stream::chunk_session;
        let (srv, user) = server();
        let client = srv.client();
        const VERIFIES: u64 = 3;
        for seed in 0..VERIFIES {
            let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(590 + seed));
            client.verify(&session).expect("verdict");
        }
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(593));
        let handle = client
            .open_stream(
                &StreamOpenInfo::for_session(&session),
                StreamConfig::default(),
            )
            .expect("stream opens");
        for chunk in chunk_session(&session, 9600) {
            handle.send_chunk(&chunk).expect("chunk reply");
        }
        handle.close().expect("final verdict");
        let snap = srv.metrics().snapshot();
        // The finalized stream runs the cascade once more.
        let expected = |name: &str| match name {
            "verify-latency" => VERIFIES + 1,
            "stream-verdict-latency" => 1,
            other => panic!("default SLO {other} has no expected sample count"),
        };
        for spec in VerificationServer::default_slos() {
            assert_eq!(
                spec.totals(&snap).0,
                expected(&spec.name),
                "{} reads {:?}",
                spec.name,
                spec.source
            );
        }
        srv.shutdown();
    }

    #[test]
    fn server_metrics_include_pipeline_stages() {
        let (srv, user) = server();
        let client = srv.client();
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(54));
        client.verify(&session).expect("verdict");
        let snap = srv.metrics().snapshot();
        assert!(snap.histograms.contains_key("server.compute.seconds"));
        assert!(
            snap.histogram_family_merged("pipeline.stage.seconds").count >= 1,
            "server registry must carry pipeline stage histograms"
        );
        srv.shutdown();
    }

    #[test]
    fn malformed_frame_yields_protocol_error() {
        let (srv, _user) = server();
        let client = srv.client();
        let raw = client.send_raw(vec![1, 2, 3]).expect("reply");
        match decode_frame(&raw) {
            Ok(Message::Error { .. }) => {}
            other => panic!("expected protocol error, got {other:?}"),
        }
        assert_eq!(protocol_errors(&srv), 1);
        srv.shutdown();
    }

    /// A frame refused at shutdown is answered `Disconnected` and counted
    /// once, under the shutdown reason, in the shed family.
    #[test]
    fn shutdown_disconnects_clients() {
        let (srv, user) = server();
        let client = srv.client();
        let registry = srv.metrics().clone();
        srv.shutdown();
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(52));
        assert_eq!(client.verify(&session), Err(ClientError::Disconnected));
        let shutdown = magshield_obs::labels::Labels::new()
            .policy(ServerConfig::default().policy.name())
            .shed_reason("shutdown");
        assert_eq!(registry.counter_with("batch.shed", &shutdown).get(), 1);
        assert_eq!(registry.snapshot().counter_family_total("batch.shed"), 1);
    }

    /// Client threads keep submitting while shutdown runs at a varying
    /// point: each frame is either answered exactly once or refused as
    /// `Disconnected`, the shed family counts exactly the refusals, and
    /// the queue gauges end at zero.
    #[test]
    fn shutdown_under_contention_answers_or_refuses_every_frame() {
        use std::sync::atomic::AtomicUsize;
        const CLIENTS: usize = 4;
        const FRAMES: usize = 300;
        let (system, _) = crate::test_support::shared_tiny_system();
        for shutdown_after in [0, 10, 200, 600, CLIENTS * FRAMES] {
            let srv = VerificationServer::spawn(system.with_fresh_obs(), 2);
            let registry = srv.metrics().clone();
            let admitted = Arc::new(AtomicUsize::new(0));
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (client, admitted) = (srv.client(), Arc::clone(&admitted));
                    std::thread::spawn(move || {
                        let mut replies = Vec::new();
                        let mut refused = 0;
                        for _ in 0..FRAMES {
                            // Undecodable: answered with a protocol error.
                            match client.send_frame(vec![0xAB; 8]) {
                                Ok(rx) => {
                                    admitted.fetch_add(1, Ordering::Relaxed);
                                    replies.push(rx);
                                }
                                Err(e) => {
                                    assert_eq!(e, ClientError::Disconnected);
                                    refused += 1;
                                }
                            }
                        }
                        for rx in &replies {
                            rx.recv_timeout(Duration::from_secs(10))
                                .expect("an admitted frame is answered");
                            assert!(rx.try_recv().is_err(), "and answered once");
                        }
                        (replies.len(), refused)
                    })
                })
                .collect();
            while admitted.load(Ordering::Relaxed) < shutdown_after
                && !clients.iter().all(|c| c.is_finished())
            {
                std::thread::yield_now();
            }
            srv.shutdown();
            let (mut answered, mut refused) = (0, 0);
            for c in clients {
                let (a, r) = c.join().expect("client thread");
                answered += a;
                refused += r;
            }
            let snap = registry.snapshot();
            assert_eq!(answered + refused, CLIENTS * FRAMES);
            assert_eq!(
                snap.counters["server.protocol.errors"], answered as u64,
                "every admitted frame is served once (shutdown after {shutdown_after})"
            );
            assert_eq!(snap.counter_family_total("batch.shed"), refused as u64);
            assert_eq!(snap.gauges["server.queue.depth"], 0);
            assert_eq!(snap.gauges["server.inflight"], 0);
        }
    }

    #[test]
    fn shutdown_answers_every_queued_client() {
        let (system, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn(system.with_fresh_obs(), 1);
        let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(58));
        let (done_tx, done_rx) = mpsc::channel();
        // Keep the single worker busy with 32 pipelined requests ...
        let client = srv.client();
        let mut queued: Vec<_> = (0..32).map(|_| client.submit(&session).unwrap()).collect();
        let picked_up = srv.metrics().histogram("server.queue.wait.seconds");
        let waited = Instant::now();
        while picked_up.count() == 0 && waited.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ... and queue frames from other clients behind them.
        queued.extend((0..5).map(|_| srv.client().submit(&session).unwrap()));
        let depth = srv.metrics().gauge("server.queue.depth");
        assert!(depth.get() >= 5, "frames queued behind the busy worker");
        for pending in queued {
            let done = done_tx.clone();
            std::thread::spawn(move || done.send(pending.wait().map(|_| ())));
        }
        let processed = srv.metrics().counter("server.worker.0.processed");
        let srv_inflight = srv.metrics().gauge("server.inflight");
        srv.shutdown();
        let outcomes: Vec<_> = (0..32 + 5)
            .map(|_| {
                done_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("every client returns once the server is down")
            })
            .collect();
        assert!(
            outcomes.iter().all(|o| o.is_ok()),
            "every queued frame gets a verdict: {outcomes:?}"
        );
        assert_eq!(processed.get(), 32 + 5);
        assert_eq!(depth.get(), 0, "drained frames release the depth gauge");
        assert_eq!(srv_inflight.get(), 0, "and their in-flight claims");
    }

    /// A server over an isolated registry (fresh [`crate::registry::ModelRegistry`]
    /// serving the shared fixture's models), so enroll/swap tests cannot
    /// mutate the shared fixture other tests read.
    fn isolated_server() -> (VerificationServer, crate::scenario::UserContext) {
        use crate::artifact::BundleMeta;
        let (system, user) = crate::test_support::shared_tiny_system();
        let bundle = ModelBundle::from_snapshot(
            BundleMeta {
                producer: "server-tests".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: false,
                notes: String::new(),
            },
            &system.models(),
        );
        let system = DefenseSystem::from_bundle(bundle).unwrap();
        (VerificationServer::spawn(system, 2), user.clone())
    }

    #[test]
    fn online_enrollment_over_the_wire() {
        use crate::registry::ModelRegistry;
        use magshield_voice::profile::SpeakerProfile;
        use magshield_voice::synth::{FormantSynthesizer, SessionEffects};

        let (srv, user) = isolated_server();
        let client = srv.client();
        let speaker = SpeakerProfile::sample(4040, &SimRng::from_seed(500));
        let synth = FormantSynthesizer::default();
        let utt = synth.render_digits(
            &speaker,
            "271828",
            SessionEffects::neutral(),
            &SimRng::from_seed(501),
        );
        let generation = client.enroll(4040, &[utt]).expect("enrollment lands");
        assert_eq!(generation, ModelRegistry::FIRST_GENERATION + 1);
        // Verdicts served after the enrollment carry the new generation.
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(502));
        let verdict = client.verify(&session).expect("verdict");
        assert_eq!(verdict.generation, Some(generation));
        srv.shutdown();
    }

    #[test]
    fn empty_enrollment_is_rejected_before_the_registry() {
        let (srv, _user) = isolated_server();
        let client = srv.client();
        assert!(matches!(client.enroll(9, &[]), Err(ClientError::Server(_))));
        assert!(matches!(
            client.enroll(9, &[vec![0.5], vec![]]),
            Err(ClientError::Server(_))
        ));
        assert_eq!(protocol_errors(&srv), 2);
        srv.shutdown();
    }

    #[test]
    fn hot_swap_over_the_wire() {
        use crate::artifact::BundleMeta;
        use crate::registry::ModelRegistry;

        let (srv, user) = isolated_server();
        let client = srv.client();
        // Export the server's own serving state as the replacement
        // bundle — a hot-swap needs no retraining.
        let (system, _) = crate::test_support::shared_tiny_system();
        let bundle = ModelBundle::from_snapshot(
            BundleMeta {
                producer: "swap-test".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: false,
                notes: "second generation".to_string(),
            },
            &system.models(),
        );
        let generation = client.swap_bundle(&bundle).expect("swap lands");
        assert_eq!(generation, ModelRegistry::FIRST_GENERATION + 1);
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(503));
        let verdict = client.verify(&session).expect("verdict");
        assert_eq!(verdict.generation, Some(generation));
        srv.shutdown();
    }

    #[test]
    fn corrupt_swap_bundle_is_refused() {
        let (srv, _user) = isolated_server();
        let client = srv.client();
        let id = 99;
        let raw = client
            .send_raw(protocol::encode_swap_bundle(id, b"not a bundle"))
            .expect("reply");
        match decode_frame(&raw) {
            Ok(Message::Error { message, .. }) => {
                assert!(message.contains("decode error"), "got: {message}")
            }
            other => panic!("expected error reply, got {other:?}"),
        }
        assert_eq!(protocol_errors(&srv), 1);
        srv.shutdown();
    }

    /// A bundle that decodes but must not serve is refused over the
    /// wire, and the served generation stays where it was: an inverted
    /// ASV scale (`1 − (z − t)/scale` would reject the genuine speaker
    /// and pass impostors), and an ISV engine (kind byte 1 in `MENG`).
    #[test]
    fn unservable_swap_bundles_are_refused() {
        use crate::artifact::BundleMeta;
        use crate::registry::ModelRegistry;

        let (srv, user) = isolated_server();
        let client = srv.client();
        let (system, _) = crate::test_support::shared_tiny_system();
        let mut bundle = ModelBundle::from_snapshot(
            BundleMeta {
                producer: "swap-test".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: false,
                notes: String::new(),
            },
            &system.models(),
        );
        let isv = crate::artifact::tests::with_engine_kind(&bundle.to_bytes(), 1);
        bundle.config.asv_scale = -1.5;
        match client.swap_bundle(&bundle) {
            Err(ClientError::Server(message)) => {
                assert!(
                    message.contains("asv_scale must be positive"),
                    "got: {message}"
                )
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        let raw = client
            .send_raw(protocol::encode_swap_bundle(7, &isv))
            .expect("reply");
        match decode_frame(&raw) {
            Ok(Message::Error { message, .. }) => assert!(
                message.contains("ISV engines are no longer served"),
                "got: {message}"
            ),
            other => panic!("expected error reply, got {other:?}"),
        }
        assert_eq!(protocol_errors(&srv), 2);
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(504));
        let verdict = client.verify(&session).expect("verdict");
        assert_eq!(verdict.generation, Some(ModelRegistry::FIRST_GENERATION));
        srv.shutdown();
    }

    #[test]
    fn isv_provenance_swap_bundles_are_refused() {
        use crate::artifact::BundleMeta;
        use crate::registry::ModelRegistry;

        let (srv, user) = isolated_server();
        let client = srv.client();
        let (system, _) = crate::test_support::shared_tiny_system();
        let bundle = ModelBundle::from_snapshot(
            BundleMeta {
                producer: "swap-test".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: true,
                notes: String::new(),
            },
            &system.models(),
        );
        match client.swap_bundle(&bundle) {
            Err(ClientError::Server(message)) => {
                assert!(message.contains("use_isv is set"), "got: {message}")
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(protocol_errors(&srv), 1);
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(505));
        let verdict = client.verify(&session).expect("verdict");
        assert_eq!(verdict.generation, Some(ModelRegistry::FIRST_GENERATION));
        srv.shutdown();
    }

    fn replay_session(user: &crate::scenario::UserContext, seed: u64) -> SessionData {
        use magshield_voice::attacks::AttackKind;
        use magshield_voice::devices::table_iv_catalog;
        use magshield_voice::profile::SpeakerProfile;
        let attacker = SpeakerProfile::sample(7, &SimRng::from_seed(1));
        let dev = table_iv_catalog()[0].clone();
        ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev, attacker)
            .at_distance(0.05)
            .capture(&SimRng::from_seed(seed))
    }

    #[test]
    fn stream_over_the_wire_matches_one_shot() {
        use crate::stream::chunk_session;
        let (system, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn_with_config(
            system.with_fresh_obs(),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        );
        let client = srv.client();
        let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(570));
        let handle = client
            .open_stream(
                &StreamOpenInfo::for_session(&session),
                StreamConfig::default(),
            )
            .expect("stream opens");
        for chunk in chunk_session(&session, 9600) {
            let (kind, verdict) = handle.send_chunk(&chunk).expect("chunk reply");
            assert_eq!(kind, StreamVerdictKind::Pending);
            assert!(verdict.is_none());
        }
        let streamed = handle.close().expect("final verdict");
        let one_shot = system.verify_with_policy(&session, ServerConfig::default().policy);
        assert_eq!(streamed.accepted(), one_shot.accepted());
        assert_eq!(streamed.decision, one_shot.decision);
        assert_eq!(streamed.generation, one_shot.generation);
        // Terminal bookkeeping: the stream left the table, its age fed
        // the streaming-SLO series, and it counted as processed work.
        assert_eq!(srv.metrics().gauge("server.stream.open").get(), 0);
        let snap = srv.metrics().snapshot();
        assert_eq!(
            snap.histograms["server.stream.first_verdict.seconds"].count,
            1
        );
        assert_eq!(processed(&srv), 1);
        srv.shutdown();
    }

    #[test]
    fn stream_early_rejects_replay_then_refuses_chunks() {
        use crate::stream::chunk_session;
        let (system, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn_with_config(
            system.with_fresh_obs(),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        );
        let client = srv.client();
        let session = replay_session(user, 571);
        let chunks = chunk_session(&session, 4800);
        let handle = client
            .open_stream(
                &StreamOpenInfo::for_session(&session),
                StreamConfig::default(),
            )
            .expect("stream opens");
        let mut rejected_at = None;
        for (i, chunk) in chunks.iter().enumerate() {
            let (kind, verdict) = handle.send_chunk(chunk).expect("chunk reply");
            if kind == StreamVerdictKind::EarlyReject {
                assert!(!verdict.expect("terminal carries a verdict").accepted());
                rejected_at = Some(i);
                break;
            }
            assert_eq!(kind, StreamVerdictKind::Pending);
        }
        let at = rejected_at.expect("replay rejected mid-stream");
        assert!(
            at + 1 < chunks.len(),
            "early reject fired before the last chunk ({at} of {})",
            chunks.len()
        );
        // The terminal verdict retired the server-side stream: further
        // chunks are protocol errors, not silent re-verification.
        match handle.send_chunk(&chunks[at + 1]) {
            Err(ClientError::Server(m)) => assert!(m.contains("unknown stream id"), "got: {m}"),
            other => panic!("expected unknown-stream error, got {other:?}"),
        }
        assert_eq!(srv.metrics().gauge("server.stream.open").get(), 0);
        assert_eq!(protocol_errors(&srv), 1);
        srv.shutdown();
    }

    #[test]
    fn unknown_stream_ids_and_duplicate_opens_are_protocol_errors() {
        let (srv, user) = isolated_server();
        let client = srv.client();
        let session = ScenarioBuilder::genuine(&user).capture(&SimRng::from_seed(572));
        let info = StreamOpenInfo::for_session(&session);
        let chunk = SessionChunk {
            audio: vec![0.0; 64],
            ..SessionChunk::default()
        };
        // Chunk and close against an id nobody opened.
        for frame in [
            protocol::encode_stream_chunk(1, 9999, &chunk),
            protocol::encode_stream_close(2, 9999),
        ] {
            let raw = client.send_raw(frame).expect("reply");
            match decode_frame(&raw) {
                Ok(Message::Error { message, .. }) => {
                    assert!(message.contains("unknown stream id"), "got: {message}")
                }
                other => panic!("expected error reply, got {other:?}"),
            }
        }
        // Opening the same client-chosen id twice is refused; the first
        // open stays serviceable.
        let raw = client
            .send_raw(protocol::encode_stream_open(
                3,
                77,
                &info,
                StreamConfig::default(),
            ))
            .expect("reply");
        assert!(matches!(
            decode_frame(&raw),
            Ok(Message::StreamVerdict {
                kind: StreamVerdictKind::Pending,
                ..
            })
        ));
        let raw = client
            .send_raw(protocol::encode_stream_open(
                4,
                77,
                &info,
                StreamConfig::default(),
            ))
            .expect("reply");
        match decode_frame(&raw) {
            Ok(Message::Error { message, .. }) => {
                assert!(message.contains("already open"), "got: {message}")
            }
            other => panic!("expected error reply, got {other:?}"),
        }
        let raw = client
            .send_raw(protocol::encode_stream_chunk(5, 77, &chunk))
            .expect("reply");
        assert!(matches!(
            decode_frame(&raw),
            Ok(Message::StreamVerdict {
                kind: StreamVerdictKind::Pending,
                ..
            })
        ));
        assert_eq!(protocol_errors(&srv), 3);
        assert_eq!(srv.metrics().gauge("server.stream.open").get(), 1);
        srv.shutdown();
    }

    #[test]
    fn interleaved_streams_keep_independent_state() {
        use crate::stream::chunk_session;
        let (system, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn_with_config(
            system.with_fresh_obs(),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        );
        let client = srv.client();
        let genuine = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(573));
        let replay = replay_session(user, 574);
        let genuine_chunks = chunk_session(&genuine, 4800);
        let replay_chunks = chunk_session(&replay, 4800);
        let g = client
            .open_stream(
                &StreamOpenInfo::for_session(&genuine),
                StreamConfig::default(),
            )
            .expect("genuine stream opens");
        let r = client
            .open_stream(
                &StreamOpenInfo::for_session(&replay),
                StreamConfig::default(),
            )
            .expect("replay stream opens");
        assert_ne!(g.stream_id(), r.stream_id());
        assert_eq!(srv.metrics().gauge("server.stream.open").get(), 2);
        // Alternate chunks between the two streams: the replay must
        // early-reject on its own evidence without perturbing the
        // genuine stream's state.
        let mut replay_rejected = false;
        let mut ri = 0;
        for chunk in &genuine_chunks {
            let (kind, _) = g.send_chunk(chunk).expect("genuine chunk");
            assert_eq!(kind, StreamVerdictKind::Pending);
            if !replay_rejected && ri < replay_chunks.len() {
                let (kind, verdict) = r.send_chunk(&replay_chunks[ri]).expect("replay chunk");
                ri += 1;
                if kind == StreamVerdictKind::EarlyReject {
                    assert!(!verdict.expect("terminal verdict").accepted());
                    replay_rejected = true;
                }
            }
        }
        assert!(replay_rejected, "replay stream early-rejected");
        let streamed = g.close().expect("genuine final verdict");
        let one_shot = system.verify_with_policy(&genuine, ServerConfig::default().policy);
        assert_eq!(streamed.accepted(), one_shot.accepted());
        assert_eq!(streamed.decision, one_shot.decision);
        assert_eq!(streamed.generation, one_shot.generation);
        assert_eq!(srv.metrics().gauge("server.stream.open").get(), 0);
        srv.shutdown();
    }

    #[test]
    fn stream_sample_budget_kills_runaway_streams() {
        let (system, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn_with_config(
            system.with_fresh_obs(),
            ServerConfig {
                workers: 1,
                max_stream_samples: 1000,
                ..ServerConfig::default()
            },
        );
        let client = srv.client();
        let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(575));
        let handle = client
            .open_stream(
                &StreamOpenInfo::for_session(&session),
                StreamConfig::default(),
            )
            .expect("stream opens");
        let oversized = SessionChunk {
            audio: vec![0.0; 2000],
            ..SessionChunk::default()
        };
        match handle.send_chunk(&oversized) {
            Err(ClientError::Server(m)) => assert!(m.contains("sample budget"), "got: {m}"),
            other => panic!("expected sample-budget error, got {other:?}"),
        }
        // The breach killed the stream, not just the chunk.
        match handle.send_chunk(&SessionChunk::default()) {
            Err(ClientError::Server(m)) => assert!(m.contains("unknown stream id"), "got: {m}"),
            other => panic!("expected unknown-stream error, got {other:?}"),
        }
        assert_eq!(srv.metrics().gauge("server.stream.open").get(), 0);
        srv.shutdown();
    }

    /// The budget counts every stored channel: chunks carrying only
    /// gyroscope readings, or only second-microphone audio on a dual-mic
    /// stream, still fill it and get the stream killed.
    #[test]
    fn stream_sample_budget_counts_every_stored_channel() {
        let (system, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn_with_config(
            system.with_fresh_obs(),
            ServerConfig {
                workers: 1,
                max_stream_samples: 1000,
                ..ServerConfig::default()
            },
        );
        let client = srv.client();
        let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(577));
        let gyro_only = SessionChunk {
            gyro: vec![Vec3::ZERO; 300],
            ..SessionChunk::default()
        };
        let audio2_only = SessionChunk {
            audio2: vec![0.0; 300],
            ..SessionChunk::default()
        };
        let dual_mic = StreamOpenInfo {
            dual_mic: true,
            ..StreamOpenInfo::for_session(&session)
        };
        for (info, chunk) in [
            (StreamOpenInfo::for_session(&session), &gyro_only),
            (dual_mic, &audio2_only),
        ] {
            let handle = client
                .open_stream(&info, StreamConfig::default())
                .expect("stream opens");
            // 3 × 300 = 900 stored samples fit; the 4th chunk would hold 1200.
            for _ in 0..3 {
                let (kind, _) = handle.send_chunk(chunk).expect("within budget");
                assert_eq!(kind, StreamVerdictKind::Pending);
            }
            match handle.send_chunk(chunk) {
                Err(ClientError::Server(m)) => assert!(m.contains("sample budget"), "got: {m}"),
                other => panic!("expected sample-budget error, got {other:?}"),
            }
            assert_eq!(srv.metrics().gauge("server.stream.open").get(), 0);
        }
        srv.shutdown();
    }

    #[test]
    fn stream_open_cap_refuses_excess_streams() {
        let (system, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn_with_config(
            system.with_fresh_obs(),
            ServerConfig {
                workers: 1,
                max_open_streams: 1,
                ..ServerConfig::default()
            },
        );
        let client = srv.client();
        let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(576));
        let info = StreamOpenInfo::for_session(&session);
        let first = client
            .open_stream(&info, StreamConfig::default())
            .expect("first stream opens");
        match client.open_stream(&info, StreamConfig::default()) {
            Err(ClientError::Server(m)) => assert!(m.contains("too many open streams"), "got: {m}"),
            Err(other) => panic!("expected open-cap error, got {other:?}"),
            Ok(_) => panic!("open past the cap must be refused"),
        }
        // Closing the first frees the slot.
        first.close().expect("final verdict");
        client
            .open_stream(&info, StreamConfig::default())
            .expect("slot freed after close")
            .close()
            .expect("final verdict");
        srv.shutdown();
    }

    #[test]
    fn client_requested_reverify_cadence_is_refused() {
        let (system, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn(system.with_fresh_obs(), 1);
        let client = srv.client();
        let session = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(577));
        let info = StreamOpenInfo::for_session(&session);
        let every_chunk = StreamConfig {
            reverify_every_chunks: 1,
            ..StreamConfig::default()
        };
        match client.open_stream(&info, every_chunk) {
            Err(ClientError::Server(m)) => assert!(m.contains("re-verification"), "got: {m}"),
            Err(other) => panic!("expected a cadence refusal, got {other:?}"),
            Ok(_) => panic!("a client-chosen cadence must be refused"),
        }
        assert_eq!(protocol_errors(&srv), 1);
        assert_eq!(srv.metrics().gauge("server.stream.open").get(), 0);
        assert_eq!(srv.metrics().counter("pipeline.stream.opened").get(), 0);
        let stream = client
            .open_stream(&info, StreamConfig::default())
            .expect("cadence 0 opens");
        assert_eq!(srv.metrics().gauge("server.stream.open").get(), 1);
        stream.close().expect("final verdict");
        srv.shutdown();
    }
}

//! Binary wire protocol between client and server.
//!
//! Frames are `[magic u16][version u8][type u8][payload …]`; all integers
//! little-endian, floats IEEE-754 bits. The format is hand-rolled on the
//! workspace codec's [`ByteWriter`] / [`ByteReader`], the same
//! little-endian primitives the model artifacts use. Sample vectors move
//! through their bulk slice methods, and every sample-carrying encoder
//! sizes its buffer to the frame's exact length up front: a verify
//! request (hundreds of kilobytes of sensor samples) is one allocation and
//! one pass over its samples, with no copy at the end. Decoding is the
//! mirror image — one bounds check and one allocation per sample vector —
//! and a frame must be consumed exactly: bytes after a complete message
//! are [`DecodeError::TrailingBytes`].

use crate::cascade::ExecutionPolicy;
use crate::session::SessionData;
use crate::stream::{SessionChunk, StreamConfig, StreamOpenInfo};
use crate::verdict::{
    Component, ComponentResult, Decision, DefenseVerdict, SkippedStage, StageOutcome,
};
use magshield_ml::codec::{ByteReader, ByteWriter, CodecError};
use magshield_obs::metrics::{Exemplar, HistogramSnapshot, MetricsSnapshot};
use magshield_obs::slo::{BurnRate, HealthReport, HealthState, SloStatus};
use magshield_simkit::vec3::Vec3;

/// Frame magic.
const MAGIC: u16 = 0x4D53; // "MS"
/// Frame header: magic (2) + version (1) + type (1).
const HEADER_LEN: usize = 4;
/// Starting payload capacity for frames whose size depends on strings
/// (verdicts, metrics, health); they grow past it as needed.
const STRING_FRAME_HINT: usize = 64;
/// Protocol version — the single source of truth for what this build
/// speaks (the frame header, every encoder and the decoder all read it
/// from here). v2 added the `Sld` component tag, per-stage
/// outcomes (ran vs short-circuited) and the invalid-session reason to
/// verify responses. v3 added batch verification frames with
/// per-session shed outcomes; tags 6 and 7 carried them until single
/// requests pipelined over the whole pool superseded them, and they are
/// retired and decode as [`DecodeError::BadType`]. v4 added the model-generation stamp to
/// every verdict plus online enrollment ([`Message::Enroll`]) and
/// whole-bundle hot-swap ([`Message::SwapBundle`]). v5 added the
/// telemetry plane: full labeled-metrics scrape
/// ([`Message::MetricsRequest`] / [`Message::MetricsResponse`]), SLO
/// health ([`Message::HealthRequest`] / [`Message::HealthResponse`]),
/// and exemplars inside every histogram snapshot. Tags 4 and 5 carried
/// a scalar stats view that the metrics scrape superseded; they are
/// retired and decode as [`DecodeError::BadType`].
/// v6 added streaming continuous verification: chunk-fed sessions over
/// [`Message::StreamOpen`] / [`Message::StreamChunk`] /
/// [`Message::StreamVerdict`] / [`Message::StreamClose`], with
/// mid-stream early-reject verdicts.
pub const PROTOCOL_VERSION: u8 = 6;

/// Message type tags.
const T_VERIFY_REQUEST: u8 = 1;
const T_VERIFY_RESPONSE: u8 = 2;
const T_ERROR: u8 = 3;
// Tags 4 and 5 (the retired stats request/response) and 6 and 7 (the
// retired batch request/response) stay unassigned.
const T_ENROLL: u8 = 8;
const T_ENROLL_RESPONSE: u8 = 9;
const T_SWAP_BUNDLE: u8 = 10;
const T_SWAP_BUNDLE_RESPONSE: u8 = 11;
const T_METRICS_REQUEST: u8 = 12;
const T_METRICS_RESPONSE: u8 = 13;
const T_HEALTH_REQUEST: u8 = 14;
const T_HEALTH_RESPONSE: u8 = 15;
const T_STREAM_OPEN: u8 = 16;
const T_STREAM_CHUNK: u8 = 17;
const T_STREAM_VERDICT: u8 = 18;
const T_STREAM_CLOSE: u8 = 19;

/// Upper bound on vector lengths (guards against hostile frames).
const MAX_LEN: usize = 16 << 20;

/// Upper bound on histogram bucket counts in metrics frames.
const MAX_HIST_BUCKETS: usize = 4096;

/// Upper bound on utterances in one enrollment frame.
const MAX_ENROLL_UTTERANCES: usize = 64;

/// Upper bound on metric series per section of a metrics frame. The
/// registry's own per-family cardinality cap keeps real snapshots far
/// below this; the wire guard exists for hostile frames.
const MAX_METRIC_SERIES: usize = 65_536;

/// Upper bound on exemplars per histogram on the wire (the registry
/// retains at most `MAX_EXEMPLARS` = 8; the slack tolerates merged
/// snapshots from forward-versioned peers).
const MAX_WIRE_EXEMPLARS: usize = 64;

/// Upper bound on SLO statuses / notes in one health frame.
const MAX_HEALTH_ENTRIES: usize = 1024;

/// Upper bound on samples per vector in one stream chunk (guards
/// against hostile v6 frames; real chunks are tens of milliseconds —
/// a million samples is already ~20 s of 48 kHz audio in *one* chunk).
const MAX_CHUNK_SAMPLES: usize = 1 << 20;

/// A decoded protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: verify a session.
    VerifyRequest {
        /// Request correlation id.
        request_id: u64,
        /// The captured session.
        session: SessionData,
    },
    /// Server → client: the verdict.
    VerifyResponse {
        /// Request correlation id.
        request_id: u64,
        /// The verdict.
        verdict: DefenseVerdict,
    },
    /// Server → client: protocol failure.
    Error {
        /// Request correlation id (0 if unknown).
        request_id: u64,
        /// Description.
        message: String,
    },
    /// Client → server: enroll a new speaker online (added in v4).
    Enroll {
        /// Request correlation id.
        request_id: u64,
        /// Speaker id the utterances enroll.
        speaker_id: u32,
        /// Channel-matched enrollment utterances (ASV-ready audio).
        utterances: Vec<Vec<f64>>,
    },
    /// Server → client: the enrollment landed (added in v4).
    EnrollResponse {
        /// Request correlation id.
        request_id: u64,
        /// The speaker that was enrolled.
        speaker_id: u32,
        /// Registry generation the enrollment published.
        generation: u64,
    },
    /// Client → server: atomically replace the served models with a
    /// serialized [`ModelBundle`](crate::artifact::ModelBundle) (added
    /// in v4). The payload is the bundle's own checksummed encoding —
    /// the server revalidates it before swapping.
    SwapBundle {
        /// Request correlation id.
        request_id: u64,
        /// `ModelBundle::to_bytes` output.
        bundle_bytes: Vec<u8>,
    },
    /// Server → client: the swap landed (added in v4).
    SwapBundleResponse {
        /// Request correlation id.
        request_id: u64,
        /// Registry generation the swap published.
        generation: u64,
    },
    /// Client → server: request the full labeled-metrics snapshot
    /// (added in v5).
    MetricsRequest {
        /// Request correlation id.
        request_id: u64,
    },
    /// Server → client: every counter, gauge and histogram series —
    /// labeled keys included — plus the text exposition rendering of
    /// the same snapshot (added in v5). The scrape drains each
    /// histogram's exemplar window after copying it; counts are never
    /// drained.
    MetricsResponse {
        /// Request correlation id.
        request_id: u64,
        /// Full labeled snapshot, exemplars included.
        snapshot: MetricsSnapshot,
        /// `render_text` exposition of the same snapshot.
        exposition: String,
    },
    /// Client → server: request the SLO engine's health verdict
    /// (added in v5).
    HealthRequest {
        /// Request correlation id.
        request_id: u64,
    },
    /// Server → client: the health verdict with per-spec burn-rate
    /// evidence (added in v5).
    HealthResponse {
        /// Request correlation id.
        request_id: u64,
        /// Overall state, per-spec statuses, guard notes.
        report: HealthReport,
    },
    /// Client → server: open a chunk-fed verification stream (added in
    /// v6). The server pins the currently served model generation for
    /// the stream's lifetime.
    StreamOpen {
        /// Request correlation id.
        request_id: u64,
        /// Client-chosen stream id carried by every subsequent chunk and
        /// close frame. Opening an id that is already open is a protocol
        /// error.
        stream_id: u64,
        /// Stream-constant capture metadata (rates, geometry, claimed
        /// speaker).
        info: StreamOpenInfo,
        /// Per-stream policy knobs (re-verification cadence, execution
        /// policy).
        stream: StreamConfig,
    },
    /// Client → server: one chunk of sensor data for an open stream
    /// (added in v6).
    StreamChunk {
        /// Request correlation id.
        request_id: u64,
        /// The stream the chunk belongs to.
        stream_id: u64,
        /// Interleaved sensor samples since the previous chunk.
        chunk: SessionChunk,
    },
    /// Server → client: the stream's state after an open, chunk or
    /// close frame (added in v6). [`StreamVerdictKind::Pending`] means
    /// keep streaming; every other kind is terminal and carries the
    /// verdict.
    StreamVerdict {
        /// Request correlation id.
        request_id: u64,
        /// The stream this verdict describes.
        stream_id: u64,
        /// Pending, early-reject, re-verification reject, or final.
        kind: StreamVerdictKind,
        /// Chunks the server has ingested for this stream.
        chunks: u32,
        /// The verdict (present for every terminal kind).
        verdict: Option<DefenseVerdict>,
    },
    /// Client → server: close a stream, requesting the final verdict
    /// over the full accumulated session (added in v6).
    StreamClose {
        /// Request correlation id.
        request_id: u64,
        /// The stream to finalize.
        stream_id: u64,
    },
}

/// What a [`Message::StreamVerdict`] reports (added in v6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamVerdictKind {
    /// The frame was processed and the stream stays open; no verdict
    /// yet.
    Pending,
    /// A stage's monotone bound condemned the stream mid-chunk; the
    /// stream is terminated.
    EarlyReject,
    /// A re-verification pass rejected the accumulated prefix and the
    /// stream was configured to terminate on it.
    ReverifyReject,
    /// The stream was closed and the full accumulated session verified.
    Final,
}

impl Message {
    /// The correlation id of any message kind.
    pub fn request_id(&self) -> u64 {
        match self {
            Message::VerifyRequest { request_id, .. }
            | Message::VerifyResponse { request_id, .. }
            | Message::Error { request_id, .. }
            | Message::Enroll { request_id, .. }
            | Message::EnrollResponse { request_id, .. }
            | Message::SwapBundle { request_id, .. }
            | Message::SwapBundleResponse { request_id, .. }
            | Message::MetricsRequest { request_id }
            | Message::MetricsResponse { request_id, .. }
            | Message::HealthRequest { request_id }
            | Message::HealthResponse { request_id, .. }
            | Message::StreamOpen { request_id, .. }
            | Message::StreamChunk { request_id, .. }
            | Message::StreamVerdict { request_id, .. }
            | Message::StreamClose { request_id, .. } => *request_id,
        }
    }
}

/// Decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Frame shorter than a header.
    Truncated,
    /// Magic mismatch.
    BadMagic,
    /// Unsupported version.
    BadVersion(u8),
    /// Unknown message type tag.
    BadType(u8),
    /// A declared length exceeds limits or the remaining bytes.
    BadLength,
    /// String payload not UTF-8.
    BadString,
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::BadType(t) => write!(f, "unknown message type {t}"),
            DecodeError::BadLength => write!(f, "invalid length field"),
            DecodeError::BadString => write!(f, "invalid UTF-8 in string"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the message"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The one place codec failures become protocol errors.
impl From<CodecError> for DecodeError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { .. } => DecodeError::Truncated,
            CodecError::TrailingBytes { count } => DecodeError::TrailingBytes(count),
            CodecError::BadTag { found, .. } => DecodeError::BadType(found),
            CodecError::BadMagic { .. } => DecodeError::BadMagic,
            CodecError::UnsupportedVersion { found, .. } => DecodeError::BadVersion(found),
            // Envelope checks the protocol's frames do not have; the
            // reader primitives never raise these.
            CodecError::ChecksumMismatch { .. } | CodecError::Invalid { .. } => {
                DecodeError::BadLength
            }
        }
    }
}

/// Encodes a verify request.
pub fn encode_request(request_id: u64, session: &SessionData) -> Vec<u8> {
    let mut w = header(T_VERIFY_REQUEST, 8 + session_len(session));
    w.put_u64(request_id);
    put_session(&mut w, session);
    w.into_bytes()
}

/// Stage-outcome tags inside a verify response.
const OUTCOME_SKIPPED: u8 = 0;
const OUTCOME_RAN: u8 = 1;

/// Encodes a verify response.
///
/// Layout after the request id: decision byte (1 accept, 0 reject; any
/// other value fails to decode), invalid flag (+ reason
/// string when set), stage count, then per stage a component tag, an
/// outcome tag, and either `(score f64, detail string)` for a stage that
/// ran or the causing component's tag for a short-circuited one.
pub fn encode_response(request_id: u64, verdict: &DefenseVerdict) -> Vec<u8> {
    let mut w = header(T_VERIFY_RESPONSE, STRING_FRAME_HINT);
    w.put_u64(request_id);
    put_verdict(&mut w, verdict);
    w.into_bytes()
}

/// Encodes an online enrollment request (protocol v4).
pub fn encode_enroll(request_id: u64, speaker_id: u32, utterances: &[Vec<f64>]) -> Vec<u8> {
    let payload = 8 + 4 + 4 + utterances.iter().map(|u| f64s_len(u)).sum::<usize>();
    let mut w = header(T_ENROLL, payload);
    w.put_u64(request_id);
    w.put_u32(speaker_id);
    w.put_len(utterances.len());
    for u in utterances {
        w.put_f64s(u);
    }
    w.into_bytes()
}

/// Encodes an enrollment acknowledgement (protocol v4).
pub fn encode_enroll_response(request_id: u64, speaker_id: u32, generation: u64) -> Vec<u8> {
    let mut w = header(T_ENROLL_RESPONSE, 8 + 4 + 8);
    w.put_u64(request_id);
    w.put_u32(speaker_id);
    w.put_u64(generation);
    w.into_bytes()
}

/// Encodes a bundle hot-swap request (protocol v4). `bundle_bytes` is
/// a serialized `ModelBundle` carried opaquely — its own magic,
/// version and checksum travel inside the frame.
pub fn encode_swap_bundle(request_id: u64, bundle_bytes: &[u8]) -> Vec<u8> {
    let mut w = header(T_SWAP_BUNDLE, 8 + 4 + bundle_bytes.len());
    w.put_u64(request_id);
    w.put_nested(bundle_bytes);
    w.into_bytes()
}

/// Encodes a hot-swap acknowledgement (protocol v4).
pub fn encode_swap_bundle_response(request_id: u64, generation: u64) -> Vec<u8> {
    let mut w = header(T_SWAP_BUNDLE_RESPONSE, 8 + 8);
    w.put_u64(request_id);
    w.put_u64(generation);
    w.into_bytes()
}

/// Encodes a protocol error.
pub fn encode_error(request_id: u64, message: &str) -> Vec<u8> {
    let mut w = header(T_ERROR, 8 + 4 + message.len());
    w.put_u64(request_id);
    w.put_string(message);
    w.into_bytes()
}

/// Encodes a labeled-metrics scrape request (protocol v5).
pub fn encode_metrics_request(request_id: u64) -> Vec<u8> {
    let mut w = header(T_METRICS_REQUEST, 8);
    w.put_u64(request_id);
    w.into_bytes()
}

/// Encodes a labeled-metrics scrape response (protocol v5).
///
/// Layout after the request id: three sections — counters
/// `(key string, u64)`, gauges `(key string, i64)`, histograms
/// `(key string, histogram)` — each prefixed by a u32 series count,
/// followed by the text exposition string. Keys are canonical
/// `name{k="v",…}` series keys; unlabeled series are bare names.
pub fn encode_metrics_response(
    request_id: u64,
    snapshot: &MetricsSnapshot,
    exposition: &str,
) -> Vec<u8> {
    let mut w = header(T_METRICS_RESPONSE, STRING_FRAME_HINT + exposition.len());
    w.put_u64(request_id);
    w.put_len(snapshot.counters.len());
    for (key, &value) in &snapshot.counters {
        w.put_string(key);
        w.put_u64(value);
    }
    w.put_len(snapshot.gauges.len());
    for (key, &value) in &snapshot.gauges {
        w.put_string(key);
        w.put_i64(value);
    }
    w.put_len(snapshot.histograms.len());
    for (key, hist) in &snapshot.histograms {
        w.put_string(key);
        put_histogram(&mut w, hist);
    }
    w.put_string(exposition);
    w.into_bytes()
}

/// Encodes a health request (protocol v5).
pub fn encode_health_request(request_id: u64) -> Vec<u8> {
    let mut w = header(T_HEALTH_REQUEST, 8);
    w.put_u64(request_id);
    w.into_bytes()
}

/// Encodes a health response (protocol v5).
///
/// Layout after the request id: overall state byte, u32 status count
/// then per status `(name string, short f64, long f64, state byte)`,
/// u32 note count then note strings.
pub fn encode_health_response(request_id: u64, report: &HealthReport) -> Vec<u8> {
    let mut w = header(T_HEALTH_RESPONSE, STRING_FRAME_HINT);
    w.put_u64(request_id);
    w.put_u8(report.state.code());
    w.put_len(report.statuses.len());
    for status in &report.statuses {
        w.put_string(&status.name);
        w.put_f64(status.burn.short);
        w.put_f64(status.burn.long);
        w.put_u8(status.state.code());
    }
    w.put_len(report.notes.len());
    for note in &report.notes {
        w.put_string(note);
    }
    w.into_bytes()
}

/// Execution-policy bytes inside a stream-open frame (protocol v6).
const POLICY_FULL: u8 = 0;
const POLICY_SHORT_CIRCUIT: u8 = 1;

fn policy_tag(p: ExecutionPolicy) -> u8 {
    match p {
        ExecutionPolicy::FullEvaluation => POLICY_FULL,
        ExecutionPolicy::ShortCircuit => POLICY_SHORT_CIRCUIT,
    }
}

fn policy_from_tag(t: u8) -> Result<ExecutionPolicy, DecodeError> {
    Ok(match t {
        POLICY_FULL => ExecutionPolicy::FullEvaluation,
        POLICY_SHORT_CIRCUIT => ExecutionPolicy::ShortCircuit,
        other => return Err(DecodeError::BadType(other)),
    })
}

/// Stream-verdict kind bytes (protocol v6).
const STREAM_PENDING: u8 = 0;
const STREAM_EARLY_REJECT: u8 = 1;
const STREAM_REVERIFY_REJECT: u8 = 2;
const STREAM_FINAL: u8 = 3;

fn stream_kind_tag(k: StreamVerdictKind) -> u8 {
    match k {
        StreamVerdictKind::Pending => STREAM_PENDING,
        StreamVerdictKind::EarlyReject => STREAM_EARLY_REJECT,
        StreamVerdictKind::ReverifyReject => STREAM_REVERIFY_REJECT,
        StreamVerdictKind::Final => STREAM_FINAL,
    }
}

fn stream_kind_from_tag(t: u8) -> Result<StreamVerdictKind, DecodeError> {
    Ok(match t {
        STREAM_PENDING => StreamVerdictKind::Pending,
        STREAM_EARLY_REJECT => StreamVerdictKind::EarlyReject,
        STREAM_REVERIFY_REJECT => StreamVerdictKind::ReverifyReject,
        STREAM_FINAL => StreamVerdictKind::Final,
        other => return Err(DecodeError::BadType(other)),
    })
}

/// Encodes a stream-open request (protocol v6).
pub fn encode_stream_open(
    request_id: u64,
    stream_id: u64,
    info: &StreamOpenInfo,
    stream: StreamConfig,
) -> Vec<u8> {
    let mut w = header(T_STREAM_OPEN, 8 + 8 + 4 + 7 * 8 + 1 + 4 + 1 + 1);
    w.put_u64(request_id);
    w.put_u64(stream_id);
    w.put_u32(info.claimed_speaker);
    w.put_f64(info.audio_rate);
    w.put_f64(info.imu_rate);
    w.put_f64(info.pilot_hz);
    w.put_f64(info.sweep_start_s);
    put_vec3(&mut w, info.earth_reference);
    w.put_bool(info.dual_mic);
    w.put_u32(stream.reverify_every_chunks);
    w.put_bool(stream.terminate_on_reverify);
    w.put_u8(policy_tag(stream.policy));
    w.into_bytes()
}

/// Encodes a stream chunk (protocol v6). Every sample vector is
/// length-prefixed and bounded by `MAX_CHUNK_SAMPLES` on decode.
pub fn encode_stream_chunk(request_id: u64, stream_id: u64, chunk: &SessionChunk) -> Vec<u8> {
    let payload = 8
        + 8
        + f64s_len(&chunk.audio)
        + f64s_len(&chunk.audio2)
        + vec3s_len(&chunk.mag)
        + vec3s_len(&chunk.accel)
        + vec3s_len(&chunk.gyro);
    let mut w = header(T_STREAM_CHUNK, payload);
    w.put_u64(request_id);
    w.put_u64(stream_id);
    w.put_f64s(&chunk.audio);
    w.put_f64s(&chunk.audio2);
    put_vec3s(&mut w, &chunk.mag);
    put_vec3s(&mut w, &chunk.accel);
    put_vec3s(&mut w, &chunk.gyro);
    w.into_bytes()
}

/// Encodes a stream-verdict response (protocol v6): kind byte, ingested
/// chunk count, then an optional verdict (same layout as a verify
/// response body).
pub fn encode_stream_verdict(
    request_id: u64,
    stream_id: u64,
    kind: StreamVerdictKind,
    chunks: u32,
    verdict: Option<&DefenseVerdict>,
) -> Vec<u8> {
    let mut w = header(T_STREAM_VERDICT, STRING_FRAME_HINT);
    w.put_u64(request_id);
    w.put_u64(stream_id);
    w.put_u8(stream_kind_tag(kind));
    w.put_u32(chunks);
    w.put_bool(verdict.is_some());
    if let Some(v) = verdict {
        put_verdict(&mut w, v);
    }
    w.into_bytes()
}

/// Encodes a stream-close request (protocol v6).
pub fn encode_stream_close(request_id: u64, stream_id: u64) -> Vec<u8> {
    let mut w = header(T_STREAM_CLOSE, 8 + 8);
    w.put_u64(request_id);
    w.put_u64(stream_id);
    w.into_bytes()
}

/// Decodes any frame. The message must end exactly where the frame
/// does.
pub fn decode_frame(frame: &[u8]) -> Result<Message, DecodeError> {
    let mut r = ByteReader::new(frame);
    need(&r, HEADER_LEN)?;
    if r.get_u16()? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.get_u8()?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let ty = r.get_u8()?;
    let message = decode_body(ty, &mut r)?;
    r.finish()?;
    Ok(message)
}

fn decode_body(ty: u8, r: &mut ByteReader<'_>) -> Result<Message, DecodeError> {
    Ok(match ty {
        T_VERIFY_REQUEST => Message::VerifyRequest {
            request_id: r.get_u64()?,
            session: get_session(r)?,
        },
        T_VERIFY_RESPONSE => Message::VerifyResponse {
            request_id: r.get_u64()?,
            verdict: get_verdict(r)?,
        },
        T_ENROLL => {
            let request_id = r.get_u64()?;
            let speaker_id = r.get_u32()?;
            let n = get_len_capped(r, MAX_ENROLL_UTTERANCES)?;
            Message::Enroll {
                request_id,
                speaker_id,
                utterances: get_n(r, n, |r| get_f64s(r, MAX_LEN))?,
            }
        }
        T_ENROLL_RESPONSE => Message::EnrollResponse {
            request_id: r.get_u64()?,
            speaker_id: r.get_u32()?,
            generation: r.get_u64()?,
        },
        T_SWAP_BUNDLE => {
            let request_id = r.get_u64()?;
            let n = get_len(r)?;
            Message::SwapBundle {
                request_id,
                bundle_bytes: r.get_bytes(n)?.to_vec(),
            }
        }
        T_SWAP_BUNDLE_RESPONSE => Message::SwapBundleResponse {
            request_id: r.get_u64()?,
            generation: r.get_u64()?,
        },
        T_ERROR => Message::Error {
            request_id: r.get_u64()?,
            message: get_string(r)?,
        },
        T_METRICS_REQUEST => Message::MetricsRequest {
            request_id: r.get_u64()?,
        },
        T_METRICS_RESPONSE => {
            let request_id = r.get_u64()?;
            let n = get_len_capped(r, MAX_METRIC_SERIES)?;
            let counters = get_n(r, n, |r| Ok((get_string(r)?, r.get_u64()?)))?;
            let n = get_len_capped(r, MAX_METRIC_SERIES)?;
            let gauges = get_n(r, n, |r| Ok((get_string(r)?, r.get_i64()?)))?;
            let n = get_len_capped(r, MAX_METRIC_SERIES)?;
            let histograms = get_n(r, n, |r| Ok((get_string(r)?, get_histogram(r)?)))?;
            Message::MetricsResponse {
                request_id,
                snapshot: MetricsSnapshot {
                    counters,
                    gauges,
                    histograms,
                },
                exposition: get_string(r)?,
            }
        }
        T_HEALTH_REQUEST => Message::HealthRequest {
            request_id: r.get_u64()?,
        },
        T_HEALTH_RESPONSE => {
            let request_id = r.get_u64()?;
            let state = health_state_from_wire(r.get_u8()?)?;
            let n = get_len_capped(r, MAX_HEALTH_ENTRIES)?;
            let statuses = get_n(r, n, |r| {
                Ok(SloStatus {
                    name: get_string(r)?,
                    burn: BurnRate {
                        short: r.get_f64()?,
                        long: r.get_f64()?,
                    },
                    state: health_state_from_wire(r.get_u8()?)?,
                })
            })?;
            let n = get_len_capped(r, MAX_HEALTH_ENTRIES)?;
            Message::HealthResponse {
                request_id,
                report: HealthReport {
                    state,
                    statuses,
                    notes: get_n(r, n, get_string)?,
                },
            }
        }
        T_STREAM_OPEN => Message::StreamOpen {
            request_id: r.get_u64()?,
            stream_id: r.get_u64()?,
            info: StreamOpenInfo {
                claimed_speaker: r.get_u32()?,
                audio_rate: r.get_f64()?,
                imu_rate: r.get_f64()?,
                pilot_hz: r.get_f64()?,
                sweep_start_s: r.get_f64()?,
                earth_reference: get_vec3(r)?,
                dual_mic: r.get_bool()?,
            },
            stream: StreamConfig {
                reverify_every_chunks: r.get_u32()?,
                // The flag and the policy byte are checked as a pair.
                terminate_on_reverify: {
                    need(r, 2)?;
                    r.get_bool()?
                },
                policy: policy_from_tag(r.get_u8()?)?,
            },
        },
        T_STREAM_CHUNK => Message::StreamChunk {
            request_id: r.get_u64()?,
            stream_id: r.get_u64()?,
            chunk: SessionChunk {
                audio: get_f64s(r, MAX_CHUNK_SAMPLES)?,
                audio2: get_f64s(r, MAX_CHUNK_SAMPLES)?,
                mag: get_vec3s(r, MAX_CHUNK_SAMPLES)?,
                accel: get_vec3s(r, MAX_CHUNK_SAMPLES)?,
                gyro: get_vec3s(r, MAX_CHUNK_SAMPLES)?,
            },
        },
        T_STREAM_VERDICT => Message::StreamVerdict {
            request_id: r.get_u64()?,
            stream_id: r.get_u64()?,
            kind: stream_kind_from_tag(r.get_u8()?)?,
            chunks: r.get_u32()?,
            verdict: if r.get_bool()? {
                Some(get_verdict(r)?)
            } else {
                None
            },
        },
        T_STREAM_CLOSE => Message::StreamClose {
            request_id: r.get_u64()?,
            stream_id: r.get_u64()?,
        },
        other => return Err(DecodeError::BadType(other)),
    })
}

/// Strict wire mapping for health-state bytes: unlike
/// [`HealthState::from_code`]'s lenient fallback, an unknown byte in a
/// frame is a protocol error, not an `Unhealthy` verdict.
fn health_state_from_wire(code: u8) -> Result<HealthState, DecodeError> {
    if code > 2 {
        return Err(DecodeError::BadType(code));
    }
    Ok(HealthState::from_code(code))
}

// ---------- helpers ----------
//
// Decoders build structs field by field in wire order: struct-literal
// fields evaluate in source order.

/// Starts a frame of type `ty` with room for `payload_len` more bytes:
/// exact for every fixed-layout and sample-carrying frame,
/// [`STRING_FRAME_HINT`] for the rest.
fn header(ty: u8, payload_len: usize) -> ByteWriter {
    let mut w = ByteWriter::with_capacity(HEADER_LEN + payload_len);
    w.put_u16(MAGIC);
    w.put_u8(PROTOCOL_VERSION);
    w.put_u8(ty);
    w
}

fn component_tag(c: Component) -> u8 {
    match c {
        Component::Distance => 0,
        Component::SoundField => 1,
        Component::Loudspeaker => 2,
        Component::SpeakerIdentity => 3,
        Component::Sld => 4, // added in protocol v2
    }
}

fn component_from_tag(t: u8) -> Result<Component, DecodeError> {
    Ok(match t {
        0 => Component::Distance,
        1 => Component::SoundField,
        2 => Component::Loudspeaker,
        3 => Component::SpeakerIdentity,
        4 => Component::Sld,
        other => return Err(DecodeError::BadType(other)),
    })
}

/// Verdict body shared by verify responses and stream verdicts:
/// decision byte, invalid flag (+ reason string when set), generation
/// flag (+ generation u64 when stamped, added in v4), stage count, then
/// per stage a component tag, an outcome tag, and either
/// `(score f64, detail string)` for a stage that ran or the causing
/// component's tag for a short-circuited one.
fn put_verdict(w: &mut ByteWriter, verdict: &DefenseVerdict) {
    w.put_bool(verdict.decision == Decision::Accept);
    w.put_bool(verdict.invalid.is_some());
    if let Some(reason) = &verdict.invalid {
        w.put_string(reason);
    }
    w.put_bool(verdict.generation.is_some());
    if let Some(generation) = verdict.generation {
        w.put_u64(generation);
    }
    w.put_len(verdict.stages.len());
    for stage in &verdict.stages {
        w.put_u8(component_tag(stage.component()));
        match stage {
            StageOutcome::Ran(r) => {
                w.put_u8(OUTCOME_RAN);
                w.put_f64(r.attack_score);
                w.put_string(&r.detail);
            }
            StageOutcome::Skipped(s) => {
                w.put_u8(OUTCOME_SKIPPED);
                w.put_u8(component_tag(s.cause));
            }
        }
    }
}

fn get_verdict(r: &mut ByteReader<'_>) -> Result<DefenseVerdict, DecodeError> {
    // Strict like every other wire flag: 1 accepts, 0 rejects, and any
    // other byte is a protocol error rather than a silent rejection.
    let decision = if r.get_bool()? {
        Decision::Accept
    } else {
        Decision::Reject
    };
    let invalid = if r.get_bool()? {
        Some(get_string(r)?)
    } else {
        None
    };
    let generation = if r.get_bool()? {
        Some(r.get_u64()?)
    } else {
        None
    };
    let n = get_len(r)?;
    let stages = get_n(r, n, |r| {
        // Both tags are checked as a pair before either is interpreted.
        need(r, 2)?;
        let component = component_from_tag(r.get_u8()?)?;
        Ok(match r.get_u8()? {
            OUTCOME_RAN => StageOutcome::Ran(ComponentResult {
                component,
                attack_score: r.get_f64()?,
                detail: get_string(r)?,
            }),
            OUTCOME_SKIPPED => StageOutcome::Skipped(SkippedStage {
                component,
                cause: component_from_tag(r.get_u8()?)?,
            }),
            other => return Err(DecodeError::BadType(other)),
        })
    })?;
    Ok(DefenseVerdict {
        stages,
        decision,
        invalid,
        generation,
    })
}

fn put_histogram(w: &mut ByteWriter, h: &HistogramSnapshot) {
    w.put_u64(h.count);
    w.put_u64(h.sum_ns);
    w.put_u64(h.max_ns);
    put_u64s(w, &h.buckets);
    w.put_len(h.exemplars.len());
    for ex in &h.exemplars {
        w.put_string(&ex.trace_id);
        w.put_u64(ex.value_ns);
        w.put_u32(ex.bucket);
    }
}

fn get_histogram(r: &mut ByteReader<'_>) -> Result<HistogramSnapshot, DecodeError> {
    let count = r.get_u64()?;
    let sum_ns = r.get_u64()?;
    let max_ns = r.get_u64()?;
    let buckets = get_u64s(r)?;
    let n = get_len_capped(r, MAX_WIRE_EXEMPLARS)?;
    let exemplars = get_n(r, n, |r| {
        Ok(Exemplar {
            trace_id: get_string(r)?,
            value_ns: r.get_u64()?,
            bucket: r.get_u32()?,
        })
    })?;
    Ok(HistogramSnapshot {
        buckets,
        count,
        sum_ns,
        max_ns,
        exemplars,
    })
}

/// Wire size of a length-prefixed `f64` vector.
fn f64s_len(v: &[f64]) -> usize {
    4 + 8 * v.len()
}

/// Wire size of a length-prefixed [`Vec3`] vector.
fn vec3s_len(v: &[Vec3]) -> usize {
    4 + 24 * v.len()
}

/// Wire size of a session, matching [`put_session`] byte for byte.
fn session_len(s: &SessionData) -> usize {
    4 + 7 * 8
        + f64s_len(&s.audio)
        + 1
        + s.audio2.as_deref().map_or(0, f64s_len)
        + vec3s_len(&s.mag_readings)
        + vec3s_len(&s.accel_readings)
        + vec3s_len(&s.gyro_readings)
}

fn put_session(w: &mut ByteWriter, s: &SessionData) {
    w.put_u32(s.claimed_speaker);
    w.put_f64(s.audio_rate);
    w.put_f64(s.pilot_hz);
    w.put_f64(s.imu_rate);
    w.put_f64(s.sweep_start_s);
    put_vec3(w, s.earth_reference);
    w.put_f64s(&s.audio);
    w.put_bool(s.audio2.is_some());
    if let Some(a2) = &s.audio2 {
        w.put_f64s(a2);
    }
    put_vec3s(w, &s.mag_readings);
    put_vec3s(w, &s.accel_readings);
    put_vec3s(w, &s.gyro_readings);
}

fn get_session(r: &mut ByteReader<'_>) -> Result<SessionData, DecodeError> {
    Ok(SessionData {
        claimed_speaker: r.get_u32()?,
        audio_rate: r.get_f64()?,
        pilot_hz: r.get_f64()?,
        imu_rate: r.get_f64()?,
        sweep_start_s: r.get_f64()?,
        earth_reference: get_vec3(r)?,
        audio: get_f64s(r, MAX_LEN)?,
        audio2: if r.get_bool()? {
            Some(get_f64s(r, MAX_LEN)?)
        } else {
            None
        },
        mag_readings: get_vec3s(r, MAX_LEN)?,
        accel_readings: get_vec3s(r, MAX_LEN)?,
        gyro_readings: get_vec3s(r, MAX_LEN)?,
    })
}

fn vec3_to_le(v: Vec3) -> [u8; 24] {
    let mut b = [0; 24];
    b[..8].copy_from_slice(&v.x.to_le_bytes());
    b[8..16].copy_from_slice(&v.y.to_le_bytes());
    b[16..].copy_from_slice(&v.z.to_le_bytes());
    b
}

fn vec3_from_le(b: [u8; 24]) -> Vec3 {
    let lane = |i: usize| f64::from_le_bytes(b[i..i + 8].try_into().unwrap());
    Vec3::new(lane(0), lane(8), lane(16))
}

fn put_vec3(w: &mut ByteWriter, v: Vec3) {
    w.put_f64(v.x);
    w.put_f64(v.y);
    w.put_f64(v.z);
}

fn put_vec3s(w: &mut ByteWriter, v: &[Vec3]) {
    w.put_len(v.len());
    w.put_le_slice(v, vec3_to_le);
}

fn put_u64s(w: &mut ByteWriter, v: &[u64]) {
    w.put_len(v.len());
    w.put_le_slice(v, u64::to_le_bytes);
}

/// Fails with [`DecodeError::Truncated`] unless `n` more bytes remain:
/// for fields checked as a group, so a short frame reports truncation
/// before a bad tag inside the group is seen.
fn need(r: &ByteReader<'_>, n: usize) -> Result<(), DecodeError> {
    if r.remaining() < n {
        return Err(DecodeError::Truncated);
    }
    Ok(())
}

/// Reads a `u32` count and refuses one above `cap` as
/// [`DecodeError::BadLength`] before anything is read or allocated.
fn get_len_capped(r: &mut ByteReader<'_>, cap: usize) -> Result<usize, DecodeError> {
    let n = r.get_len()?;
    if n > cap {
        return Err(DecodeError::BadLength);
    }
    Ok(n)
}

fn get_len(r: &mut ByteReader<'_>) -> Result<usize, DecodeError> {
    get_len_capped(r, MAX_LEN)
}

/// Decodes `n` items in order into any collection, stopping at the
/// first error.
fn get_n<'a, T, C: FromIterator<T>>(
    r: &mut ByteReader<'a>,
    n: usize,
    mut item: impl FnMut(&mut ByteReader<'a>) -> Result<T, DecodeError>,
) -> Result<C, DecodeError> {
    (0..n).map(|_| item(r)).collect()
}

fn get_string(r: &mut ByteReader<'_>) -> Result<String, DecodeError> {
    let n = get_len(r)?;
    String::from_utf8(r.get_bytes(n)?.to_vec()).map_err(|_| DecodeError::BadString)
}

/// A length-prefixed `f64` vector holding at most `cap` samples.
fn get_f64s(r: &mut ByteReader<'_>, cap: usize) -> Result<Vec<f64>, DecodeError> {
    let n = get_len_capped(r, cap)?;
    Ok(r.get_f64_vec(n)?)
}

fn get_vec3(r: &mut ByteReader<'_>) -> Result<Vec3, DecodeError> {
    Ok(Vec3::new(r.get_f64()?, r.get_f64()?, r.get_f64()?))
}

/// A length-prefixed [`Vec3`] vector holding at most `cap` samples.
fn get_vec3s(r: &mut ByteReader<'_>, cap: usize) -> Result<Vec<Vec3>, DecodeError> {
    let n = get_len_capped(r, cap)?;
    Ok(r.get_le_vec(n, vec3_from_le)?)
}

/// A length-prefixed `u64` array (histogram buckets, per-worker counts)
/// of at most `MAX_HIST_BUCKETS` entries; an over-cap *or* short array is
/// [`DecodeError::BadLength`].
fn get_u64s(r: &mut ByteReader<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = get_len(r)?;
    if n > MAX_HIST_BUCKETS || r.remaining() < n * 8 {
        return Err(DecodeError::BadLength);
    }
    Ok(r.get_le_vec(n, u64::from_le_bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_session() -> SessionData {
        SessionData {
            claimed_speaker: 7,
            audio: vec![0.25, -0.5, 0.125],
            audio2: Some(vec![0.1, 0.0, -0.1]),
            audio_rate: 48_000.0,
            pilot_hz: 18_500.0,
            mag_readings: vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(-1.0, 0.5, 2.5)],
            accel_readings: vec![Vec3::new(0.1, 0.2, 0.3)],
            gyro_readings: vec![Vec3::new(0.0, 0.0, 0.7)],
            imu_rate: 100.0,
            sweep_start_s: 1.0,
            earth_reference: Vec3::new(0.0, 28.0, -39.0),
        }
    }

    #[test]
    fn request_round_trip() {
        let s = sample_session();
        let frame = encode_request(42, &s);
        match decode_frame(&frame).unwrap() {
            Message::VerifyRequest {
                request_id,
                session,
            } => {
                assert_eq!(request_id, 42);
                assert_eq!(session, s);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn response_round_trip() {
        let verdict = DefenseVerdict::from_results(vec![
            ComponentResult {
                component: Component::Loudspeaker,
                attack_score: 1.25,
                detail: "deviation 40 µT".into(),
            },
            ComponentResult {
                component: Component::SpeakerIdentity,
                attack_score: 0.5,
                detail: "LLR 0.25".into(),
            },
        ]);
        let frame = encode_response(9, &verdict);
        match decode_frame(&frame).unwrap() {
            Message::VerifyResponse {
                request_id,
                verdict: v,
            } => {
                assert_eq!(request_id, 9);
                assert_eq!(v, verdict);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn sld_tag_round_trips() {
        // The v2 tag (4) must survive the wire and decode back to Sld,
        // distinct from Distance.
        assert_eq!(component_tag(Component::Sld), 4);
        let verdict = DefenseVerdict::from_results(vec![ComponentResult {
            component: Component::Sld,
            attack_score: 0.7,
            detail: "SLD 8.1 dB".into(),
        }]);
        let frame = encode_response(11, &verdict);
        match decode_frame(&frame).unwrap() {
            Message::VerifyResponse { verdict: v, .. } => {
                assert_eq!(v.results().next().unwrap().component, Component::Sld);
                assert_eq!(v, verdict);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn short_circuited_verdict_round_trips() {
        let verdict = DefenseVerdict::from_stages(vec![
            StageOutcome::Ran(ComponentResult {
                component: Component::Loudspeaker,
                attack_score: 3.0,
                detail: "deviation 40 µT".into(),
            }),
            StageOutcome::Skipped(SkippedStage {
                component: Component::SpeakerIdentity,
                cause: Component::Loudspeaker,
            }),
        ]);
        let frame = encode_response(12, &verdict);
        match decode_frame(&frame).unwrap() {
            Message::VerifyResponse { verdict: v, .. } => {
                assert_eq!(v, verdict);
                let sk = v.skipped_of(Component::SpeakerIdentity).unwrap();
                assert_eq!(sk.cause, Component::Loudspeaker);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn invalid_verdict_round_trips() {
        let verdict = DefenseVerdict::rejected_invalid("empty audio".into());
        let frame = encode_response(13, &verdict);
        match decode_frame(&frame).unwrap() {
            Message::VerifyResponse { verdict: v, .. } => assert_eq!(v, verdict),
            other => panic!("wrong message: {other:?}"),
        }
    }

    /// Scalars that arrive raw off the wire (`get_session` for a verify
    /// request, `StreamOpen` for a stream) and that `validate` must
    /// refuse: a NaN pilot (every comparison with NaN is false), a pilot
    /// at or above the audio's Nyquist frequency (infinite, huge or just
    /// at `audio_rate / 2`), a NaN sweep mark and a non-finite
    /// Earth-field reference.
    #[test]
    fn malformed_wire_scalars_come_back_rejected_invalid() {
        use crate::scenario::ScenarioBuilder;
        use crate::server::VerificationServer;
        use crate::session::SessionError;
        use crate::stream::chunk_session;
        use magshield_simkit::rng::SimRng;

        let (system, user) = crate::test_support::shared_tiny_system();
        let srv = VerificationServer::spawn(system.with_fresh_obs(), 1);
        let client = srv.client();
        let genuine = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(91));
        type Spoil = fn(&mut SessionData);
        let nyquist = genuine.audio_rate / 2.0;
        let cases: [(Spoil, SessionError); 6] = [
            (
                |s| s.pilot_hz = f64::NAN,
                SessionError::PilotTooLow(f64::NAN),
            ),
            (
                |s| s.pilot_hz = f64::INFINITY,
                SessionError::PilotTooHigh(f64::INFINITY),
            ),
            (|s| s.pilot_hz = 1e300, SessionError::PilotTooHigh(1e300)),
            (
                |s| s.pilot_hz = s.audio_rate / 2.0,
                SessionError::PilotTooHigh(nyquist),
            ),
            (|s| s.sweep_start_s = f64::NAN, SessionError::BadSweepMark),
            (
                |s| s.earth_reference.y = f64::INFINITY,
                SessionError::NonFiniteData,
            ),
        ];
        for (spoil, error) in cases {
            let mut session = genuine.clone();
            spoil(&mut session);
            let reason = error.to_string();
            // The scalar crosses the wire as sent.
            match decode_frame(&encode_request(1, &session)).unwrap() {
                Message::VerifyRequest { session: got, .. } => {
                    assert_eq!(got.pilot_hz.to_bits(), session.pilot_hz.to_bits());
                    assert_eq!(got.sweep_start_s.to_bits(), session.sweep_start_s.to_bits());
                    assert_eq!(got.earth_reference, session.earth_reference);
                }
                other => panic!("wrong message: {other:?}"),
            }
            let one_shot = client.verify(&session).expect("verdict");
            assert_eq!(
                one_shot.invalid.as_deref(),
                Some(reason.as_str()),
                "one-shot"
            );
            assert!(!one_shot.accepted(), "one-shot: {reason}");
            let stream = client
                .open_stream(
                    &StreamOpenInfo::for_session(&session),
                    StreamConfig::default(),
                )
                .expect("stream opens");
            for chunk in chunk_session(&session, 48_000) {
                stream.send_chunk(&chunk).expect("chunk reply");
            }
            let streamed = stream.close().expect("final verdict");
            assert_eq!(streamed.invalid.as_deref(), Some(reason.as_str()), "stream");
            assert!(!streamed.accepted(), "stream: {reason}");
        }
        srv.shutdown();
    }

    #[test]
    fn response_rejects_truncation_everywhere() {
        let verdict = DefenseVerdict::from_stages(vec![
            StageOutcome::Ran(ComponentResult {
                component: Component::Sld,
                attack_score: 2.0,
                detail: "x".into(),
            }),
            StageOutcome::Skipped(SkippedStage {
                component: Component::SpeakerIdentity,
                cause: Component::Sld,
            }),
        ]);
        let frame = encode_response(1, &verdict);
        for cut in 0..frame.len() {
            let r = decode_frame(&frame[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded: {r:?}");
        }
    }

    #[test]
    fn response_rejects_bad_outcome_tag() {
        let mut b = header(T_VERIFY_RESPONSE, 0);
        b.put_u64(1); // request id
        b.put_u8(0); // reject
        b.put_u8(0); // not invalid
        b.put_u8(0); // no generation stamp
        b.put_u32(1); // one stage
        b.put_u8(component_tag(Component::Distance));
        b.put_u8(9); // neither RAN nor SKIPPED
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadType(9)));
    }

    #[test]
    fn generation_stamp_round_trips() {
        // v4: a served verdict carries the registry generation that
        // produced it; an unstamped verdict stays None on the wire.
        let stamped = DefenseVerdict::from_results(vec![ComponentResult {
            component: Component::Loudspeaker,
            attack_score: 0.25,
            detail: "ok".into(),
        }])
        .with_generation(7);
        let frame = encode_response(30, &stamped);
        match decode_frame(&frame).unwrap() {
            Message::VerifyResponse { verdict: v, .. } => {
                assert_eq!(v.generation, Some(7));
                assert_eq!(v, stamped);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn enroll_round_trip() {
        let utterances = vec![vec![0.5, -0.25, 0.125], vec![], vec![1.0]];
        let frame = encode_enroll(31, 4040, &utterances);
        match decode_frame(&frame).unwrap() {
            Message::Enroll {
                request_id,
                speaker_id,
                utterances: u,
            } => {
                assert_eq!(request_id, 31);
                assert_eq!(speaker_id, 4040);
                assert_eq!(u, utterances);
            }
            other => panic!("wrong message: {other:?}"),
        }
        let frame = encode_enroll_response(31, 4040, 2);
        assert_eq!(
            decode_frame(&frame).unwrap(),
            Message::EnrollResponse {
                request_id: 31,
                speaker_id: 4040,
                generation: 2
            }
        );
    }

    #[test]
    fn enroll_rejects_hostile_utterance_count() {
        let mut b = header(T_ENROLL, 0);
        b.put_u64(1); // request id
        b.put_u32(9); // speaker
        b.put_u32((MAX_ENROLL_UTTERANCES + 1) as u32);
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadLength));
    }

    #[test]
    fn swap_bundle_round_trip() {
        // The bundle payload travels opaquely — arbitrary bytes survive.
        let payload: Vec<u8> = (0..=255).collect();
        let frame = encode_swap_bundle(32, &payload);
        match decode_frame(&frame).unwrap() {
            Message::SwapBundle {
                request_id,
                bundle_bytes,
            } => {
                assert_eq!(request_id, 32);
                assert_eq!(bundle_bytes, payload);
            }
            other => panic!("wrong message: {other:?}"),
        }
        let frame = encode_swap_bundle_response(32, 5);
        assert_eq!(
            decode_frame(&frame).unwrap(),
            Message::SwapBundleResponse {
                request_id: 32,
                generation: 5
            }
        );
    }

    #[test]
    fn v4_frames_reject_truncation_everywhere() {
        let frames = [
            encode_enroll(1, 9, &[vec![0.5, 1.5], vec![-0.25]]),
            encode_enroll_response(2, 9, 3),
            encode_swap_bundle(3, &[1, 2, 3, 4, 5]),
            encode_swap_bundle_response(4, 6),
            encode_response(
                5,
                &DefenseVerdict::from_results(vec![ComponentResult {
                    component: Component::Distance,
                    attack_score: 0.5,
                    detail: "d".into(),
                }])
                .with_generation(9),
            ),
        ];
        for frame in frames {
            for cut in 0..frame.len() {
                let r = decode_frame(&frame[..cut]);
                assert!(r.is_err(), "prefix of {cut} bytes decoded: {r:?}");
            }
        }
    }

    #[test]
    fn retired_stats_tags_decode_as_bad_type() {
        // 4/5: the stats view; 6/7: the batch frames.
        for tag in [4u8, 5, 6, 7] {
            let mut b = header(tag, 8);
            b.put_u64(1); // request id
            assert_eq!(
                decode_frame(&b.into_bytes()),
                Err(DecodeError::BadType(tag))
            );
        }
    }

    #[test]
    fn metrics_response_rejects_hostile_bucket_count() {
        let mut b = header(T_METRICS_RESPONSE, 0);
        b.put_u64(1); // request id
        b.put_u32(0); // counters
        b.put_u32(0); // gauges
        b.put_u32(1); // histograms
        b.put_string("h");
        b.put_u64(0); // count
        b.put_u64(0); // sum
        b.put_u64(0); // max
        b.put_u32(u32::MAX); // absurd bucket count
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadLength));
    }

    #[test]
    fn error_round_trip() {
        let frame = encode_error(3, "boom");
        assert_eq!(
            decode_frame(&frame).unwrap(),
            Message::Error {
                request_id: 3,
                message: "boom".into()
            }
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let mut frame = encode_error(1, "x");
        frame[0] = 0xFF;
        assert_eq!(decode_frame(&frame), Err(DecodeError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut frame = encode_error(1, "x");
        frame[2] = 99;
        assert_eq!(decode_frame(&frame), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let frame = encode_request(1, &sample_session());
        // Every prefix must fail cleanly, never panic.
        for cut in 0..frame.len() {
            let r = decode_frame(&frame[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded: {r:?}");
        }
    }

    #[test]
    fn rejects_hostile_length() {
        let mut b = header(T_ERROR, 0);
        b.put_u64(1);
        b.put_u32(u32::MAX); // absurd string length
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadLength));
    }

    #[test]
    fn rejects_unknown_type() {
        let b = header(200, 0);
        assert_eq!(
            decode_frame(&b.into_bytes()),
            Err(DecodeError::BadType(200))
        );
    }

    // ---------- telemetry plane (protocol v5) ----------

    fn sample_snapshot() -> MetricsSnapshot {
        use magshield_obs::labels::Labels;
        let registry = magshield_obs::metrics::Registry::default();
        registry.counter("batch.verdicts").add(12);
        registry
            .counter_with("batch.shed", &Labels::new().shed_reason("shutdown"))
            .add(3);
        registry
            .gauge_with("server.queue.depth", &Labels::new().policy("short_circuit"))
            .set(7);
        let hist = registry.histogram_with(
            "pipeline.stage.seconds",
            &Labels::new().stage("distance").policy("full"),
        );
        hist.record_secs_with_exemplar(0.004, "speaker-7");
        hist.record_secs_with_exemplar(0.250, "speaker-9");
        registry.snapshot()
    }

    #[test]
    fn metrics_request_round_trip() {
        let frame = encode_metrics_request(88);
        assert_eq!(
            decode_frame(&frame).unwrap(),
            Message::MetricsRequest { request_id: 88 }
        );
    }

    #[test]
    fn metrics_response_round_trips_labels_and_exemplars() {
        let snap = sample_snapshot();
        let exposition = magshield_obs::export::render_text(&snap);
        let frame = encode_metrics_response(6, &snap, &exposition);
        match decode_frame(&frame).unwrap() {
            Message::MetricsResponse {
                request_id,
                snapshot,
                exposition: expo,
            } => {
                assert_eq!(request_id, 6);
                assert_eq!(snapshot, snap);
                assert_eq!(expo, exposition);
                // Labeled series keys survive verbatim…
                assert!(snapshot
                    .counters
                    .contains_key("batch.shed{shed_reason=\"shutdown\"}"));
                // …and so do the exemplars inside the histogram.
                let hist = snapshot
                    .histograms
                    .get("pipeline.stage.seconds{policy=\"full\",stage=\"distance\"}")
                    .expect("labeled histogram survives");
                assert_eq!(hist.exemplars.len(), 2);
                assert!(hist.exemplars.iter().any(|e| e.trace_id == "speaker-9"));
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn metrics_response_rejects_truncation_everywhere() {
        let snap = sample_snapshot();
        let frame = encode_metrics_response(1, &snap, "expo");
        for cut in 0..frame.len() {
            let r = decode_frame(&frame[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded: {r:?}");
        }
    }

    #[test]
    fn metrics_response_rejects_hostile_series_count() {
        let mut b = header(T_METRICS_RESPONSE, 0);
        b.put_u64(1); // request id
        b.put_u32((MAX_METRIC_SERIES + 1) as u32); // absurd counter count
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadLength));
    }

    #[test]
    fn histogram_rejects_hostile_exemplar_count() {
        let mut b = header(T_METRICS_RESPONSE, 0);
        b.put_u64(1); // request id
        b.put_u32(0); // no counters
        b.put_u32(0); // no gauges
        b.put_u32(1); // one histogram
        b.put_string("h");
        b.put_u64(0); // count
        b.put_u64(0); // sum_ns
        b.put_u64(0); // max_ns
        b.put_u32(0); // no buckets
        b.put_u32((MAX_WIRE_EXEMPLARS + 1) as u32); // absurd exemplars
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadLength));
    }

    fn sample_report() -> HealthReport {
        HealthReport {
            state: HealthState::Degraded,
            statuses: vec![
                SloStatus {
                    name: "verify-latency".into(),
                    burn: BurnRate {
                        short: 7.25,
                        long: 6.5,
                    },
                    state: HealthState::Degraded,
                },
                SloStatus {
                    name: "tenant-acme-availability".into(),
                    burn: BurnRate {
                        short: 0.0,
                        long: 0.1,
                    },
                    state: HealthState::Healthy,
                },
            ],
            notes: vec!["shed ratio 0.08 over 300s".into()],
        }
    }

    #[test]
    fn health_round_trip() {
        let frame = encode_health_request(55);
        assert_eq!(
            decode_frame(&frame).unwrap(),
            Message::HealthRequest { request_id: 55 }
        );
        let report = sample_report();
        let frame = encode_health_response(55, &report);
        match decode_frame(&frame).unwrap() {
            Message::HealthResponse {
                request_id,
                report: r,
            } => {
                assert_eq!(request_id, 55);
                assert_eq!(r, report);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn health_response_rejects_truncation_everywhere() {
        let frame = encode_health_response(1, &sample_report());
        for cut in 0..frame.len() {
            let r = decode_frame(&frame[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded: {r:?}");
        }
    }

    #[test]
    fn health_response_rejects_unknown_state_byte() {
        let mut b = header(T_HEALTH_RESPONSE, 0);
        b.put_u64(1); // request id
        b.put_u8(9); // no such health state
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadType(9)));
    }

    // ---------- streaming (protocol v6) ----------

    fn sample_open_info() -> StreamOpenInfo {
        StreamOpenInfo {
            claimed_speaker: 7,
            audio_rate: 48_000.0,
            imu_rate: 100.0,
            pilot_hz: 18_500.0,
            sweep_start_s: 1.0,
            earth_reference: Vec3::new(0.0, 28.0, -39.0),
            dual_mic: true,
        }
    }

    fn sample_chunk() -> SessionChunk {
        SessionChunk {
            audio: vec![0.25, -0.5, 0.125],
            audio2: vec![0.1, 0.0],
            mag: vec![Vec3::new(1.0, 2.0, 3.0)],
            accel: vec![Vec3::new(0.1, 0.2, 0.3)],
            gyro: vec![],
        }
    }

    #[test]
    fn stream_open_round_trip() {
        let info = sample_open_info();
        let stream = StreamConfig {
            reverify_every_chunks: 8,
            terminate_on_reverify: true,
            policy: ExecutionPolicy::ShortCircuit,
        };
        let frame = encode_stream_open(90, 5, &info, stream);
        match decode_frame(&frame).unwrap() {
            Message::StreamOpen {
                request_id,
                stream_id,
                info: i,
                stream: s,
            } => {
                assert_eq!(request_id, 90);
                assert_eq!(stream_id, 5);
                assert_eq!(i, info);
                assert_eq!(s, stream);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn stream_chunk_round_trip() {
        let chunk = sample_chunk();
        let frame = encode_stream_chunk(91, 5, &chunk);
        match decode_frame(&frame).unwrap() {
            Message::StreamChunk {
                request_id,
                stream_id,
                chunk: c,
            } => {
                assert_eq!(request_id, 91);
                assert_eq!(stream_id, 5);
                assert_eq!(c, chunk);
            }
            other => panic!("wrong message: {other:?}"),
        }
        // An all-empty chunk survives too (pure keep-alive).
        let frame = encode_stream_chunk(92, 5, &SessionChunk::default());
        match decode_frame(&frame).unwrap() {
            Message::StreamChunk { chunk, .. } => assert!(chunk.is_empty()),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn stream_verdict_round_trips_every_kind() {
        let verdict = DefenseVerdict::from_stages(vec![
            StageOutcome::Ran(ComponentResult {
                component: Component::Loudspeaker,
                attack_score: 3.4,
                detail: "mid-stream deviation".into(),
            }),
            StageOutcome::Skipped(SkippedStage {
                component: Component::SpeakerIdentity,
                cause: Component::Loudspeaker,
            }),
        ])
        .with_generation(4);
        for (kind, v) in [
            (StreamVerdictKind::Pending, None),
            (StreamVerdictKind::EarlyReject, Some(&verdict)),
            (StreamVerdictKind::ReverifyReject, Some(&verdict)),
            (StreamVerdictKind::Final, Some(&verdict)),
        ] {
            let frame = encode_stream_verdict(93, 6, kind, 11, v);
            match decode_frame(&frame).unwrap() {
                Message::StreamVerdict {
                    request_id,
                    stream_id,
                    kind: k,
                    chunks,
                    verdict: dv,
                } => {
                    assert_eq!(request_id, 93);
                    assert_eq!(stream_id, 6);
                    assert_eq!(k, kind);
                    assert_eq!(chunks, 11);
                    assert_eq!(dv.as_ref(), v);
                }
                other => panic!("wrong message: {other:?}"),
            }
        }
    }

    #[test]
    fn stream_close_round_trip() {
        let frame = encode_stream_close(94, 6);
        assert_eq!(
            decode_frame(&frame).unwrap(),
            Message::StreamClose {
                request_id: 94,
                stream_id: 6
            }
        );
    }

    #[test]
    fn v6_stream_frames_reject_truncation_everywhere() {
        let verdict = DefenseVerdict::from_results(vec![ComponentResult {
            component: Component::Loudspeaker,
            attack_score: 3.4,
            detail: "x".into(),
        }])
        .with_generation(2);
        let frames = [
            encode_stream_open(1, 2, &sample_open_info(), StreamConfig::default()),
            encode_stream_chunk(3, 2, &sample_chunk()),
            encode_stream_verdict(4, 2, StreamVerdictKind::EarlyReject, 3, Some(&verdict)),
            encode_stream_verdict(5, 2, StreamVerdictKind::Pending, 3, None),
            encode_stream_close(6, 2),
        ];
        for frame in frames {
            for cut in 0..frame.len() {
                let r = decode_frame(&frame[..cut]);
                assert!(r.is_err(), "prefix of {cut} bytes decoded: {r:?}");
            }
        }
    }

    #[test]
    fn stream_chunk_rejects_hostile_sample_counts() {
        // An oversized declared audio count is refused before any
        // allocation, even though the frame itself is tiny.
        let mut b = header(T_STREAM_CHUNK, 0);
        b.put_u64(1); // request id
        b.put_u64(2); // stream id
        b.put_u32((MAX_CHUNK_SAMPLES + 1) as u32); // absurd audio count
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadLength));

        // Same for the IMU vectors deeper in the frame.
        let mut b = header(T_STREAM_CHUNK, 0);
        b.put_u64(1);
        b.put_u64(2);
        b.put_u32(0); // no audio
        b.put_u32(0); // no audio2
        b.put_u32(u32::MAX); // absurd magnetometer count
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadLength));
    }

    #[test]
    fn stream_verdict_rejects_bad_kind_tag() {
        let mut b = header(T_STREAM_VERDICT, 0);
        b.put_u64(1); // request id
        b.put_u64(2); // stream id
        b.put_u8(9); // no such kind
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadType(9)));
    }

    #[test]
    fn stream_open_rejects_bad_flag_and_policy_bytes() {
        let good = encode_stream_open(1, 2, &sample_open_info(), StreamConfig::default());
        // dual_mic byte lives right after the 8 header/id bytes + 4 + 7×8.
        let dual_mic_at = 4 + 8 + 8 + 4 + 7 * 8;
        let mut bad = good.clone();
        bad[dual_mic_at] = 7;
        assert_eq!(decode_frame(&bad), Err(DecodeError::BadType(7)));
        // The policy byte is the last byte of the frame.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() = 9;
        assert_eq!(decode_frame(&bad), Err(DecodeError::BadType(9)));
        // The terminate_on_reverify flag sits just before it.
        let n = good.len();
        let mut bad = good;
        bad[n - 2] = 3;
        assert_eq!(decode_frame(&bad), Err(DecodeError::BadType(3)));
    }

    #[test]
    fn health_response_rejects_hostile_status_count() {
        let mut b = header(T_HEALTH_RESPONSE, 0);
        b.put_u64(1); // request id
        b.put_u8(0); // healthy
        b.put_u32((MAX_HEALTH_ENTRIES + 1) as u32); // absurd status count
        assert_eq!(decode_frame(&b.into_bytes()), Err(DecodeError::BadLength));
    }

    #[test]
    fn verdict_frames_reject_a_decision_byte_other_than_0_or_1() {
        let verdict = DefenseVerdict::from_results(vec![ComponentResult {
            component: Component::SpeakerIdentity,
            attack_score: 0.25,
            detail: "LLR 0.5".into(),
        }]);
        // The decision byte leads the verdict: after the request id in a
        // verify response; after the request and stream ids, kind tag,
        // chunk count and verdict flag in a stream verdict.
        let frames = [
            (encode_response(1, &verdict), HEADER_LEN + 8),
            (
                encode_stream_verdict(3, 4, StreamVerdictKind::Final, 5, Some(&verdict)),
                HEADER_LEN + 8 + 8 + 1 + 4 + 1,
            ),
        ];
        for (frame, at) in frames {
            for decision in [Decision::Accept, Decision::Reject] {
                let mut good = frame.clone();
                good[at] = u8::from(decision == Decision::Accept);
                let decoded = match decode_frame(&good).unwrap() {
                    Message::VerifyResponse { verdict, .. } => verdict,
                    Message::StreamVerdict {
                        verdict: Some(v), ..
                    } => v,
                    other => panic!("wrong message: {other:?}"),
                };
                assert_eq!(decoded.decision, decision, "type {}", frame[3]);
            }
            for b in 2..=u8::MAX {
                let mut bad = frame.clone();
                bad[at] = b;
                assert_eq!(
                    decode_frame(&bad),
                    Err(DecodeError::BadType(b)),
                    "type {} decision byte {b}",
                    frame[3]
                );
            }
        }
    }

    #[test]
    fn every_message_kind_rejects_a_trailing_byte() {
        let verdict = DefenseVerdict::from_results(vec![ComponentResult {
            component: Component::Loudspeaker,
            attack_score: 0.5,
            detail: "d".into(),
        }])
        .with_generation(3);
        let snap = sample_snapshot();
        let frames = [
            encode_request(1, &sample_session()),
            encode_response(2, &verdict),
            encode_error(3, "boom"),
            encode_enroll(8, 9, &[vec![0.5]]),
            encode_enroll_response(9, 9, 1),
            encode_swap_bundle(10, &[1, 2, 3]),
            encode_swap_bundle_response(11, 2),
            encode_metrics_request(12),
            encode_metrics_response(13, &snap, "expo"),
            encode_health_request(14),
            encode_health_response(15, &sample_report()),
            encode_stream_open(16, 1, &sample_open_info(), StreamConfig::default()),
            encode_stream_chunk(17, 1, &sample_chunk()),
            encode_stream_verdict(18, 1, StreamVerdictKind::Final, 2, Some(&verdict)),
            encode_stream_close(19, 1),
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for frame in frames {
            kinds.insert(frame[3]);
            assert!(
                decode_frame(&frame).is_ok(),
                "type {} must decode",
                frame[3]
            );
            let mut long = frame.clone();
            long.push(0);
            assert_eq!(decode_frame(&long), Err(DecodeError::TrailingBytes(1)));
        }
        // Every assigned tag: 1..=19 less the retired stats and batch tags.
        assert_eq!(kinds.len(), (T_VERIFY_REQUEST..=T_STREAM_CLOSE).count() - 4);
    }
}

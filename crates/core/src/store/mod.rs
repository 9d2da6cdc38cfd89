//! The durable model store: crash-safe persistence for serving state.
//!
//! The [`ModelRegistry`](crate::registry::ModelRegistry) is purely
//! in-memory — a restart loses every online enrollment since the last
//! manual bundle export. This module layers durability under it:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ DefenseSystem::{try_enroll_speaker, try_swap_bundle}         │  API
//! ├──────────────────────────────────────────────────────────────┤
//! │ DurableStore   journal-before-publish, replay, compaction    │  durable
//! ├──────────────────────────┬───────────────────────────────────┤
//! │ base.bin (GoldenBase)    │ wal.log (WalHeader + WalRecord*)  │  files
//! └──────────────────────────┴───────────────────────────────────┘
//! ```
//!
//! * **`base.bin`** — a golden [`ModelBundle`] frame tagged with the
//!   generation it represents ([`wal::GoldenBase`], magic `MWGB`).
//! * **`wal.log`** — a [`wal::WalHeader`] frame (magic `MWAL`) followed
//!   by append-only [`wal::WalRecord`] frames (magic `MWLR`), one per
//!   enrollment or bundle swap, each carrying the generation it
//!   published. Enrollments ship as kilobyte
//!   [`DeltaSpeakerRecord`](magshield_asv::delta::DeltaSpeakerRecord)s
//!   when the model is a means-only MAP adaptation of the serving UBM
//!   (always true for models produced by the engine itself), falling
//!   back to full `SpeakerModel` frames otherwise.
//!
//! **Invariants** (proved by the kill-point suite in
//! `tests/durable_store.rs`):
//!
//! 1. *Journal before publish.* A mutation is appended and fsynced to
//!    the WAL before the registry publishes it, under one lock, so WAL
//!    order equals publication order and no served generation can be
//!    lost by a crash. Delta enrollments resolve their UBM prior *under
//!    that lock* (a model adapted from an older engine falls back to a
//!    full record), and a registry that moved without a WAL record is
//!    refused with [`StoreError::GenerationSkew`] rather than journaled
//!    over.
//! 2. *Torn tails are data loss of at most the in-flight record.* Every
//!    frame is length-prefixed and FNV-1a/64 checksummed; replay stops
//!    at the first bad frame and truncates it away. Anything before it
//!    was fsynced and replays exactly.
//! 3. *Replay is bit-exact.* [`DefenseSystem::open_durable`] recovers
//!    the exact pre-crash generation, and the recovered models serve
//!    verdicts bit-identical to the pre-crash system.
//! 4. *Compaction is crash-ordered.* [`DurableStore::compact`] renames
//!    the new golden base into place **before** rewriting the WAL, with
//!    a directory fsync after each rename so the ordering survives
//!    power loss, and replay skips records at or below the base
//!    generation — a crash between the two renames recovers to the
//!    same state.
//!
//! [`DefenseSystem::open_durable`]: crate::pipeline::DefenseSystem::open_durable
//! [`ModelBundle`]: crate::artifact::ModelBundle

pub mod admin;
pub mod durable;
pub mod wal;

pub use admin::{inspect, StoreInspection};
pub use durable::{DurableStore, RecoveredState, StoreMetrics};
pub use wal::{GoldenBase, TailStatus, WalHeader, WalOp, WalRecord, WalScan};

use crate::config::ConfigError;
use magshield_asv::model::EnrollError;
use magshield_ml::codec::CodecError;
use magshield_ml::delta::DeltaError;
use std::error::Error;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Name of the golden-base file inside a store directory.
pub const BASE_FILE: &str = "base.bin";
/// Name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// Typed failure opening, replaying or mutating a durable store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (open, append, fsync, rename, truncate).
    Io(io::Error),
    /// A frame decoded to a typed codec error that tail-truncation
    /// cannot excuse: the golden base, or a nested artifact inside an
    /// otherwise checksum-valid record.
    Codec(CodecError),
    /// A replayed bundle or snapshot failed semantic validation.
    Config(ConfigError),
    /// An enrollment was refused before anything was journaled or
    /// published (its utterances yielded no feature frames).
    Enroll(EnrollError),
    /// A delta record refused to reconstruct (wrong UBM fingerprint or
    /// shape) — the WAL and base disagree about the engine.
    Delta(DeltaError),
    /// The WAL header frame is missing or corrupt. Headers are written
    /// atomically (tmp + rename), so this is real corruption, not a
    /// torn append — refuse to guess rather than replay garbage.
    CorruptHeader {
        /// Path of the offending WAL.
        path: PathBuf,
        /// Why the header frame failed to decode.
        source: CodecError,
    },
    /// Replayable records are not contiguous from the base generation —
    /// a record was lost from the *middle* of the log, which append-only
    /// truncation can never produce.
    GenerationGap {
        /// The generation replay expected next.
        expected: u64,
        /// The generation actually found.
        found: u64,
    },
    /// The WAL header claims a newer base than the golden-base file —
    /// impossible under the compaction ordering (base renamed first),
    /// so one of the files was swapped from a different store.
    HeaderAheadOfBase {
        /// Generation of the golden base on disk.
        base: u64,
        /// Base generation the WAL header claims.
        header: u64,
    },
    /// The registry's generation diverged from the write-ahead log's —
    /// a mutation reached the registry without being journaled. The
    /// store refuses further journaling rather than writing records
    /// that replay would reject as a [`StoreError::GenerationGap`].
    GenerationSkew {
        /// Last generation the write-ahead log accounts for.
        wal: u64,
        /// Generation the registry actually published.
        registry: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store I/O failure: {e}"),
            Self::Codec(e) => write!(f, "store artifact failure: {e}"),
            Self::Config(e) => write!(f, "store replayed an invalid model set: {e}"),
            Self::Enroll(e) => write!(f, "enrollment refused: {e}"),
            Self::Delta(e) => write!(f, "store delta record failure: {e}"),
            Self::CorruptHeader { path, source } => {
                write!(f, "corrupt WAL header in {}: {source}", path.display())
            }
            Self::GenerationGap { expected, found } => write!(
                f,
                "WAL generation gap: expected generation {expected}, found {found}"
            ),
            Self::HeaderAheadOfBase { base, header } => write!(
                f,
                "WAL header claims base generation {header} but the golden base is at {base}"
            ),
            Self::GenerationSkew { wal, registry } => write!(
                f,
                "registry generation {registry} diverged from the write-ahead log's {wal}: \
                 a mutation bypassed the journal"
            ),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Codec(e) => Some(e),
            Self::Config(e) => Some(e),
            Self::Enroll(e) => Some(e),
            Self::Delta(e) => Some(e),
            Self::CorruptHeader { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

impl From<ConfigError> for StoreError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<EnrollError> for StoreError {
    fn from(e: EnrollError) -> Self {
        Self::Enroll(e)
    }
}

impl From<DeltaError> for StoreError {
    fn from(e: DeltaError) -> Self {
        Self::Delta(e)
    }
}

//! On-disk formats of the durable store: golden base, WAL header and
//! WAL records, plus the torn-tail-tolerant scanner and the fsyncing
//! appender.
//!
//! All three artifacts use the workspace codec envelope
//! ([`magshield_ml::codec`]): magic, version, length prefix, FNV-1a/64
//! checksum. Frames are therefore self-delimiting — the scanner walks
//! the log by length prefix alone and a frame that fails to decode
//! marks the torn tail (see [`scan_wal`]).
//!
//! | frame | magic | versions | payload |
//! |---|---|---|---|
//! | [`GoldenBase`] | `MWGB` | 1 | `generation u64`, nested [`ModelBundle`] |
//! | [`WalHeader`] | `MWAL` | 1 | `base_generation u64` |
//! | [`WalRecord`] | `MWLR` | 1–2 | `generation u64`, kind `u8`, nested artifact |
//!
//! Record kinds: `1` = delta enrollment
//! ([`DeltaSpeakerRecord`], v2 only — v1 logs predate delta records),
//! `2` = bundle swap (nested [`ModelBundle`]), `3` = full-model
//! enrollment (nested [`SpeakerModel`], the fallback when a model is
//! not a means-only adaptation of the serving UBM).

use crate::artifact::ModelBundle;
use magshield_asv::delta::DeltaSpeakerRecord;
use magshield_asv::model::SpeakerModel;
use magshield_ml::codec::{self, BinaryCodec, ByteReader, ByteWriter, CodecError};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Codec envelope prefix: magic (4) + version (1) + payload length (4).
const FRAME_HEADER_LEN: usize = 9;
/// Trailing FNV-1a/64 checksum.
const FRAME_CHECKSUM_LEN: usize = 8;

/// The compacted serving state a WAL replays on top of: a full
/// [`ModelBundle`] stamped with the generation it was exported at.
#[derive(Debug, Clone)]
pub struct GoldenBase {
    /// Registry generation this bundle is the exact serving state of.
    pub generation: u64,
    /// The serving models.
    pub bundle: ModelBundle,
}

impl BinaryCodec for GoldenBase {
    const MAGIC: u32 = codec::magic(b"MWGB");
    const VERSION: u8 = 1;
    const NAME: &'static str = "GoldenBase";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_u64(self.generation);
        w.put_artifact(&self.bundle);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let generation = r.get_u64()?;
        if generation == 0 {
            return Err(CodecError::Invalid {
                artifact: Self::NAME,
                reason: "base generation must be positive".to_string(),
            });
        }
        Ok(Self {
            generation,
            bundle: ModelBundle::from_bytes(r.get_nested()?)?,
        })
    }
}

/// First frame of every WAL file: names the base generation the records
/// that follow apply on top of. Rewritten only by compaction, via an
/// atomic tmp + rename, so a torn header is real corruption — replay
/// refuses it rather than guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Generation of the golden base this log extends.
    pub base_generation: u64,
}

impl BinaryCodec for WalHeader {
    const MAGIC: u32 = codec::magic(b"MWAL");
    const VERSION: u8 = 1;
    const NAME: &'static str = "WalHeader";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_u64(self.base_generation);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let base_generation = r.get_u64()?;
        if base_generation == 0 {
            return Err(CodecError::Invalid {
                artifact: Self::NAME,
                reason: "base generation must be positive".to_string(),
            });
        }
        Ok(Self { base_generation })
    }
}

/// What one WAL record did to the registry.
#[derive(Debug, Clone)]
pub enum WalOp {
    /// An enrollment stored as a sparse delta against the serving UBM —
    /// the kilobyte-scale common case.
    EnrollDelta(DeltaSpeakerRecord),
    /// A whole-bundle hot-swap.
    Swap(Box<ModelBundle>),
    /// An enrollment stored as a full model — the fallback when the
    /// model is not a means-only adaptation of the serving UBM.
    EnrollFull(Box<SpeakerModel>),
}

impl WalOp {
    /// Short human-readable kind name (admin tooling).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::EnrollDelta(_) => "enroll-delta",
            Self::Swap(_) => "swap",
            Self::EnrollFull(_) => "enroll-full",
        }
    }
}

/// One journaled registry mutation: the generation it published plus
/// the operation. Appended (and fsynced) *before* the registry
/// publishes the generation.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Generation this record's publication produced.
    pub generation: u64,
    /// The mutation.
    pub op: WalOp,
}

impl BinaryCodec for WalRecord {
    const MAGIC: u32 = codec::magic(b"MWLR");
    /// v2 added delta enrollments (kind 1); v1 logs carry only swaps and
    /// full enrollments.
    const VERSION: u8 = 2;
    const MIN_VERSION: u8 = 1;
    const NAME: &'static str = "WalRecord";

    fn encode_payload(&self, w: &mut ByteWriter) {
        w.put_u64(self.generation);
        match &self.op {
            WalOp::EnrollDelta(rec) => {
                w.put_u8(1);
                w.put_artifact(rec);
            }
            WalOp::Swap(bundle) => {
                w.put_u8(2);
                w.put_artifact(&**bundle);
            }
            WalOp::EnrollFull(model) => {
                w.put_u8(3);
                w.put_artifact(&**model);
            }
        }
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Self::decode_versioned_payload(Self::VERSION, r)
    }

    fn decode_versioned_payload(version: u8, r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let generation = r.get_u64()?;
        if generation == 0 {
            return Err(CodecError::Invalid {
                artifact: Self::NAME,
                reason: "record generation must be positive".to_string(),
            });
        }
        let kind = r.get_u8()?;
        let op = match kind {
            // Delta enrollments only exist from v2 on; a v1 frame
            // claiming kind 1 is lying about its version.
            1 if version >= 2 => {
                WalOp::EnrollDelta(DeltaSpeakerRecord::from_bytes(r.get_nested()?)?)
            }
            2 => WalOp::Swap(Box::new(ModelBundle::from_bytes(r.get_nested()?)?)),
            3 => WalOp::EnrollFull(Box::new(SpeakerModel::from_bytes(r.get_nested()?)?)),
            found => {
                return Err(CodecError::BadTag {
                    what: "WAL record kind",
                    found,
                })
            }
        };
        Ok(Self { generation, op })
    }
}

/// State of the bytes after the last whole record in a scanned WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ends exactly on a record boundary.
    Clean,
    /// The log ends in a torn or corrupt frame: `bytes` bytes starting
    /// at `offset` failed to parse as a record. Recovery truncates them
    /// — they are the in-flight append the crash interrupted.
    Torn {
        /// Byte offset of the first unparseable frame.
        offset: usize,
        /// Bytes from `offset` to end of log.
        bytes: usize,
    },
}

/// One record recovered by [`scan_wal`], with its position in the log.
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// Byte offset of the record's frame.
    pub offset: usize,
    /// Frame length in bytes (envelope included).
    pub frame_len: usize,
    /// The decoded record.
    pub record: WalRecord,
}

/// Result of scanning a WAL byte image: the header, every whole record
/// in append order, and the tail status.
#[derive(Debug, Clone)]
pub struct WalScan {
    /// The log's header frame.
    pub header: WalHeader,
    /// Whole, checksum-valid records in append order.
    pub records: Vec<ScannedRecord>,
    /// Whether the log ends cleanly or in a torn frame.
    pub tail: TailStatus,
}

impl WalScan {
    /// The generation the log replays to: the last record's, or the
    /// header's base generation for an empty log.
    pub fn last_generation(&self) -> u64 {
        self.records
            .last()
            .map_or(self.header.base_generation, |r| r.record.generation)
    }
}

/// Frame length (envelope included) promised by the length prefix at
/// `bytes[offset..]`, or `None` if even the prefix is truncated.
fn framed_len(bytes: &[u8], offset: usize) -> Option<usize> {
    let rest = &bytes[offset..];
    if rest.len() < FRAME_HEADER_LEN {
        return None;
    }
    let payload = u32::from_le_bytes(rest[5..9].try_into().unwrap()) as usize;
    Some(FRAME_HEADER_LEN + payload + FRAME_CHECKSUM_LEN)
}

/// Scans a WAL byte image: decodes the header, then every whole record
/// until the first torn or corrupt frame.
///
/// Pure over the bytes — never touches the filesystem, so admin tooling
/// can inspect a log without mutating it. A bad *header* is a hard
/// [`CodecError`] (headers are written atomically; see [`WalHeader`]);
/// a bad record marks the torn tail and scanning stops — append-only
/// logs cannot have valid data after an unsynced tail, and replaying
/// past corruption would serve models of unknown provenance.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, CodecError> {
    let header_len = framed_len(bytes, 0).ok_or(CodecError::Truncated {
        needed: FRAME_HEADER_LEN,
        available: bytes.len(),
    })?;
    if bytes.len() < header_len {
        return Err(CodecError::Truncated {
            needed: header_len,
            available: bytes.len(),
        });
    }
    let header = WalHeader::from_bytes(&bytes[..header_len])?;
    let mut records = Vec::new();
    let mut offset = header_len;
    let mut tail = TailStatus::Clean;
    while offset < bytes.len() {
        let whole = framed_len(bytes, offset)
            .filter(|&len| offset + len <= bytes.len())
            .and_then(|len| {
                WalRecord::from_bytes(&bytes[offset..offset + len])
                    .ok()
                    .map(|record| (len, record))
            });
        match whole {
            Some((frame_len, record)) => {
                records.push(ScannedRecord {
                    offset,
                    frame_len,
                    record,
                });
                offset += frame_len;
            }
            None => {
                tail = TailStatus::Torn {
                    offset,
                    bytes: bytes.len() - offset,
                };
                break;
            }
        }
    }
    Ok(WalScan {
        header,
        records,
        tail,
    })
}

/// Append handle on a WAL file: writes one fsynced frame per record.
///
/// Durability contract: [`WalAppender::append`] returns only after the
/// record's bytes have been flushed **and** `sync_data`'d, so a crash
/// at any later point cannot lose the record — only an append cut down
/// mid-call can tear, and the torn frame fails its checksum on replay.
#[derive(Debug)]
pub struct WalAppender {
    file: File,
    path: PathBuf,
}

impl WalAppender {
    /// Creates a fresh WAL at `path` containing only `header` (fsynced),
    /// failing if the file already exists.
    pub fn create(path: &Path, header: WalHeader) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().write(true).create_new(true).open(path)?;
        file.write_all(&header.to_bytes())?;
        file.sync_data()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing WAL for appending at its current end. The
    /// caller is responsible for having truncated any torn tail first
    /// (see [`scan_wal`]).
    pub fn open_end(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends one record frame and fsyncs it; returns the frame size in
    /// bytes.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<usize> {
        let frame = record.to_bytes();
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        Ok(frame.len())
    }

    /// Path of the log being appended to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::BundleMeta;
    use magshield_ml::codec::assert_hostile_input_fails;

    fn fixture_bundle() -> ModelBundle {
        let (sys, _) = crate::test_support::shared_tiny_system();
        ModelBundle::from_snapshot(
            BundleMeta {
                producer: "wal-tests".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: false,
                notes: String::new(),
            },
            &sys.models(),
        )
    }

    fn delta_record(generation: u64) -> WalRecord {
        let bundle = fixture_bundle();
        let model = bundle.speakers[0].clone();
        let delta =
            magshield_asv::delta::DeltaSpeakerRecord::encode(&bundle.engine.ubm, &model).unwrap();
        WalRecord {
            generation,
            op: WalOp::EnrollDelta(delta),
        }
    }

    #[test]
    fn header_and_records_round_trip() {
        let header = WalHeader { base_generation: 3 };
        assert_eq!(WalHeader::from_bytes(&header.to_bytes()).unwrap(), header);

        let rec = delta_record(4);
        let back = WalRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(back.generation, 4);
        assert!(matches!(back.op, WalOp::EnrollDelta(_)));
        assert_eq!(back.to_bytes(), rec.to_bytes());
    }

    #[test]
    fn scan_walks_a_multi_record_log() {
        let header = WalHeader { base_generation: 1 };
        let mut log = header.to_bytes();
        let full = WalRecord {
            generation: 2,
            op: WalOp::EnrollFull(Box::new(fixture_bundle().speakers[0].clone())),
        };
        let swap = WalRecord {
            generation: 3,
            op: WalOp::Swap(Box::new(fixture_bundle())),
        };
        for r in [&full, &swap, &delta_record(4)] {
            log.extend_from_slice(&r.to_bytes());
        }
        let scan = scan_wal(&log).unwrap();
        assert_eq!(scan.header, header);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.last_generation(), 4);
        assert_eq!(
            scan.records
                .iter()
                .map(|r| r.record.op.kind())
                .collect::<Vec<_>>(),
            ["enroll-full", "swap", "enroll-delta"]
        );
        // Offsets + lengths tile the log exactly.
        let mut expect = scan.records[0].offset;
        for r in &scan.records {
            assert_eq!(r.offset, expect);
            expect += r.frame_len;
        }
        assert_eq!(expect, log.len());
    }

    #[test]
    fn scan_stops_at_a_torn_tail() {
        let mut log = WalHeader { base_generation: 1 }.to_bytes();
        log.extend_from_slice(&delta_record(2).to_bytes());
        let torn_start = log.len();
        log.extend_from_slice(&delta_record(3).to_bytes()[..17]); // torn append
        let scan = scan_wal(&log).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(
            scan.tail,
            TailStatus::Torn {
                offset: torn_start,
                bytes: log.len() - torn_start
            }
        );
        assert_eq!(scan.last_generation(), 2);
    }

    #[test]
    fn scan_refuses_a_corrupt_header() {
        let mut log = WalHeader { base_generation: 1 }.to_bytes();
        log[6] ^= 0x40; // corrupt the header's length prefix
        assert!(scan_wal(&log).is_err());
        assert!(scan_wal(&[]).is_err());
        assert!(scan_wal(&log[..4]).is_err());
    }

    #[test]
    fn v1_frames_decode_but_not_with_delta_kind() {
        // Rewrite a record frame as version 1, recomputing the checksum:
        // swap/full kinds must decode, the delta kind must be refused.
        let downgrade = |rec: &WalRecord| {
            let mut frame = rec.to_bytes();
            frame[4] = 1;
            let body_end = frame.len() - 8;
            let checksum = magshield_ml::codec::fnv1a_64(&frame[..body_end]);
            frame[body_end..].copy_from_slice(&checksum.to_le_bytes());
            frame
        };
        let swap = WalRecord {
            generation: 2,
            op: WalOp::Swap(Box::new(fixture_bundle())),
        };
        let back = WalRecord::from_bytes(&downgrade(&swap)).unwrap();
        assert!(matches!(back.op, WalOp::Swap(_)));

        match WalRecord::from_bytes(&downgrade(&delta_record(2))) {
            Err(CodecError::BadTag { what, found: 1 }) => {
                assert_eq!(what, "WAL record kind");
            }
            other => panic!("v1 delta record must be a bad tag, got {other:?}"),
        }
    }

    #[test]
    fn golden_base_round_trips() {
        let base = GoldenBase {
            generation: 5,
            bundle: fixture_bundle(),
        };
        let back = GoldenBase::from_bytes(&base.to_bytes()).unwrap();
        assert_eq!(back.generation, 5);
        assert_eq!(back.to_bytes(), base.to_bytes());
    }

    #[test]
    fn hostile_input_yields_typed_errors() {
        assert_hostile_input_fails::<WalHeader>(&WalHeader { base_generation: 9 }.to_bytes());
        assert_hostile_input_fails::<WalRecord>(&delta_record(2).to_bytes());
    }

    pub(crate) use super::test_support::tempdir;

    #[test]
    fn appender_journal_survives_reopen() {
        let dir = tempdir("wal-appender");
        let path = dir.join(crate::store::WAL_FILE);
        let mut ap = WalAppender::create(&path, WalHeader { base_generation: 1 }).unwrap();
        ap.append(&delta_record(2)).unwrap();
        ap.append(&delta_record(3)).unwrap();
        drop(ap);
        let mut ap = WalAppender::open_end(&path).unwrap();
        ap.append(&delta_record(4)).unwrap();
        let scan = scan_wal(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.last_generation(), 4);
        assert_eq!(scan.tail, TailStatus::Clean);
        assert!(WalAppender::create(&path, WalHeader { base_generation: 1 }).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared scratch-directory helper for store tests.
    use std::path::PathBuf;

    /// A fresh per-test scratch directory under the system temp dir.
    pub(crate) fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "magshield-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

//! [`DurableStore`]: journal-before-publish persistence around the
//! model registry, with crash-recovery replay and log compaction.
//!
//! See the [module docs](crate::store) for the file layout and the four
//! durability invariants. This type owns the filesystem side; the
//! [`DefenseSystem`](crate::pipeline::DefenseSystem) wires it to its
//! registry via `open_durable` / `create_durable` /
//! `try_enroll_speaker` / `try_swap_bundle` / `compact_store`.

use super::wal::{scan_wal, GoldenBase, TailStatus, WalAppender, WalHeader, WalOp, WalRecord};
use super::{StoreError, BASE_FILE, WAL_FILE};
use crate::artifact::{BundleMeta, ModelBundle};
use crate::registry::{ModelRegistry, ModelSnapshot};
use magshield_asv::delta::DeltaSpeakerRecord;
use magshield_asv::model::SpeakerModel;
use magshield_ml::codec::BinaryCodec;
use magshield_obs::metrics::{Counter, Histogram, Registry};
use magshield_obs::sync::lock;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

/// Observability handles for the store (cheap clones, shared sinks).
///
/// All four live in the system's metrics [`Registry`] under the
/// `store.wal.*` names documented in DESIGN.md §16.
#[derive(Debug, Clone)]
pub struct StoreMetrics {
    /// `store.wal.append.seconds` — append + fsync latency per record.
    pub append_seconds: Histogram,
    /// `store.wal.replay.seconds` — full open-and-replay latency.
    pub replay_seconds: Histogram,
    /// `store.wal.compact.seconds` — compaction latency.
    pub compact_seconds: Histogram,
    /// `store.wal.records` — records appended or replayed through this
    /// store handle.
    pub records: Counter,
}

impl StoreMetrics {
    /// Handles bound into `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        Self {
            append_seconds: registry.histogram("store.wal.append.seconds"),
            replay_seconds: registry.histogram("store.wal.replay.seconds"),
            compact_seconds: registry.histogram("store.wal.compact.seconds"),
            records: registry.counter("store.wal.records"),
        }
    }

    /// Handles recording into a throwaway registry (admin tooling that
    /// has no metrics plane).
    pub fn detached() -> Self {
        Self::from_registry(&Registry::default())
    }
}

/// What [`DurableStore::open`] recovered from disk.
#[derive(Debug)]
pub struct RecoveredState {
    /// The exact pre-crash registry generation.
    pub generation: u64,
    /// The serving models at that generation.
    pub snapshot: ModelSnapshot,
    /// Bundle provenance carried forward for future compactions.
    pub meta: BundleMeta,
    /// WAL records replayed on top of the golden base.
    pub records_replayed: usize,
    /// Bytes of torn tail truncated away (0 for a clean shutdown).
    pub torn_bytes_truncated: usize,
}

/// State every mutation serializes through: the append handle, the
/// provenance the next compaction will stamp its golden base with, and
/// the last generation the log accounts for.
#[derive(Debug)]
struct StoreState {
    appender: WalAppender,
    meta: BundleMeta,
    /// Generation the WAL replays to: base generation at creation,
    /// recovered generation at open, bumped by every journaled record.
    /// Journaling refuses ([`StoreError::GenerationSkew`]) when the
    /// registry's generation disagrees — that means a mutation reached
    /// the registry without going through the journal, and any further
    /// record would replay as a [`StoreError::GenerationGap`].
    last_generation: u64,
}

/// The durability layer under a served model registry.
///
/// One mutex serializes every journaled mutation; it is held across
/// *append-then-publish*, so WAL order always equals publication order
/// and the journaled generation is exactly the one the registry
/// publishes. Reads (verification traffic) never touch the store.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    state: Mutex<StoreState>,
    metrics: StoreMetrics,
}

impl DurableStore {
    /// Initializes a store directory from a validated bundle: writes the
    /// golden base at `generation` [`ModelRegistry::FIRST_GENERATION`]
    /// and an empty WAL on top of it. Fails if either file already
    /// exists — a store is created once and thereafter only
    /// [`DurableStore::open`]ed.
    pub fn create(
        dir: &Path,
        bundle: &ModelBundle,
        metrics: StoreMetrics,
    ) -> Result<Self, StoreError> {
        bundle.validate()?;
        fs::create_dir_all(dir)?;
        let base_path = dir.join(BASE_FILE);
        if base_path.exists() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already holds a store", dir.display()),
            )));
        }
        let base = GoldenBase {
            generation: ModelRegistry::FIRST_GENERATION,
            bundle: bundle.clone(),
        };
        write_atomically(&base_path, &base.to_bytes())?;
        let appender = WalAppender::create(
            &dir.join(WAL_FILE),
            WalHeader {
                base_generation: base.generation,
            },
        )?;
        // The WAL's directory entry must survive power loss too.
        fsync_dir(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            state: Mutex::new(StoreState {
                appender,
                meta: bundle.meta.clone(),
                last_generation: base.generation,
            }),
            metrics,
        })
    }

    /// Opens an existing store: decodes the golden base, scans the WAL,
    /// truncates any torn tail in place, and replays every surviving
    /// record to reconstruct the exact pre-crash serving state.
    ///
    /// Records at or below the base generation are skipped (they were
    /// folded into the base by a compaction whose WAL rewrite a crash
    /// interrupted); the remaining records must be contiguous from the
    /// base generation — a gap means mid-log data loss, which
    /// append-only truncation cannot produce, so replay refuses it.
    pub fn open(dir: &Path, metrics: StoreMetrics) -> Result<(Self, RecoveredState), StoreError> {
        let t = Instant::now();
        let base = GoldenBase::from_bytes(&fs::read(dir.join(BASE_FILE))?)?;
        base.bundle.validate()?;

        let wal_path = dir.join(WAL_FILE);
        let wal_bytes = fs::read(&wal_path)?;
        let scan = scan_wal(&wal_bytes).map_err(|source| StoreError::CorruptHeader {
            path: wal_path.clone(),
            source,
        })?;
        if scan.header.base_generation > base.generation {
            return Err(StoreError::HeaderAheadOfBase {
                base: base.generation,
                header: scan.header.base_generation,
            });
        }
        let torn_bytes_truncated = match scan.tail {
            TailStatus::Clean => 0,
            TailStatus::Torn { offset, bytes } => {
                let wal_file = fs::OpenOptions::new().write(true).open(&wal_path)?;
                wal_file.set_len(offset as u64)?;
                wal_file.sync_all()?;
                bytes
            }
        };

        let mut meta = base.bundle.meta.clone();
        let base_generation = base.generation;
        let mut snapshot = base.bundle.into_snapshot();
        let mut generation = base_generation;
        let mut records_replayed = 0usize;
        for scanned in &scan.records {
            let record = &scanned.record;
            if record.generation <= generation && records_replayed == 0 {
                // Folded into the base by a compaction that crashed
                // before rewriting the WAL header.
                continue;
            }
            if record.generation != generation + 1 {
                return Err(StoreError::GenerationGap {
                    expected: generation + 1,
                    found: record.generation,
                });
            }
            apply(&mut snapshot, &mut meta, &record.op)?;
            generation = record.generation;
            records_replayed += 1;
        }

        let store = Self {
            dir: dir.to_path_buf(),
            state: Mutex::new(StoreState {
                appender: WalAppender::open_end(&wal_path)?,
                meta: meta.clone(),
                last_generation: generation,
            }),
            metrics,
        };
        store.metrics.records.add(records_replayed as u64);
        store.metrics.replay_seconds.record(t.elapsed());
        Ok((
            store,
            RecoveredState {
                generation,
                snapshot,
                meta,
                records_replayed,
                torn_bytes_truncated,
            },
        ))
    }

    /// Journals an enrollment, then publishes it to `registry` —
    /// returning the new generation.
    ///
    /// The model ships as a sparse delta against the UBM `registry`
    /// serves *at journal time, under the store lock* — which is exactly
    /// the UBM replay will have reconstructed when it reaches this
    /// record, because every UBM-changing swap is journaled through the
    /// same lock. A model adapted from an older engine (its enrollment
    /// raced a swap) refuses to delta-encode and ships as a full,
    /// UBM-independent record instead.
    pub fn journal_enroll(
        &self,
        registry: &ModelRegistry,
        model: SpeakerModel,
    ) -> Result<u64, StoreError> {
        let mut state = lock(&self.state);
        let generation = Self::next_generation(&state, registry)?;
        let serving = registry.snapshot();
        let op = match DeltaSpeakerRecord::encode(&serving.engine.ubm, &model) {
            Ok(delta) => WalOp::EnrollDelta(delta),
            Err(_) => WalOp::EnrollFull(Box::new(model.clone())),
        };
        drop(serving);
        self.append(&mut state, WalRecord { generation, op })?;
        state.last_generation = generation;
        let published = registry.enroll(model);
        if published != generation {
            return Err(StoreError::GenerationSkew {
                wal: generation,
                registry: published,
            });
        }
        Ok(published)
    }

    /// Journals a whole-bundle swap, then publishes it to `registry` —
    /// returning the new generation.
    pub fn journal_swap(
        &self,
        registry: &ModelRegistry,
        bundle: ModelBundle,
    ) -> Result<u64, StoreError> {
        bundle.validate()?;
        let mut state = lock(&self.state);
        let generation = Self::next_generation(&state, registry)?;
        self.append(
            &mut state,
            WalRecord {
                generation,
                op: WalOp::Swap(Box::new(bundle.clone())),
            },
        )?;
        state.last_generation = generation;
        state.meta = bundle.meta.clone();
        let published = registry.swap(bundle.into_snapshot());
        if published != generation {
            return Err(StoreError::GenerationSkew {
                wal: generation,
                registry: published,
            });
        }
        Ok(published)
    }

    /// The generation the next record will journal, verifying (in release
    /// builds too) that the registry has not moved without a WAL record —
    /// journaling on top of an unjournaled mutation would write a record
    /// replay rejects as a [`StoreError::GenerationGap`].
    fn next_generation(state: &StoreState, registry: &ModelRegistry) -> Result<u64, StoreError> {
        let published = registry.generation();
        if published != state.last_generation {
            return Err(StoreError::GenerationSkew {
                wal: state.last_generation,
                registry: published,
            });
        }
        Ok(state.last_generation + 1)
    }

    /// Folds the registry's current state into a fresh golden base and
    /// truncates the WAL to just a header — bounding replay cost.
    /// Returns the generation the base was exported at.
    ///
    /// Crash-ordering: the new base is renamed into place **and made
    /// durable** (file + directory fsync) *before* the WAL is rewritten.
    /// A crash between the two leaves old records alongside a newer
    /// base; replay skips records at or below the base generation, so
    /// recovery lands on the same state either way. The directory fsync
    /// is what makes the ordering real: without it a power loss could
    /// persist the WAL rename but not the base rename, a state replay
    /// refuses as [`StoreError::HeaderAheadOfBase`].
    pub fn compact(&self, registry: &ModelRegistry) -> Result<u64, StoreError> {
        let t = Instant::now();
        let mut state = lock(&self.state);
        let (generation, snapshot) = registry.load();
        if generation != state.last_generation {
            return Err(StoreError::GenerationSkew {
                wal: state.last_generation,
                registry: generation,
            });
        }
        let bundle = ModelBundle::from_snapshot(state.meta.clone(), &snapshot);
        let base = GoldenBase { generation, bundle };
        write_atomically(&self.dir.join(BASE_FILE), &base.to_bytes())?;
        let wal_path = self.dir.join(WAL_FILE);
        let header = WalHeader {
            base_generation: generation,
        };
        write_atomically(&wal_path, &header.to_bytes())?;
        state.appender = WalAppender::open_end(&wal_path)?;
        self.metrics.compact_seconds.record(t.elapsed());
        Ok(generation)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The provenance the next compaction will stamp its base with.
    pub fn meta(&self) -> BundleMeta {
        lock(&self.state).meta.clone()
    }

    fn append(&self, state: &mut StoreState, record: WalRecord) -> Result<(), StoreError> {
        let t = Instant::now();
        state.appender.append(&record)?;
        self.metrics.append_seconds.record(t.elapsed());
        self.metrics.records.inc();
        Ok(())
    }
}

/// Applies one WAL operation to a snapshot under replay, mirroring what
/// the registry did when the record was journaled.
fn apply(
    snapshot: &mut ModelSnapshot,
    meta: &mut BundleMeta,
    op: &WalOp,
) -> Result<(), StoreError> {
    match op {
        WalOp::EnrollDelta(record) => {
            let model = record.reconstruct(&snapshot.engine.ubm)?;
            snapshot.speakers.insert(model.speaker_id, Arc::new(model));
        }
        WalOp::EnrollFull(model) => {
            snapshot
                .speakers
                .insert(model.speaker_id, Arc::new(model.as_ref().clone()));
        }
        WalOp::Swap(bundle) => {
            bundle.validate()?;
            *meta = bundle.meta.clone();
            *snapshot = bundle.as_ref().clone().into_snapshot();
        }
    }
    Ok(())
}

/// Writes `bytes` to `path` via a same-directory temp file + rename +
/// directory fsync, so the file is either the old content or the new
/// content (never a torn mix) **and** the rename itself survives power
/// loss before the caller's next step — compaction's base-before-WAL
/// ordering depends on this barrier.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        use std::io::Write;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    fsync_dir(path.parent().unwrap_or_else(|| Path::new(".")))
}

/// Fsyncs a directory, making its entry mutations (renames, newly
/// created files) durable — data fsyncs alone do not cover them.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir; // Windows has no directory fsync; renames are best-effort.
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::BundleMeta;
    use crate::store::wal::test_support::tempdir;

    fn fixture_bundle(notes: &str) -> ModelBundle {
        let (sys, _) = crate::test_support::shared_tiny_system();
        ModelBundle::from_snapshot(
            BundleMeta {
                producer: "durable-tests".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: false,
                notes: notes.to_string(),
            },
            &sys.models(),
        )
    }

    fn enrollable_model(bundle: &ModelBundle, speaker_id: u32) -> SpeakerModel {
        let mut model = bundle.speakers[0].clone();
        model.speaker_id = speaker_id;
        model
    }

    #[test]
    fn journal_replay_round_trip_restores_generation_and_speakers() {
        let dir = tempdir("durable-roundtrip");
        let bundle = fixture_bundle("v0");
        let store = DurableStore::create(&dir, &bundle, StoreMetrics::detached()).unwrap();
        let registry = ModelRegistry::new(bundle.clone().into_snapshot());
        let g2 = store
            .journal_enroll(&registry, enrollable_model(&bundle, 7001))
            .unwrap();
        let g3 = store.journal_swap(&registry, fixture_bundle("v1")).unwrap();
        let g4 = store
            .journal_enroll(&registry, enrollable_model(&bundle, 7002))
            .unwrap();
        assert_eq!((g2, g3, g4), (2, 3, 4));

        let (_, recovered) = DurableStore::open(&dir, StoreMetrics::detached()).unwrap();
        assert_eq!(recovered.generation, 4);
        assert_eq!(recovered.records_replayed, 3);
        assert_eq!(recovered.torn_bytes_truncated, 0);
        assert_eq!(recovered.meta.notes, "v1");
        // The swap dropped speaker 7001; 7002 was enrolled after it.
        assert!(!recovered.snapshot.speakers.contains_key(&7001));
        assert!(recovered.snapshot.speakers.contains_key(&7002));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = tempdir("durable-torn");
        let bundle = fixture_bundle("v0");
        let store = DurableStore::create(&dir, &bundle, StoreMetrics::detached()).unwrap();
        let registry = ModelRegistry::new(bundle.clone().into_snapshot());
        store
            .journal_enroll(&registry, enrollable_model(&bundle, 7001))
            .unwrap();
        drop(store);
        // Simulate a crash mid-append: garbage after the last record.
        let wal = dir.join(WAL_FILE);
        let clean_len = std::fs::metadata(&wal).unwrap().len();
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[0xAB; 13]);
        std::fs::write(&wal, &bytes).unwrap();

        let (_, recovered) = DurableStore::open(&dir, StoreMetrics::detached()).unwrap();
        assert_eq!(recovered.generation, 2);
        assert_eq!(recovered.torn_bytes_truncated, 13);
        assert!(recovered.snapshot.speakers.contains_key(&7001));
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), clean_len);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_folds_the_log_and_preserves_state() {
        let dir = tempdir("durable-compact");
        let bundle = fixture_bundle("v0");
        let store = DurableStore::create(&dir, &bundle, StoreMetrics::detached()).unwrap();
        let registry = ModelRegistry::new(bundle.clone().into_snapshot());
        for id in [7001, 7002, 7003] {
            store
                .journal_enroll(&registry, enrollable_model(&bundle, id))
                .unwrap();
        }
        let wal_before = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(store.compact(&registry).unwrap(), 4);
        let wal_after = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(wal_after < wal_before, "{wal_after} !< {wal_before}");

        // Appends continue on the compacted log and replay correctly.
        store
            .journal_enroll(&registry, enrollable_model(&bundle, 7004))
            .unwrap();
        let (_, recovered) = DurableStore::open(&dir, StoreMetrics::detached()).unwrap();
        assert_eq!(recovered.generation, 5);
        assert_eq!(recovered.records_replayed, 1);
        for id in [7001, 7002, 7003, 7004] {
            assert!(recovered.snapshot.speakers.contains_key(&id), "{id}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_compaction_renames_recovers_identically() {
        // Reproduce the window where the base rename landed but the WAL
        // rewrite did not: old records sit below a newer base.
        let dir = tempdir("durable-compact-crash");
        let bundle = fixture_bundle("v0");
        let store = DurableStore::create(&dir, &bundle, StoreMetrics::detached()).unwrap();
        let registry = ModelRegistry::new(bundle.clone().into_snapshot());
        for id in [7001, 7002] {
            store
                .journal_enroll(&registry, enrollable_model(&bundle, id))
                .unwrap();
        }
        let old_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        store.compact(&registry).unwrap();
        drop(store);
        // "Crash": restore the pre-compaction WAL next to the new base.
        std::fs::write(dir.join(WAL_FILE), &old_wal).unwrap();

        let (_, recovered) = DurableStore::open(&dir, StoreMetrics::detached()).unwrap();
        assert_eq!(recovered.generation, 3);
        assert_eq!(recovered.records_replayed, 0, "records below base skipped");
        for id in [7001, 7002] {
            assert!(recovered.snapshot.speakers.contains_key(&id), "{id}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generation_gap_is_refused() {
        let dir = tempdir("durable-gap");
        let bundle = fixture_bundle("v0");
        let store = DurableStore::create(&dir, &bundle, StoreMetrics::detached()).unwrap();
        let registry = ModelRegistry::new(bundle.clone().into_snapshot());
        for id in [7001, 7002, 7003] {
            store
                .journal_enroll(&registry, enrollable_model(&bundle, id))
                .unwrap();
        }
        drop(store);
        // Surgically delete the *middle* record (generation 3).
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        let scan = scan_wal(&bytes).unwrap();
        let mid = &scan.records[1];
        let mut cut = bytes[..mid.offset].to_vec();
        cut.extend_from_slice(&bytes[mid.offset + mid.frame_len..]);
        std::fs::write(&wal_path, &cut).unwrap();

        match DurableStore::open(&dir, StoreMetrics::detached()) {
            Err(StoreError::GenerationGap { expected, found }) => {
                assert_eq!((expected, found), (3, 4));
            }
            other => panic!("expected GenerationGap, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unjournaled_registry_mutation_is_refused_as_skew() {
        // A mutation that bypasses the journal desynchronizes the
        // registry from the WAL; the next journaled call must refuse
        // (in release builds too) instead of appending a record that
        // replay would reject as a generation gap.
        let dir = tempdir("durable-skew");
        let bundle = fixture_bundle("v0");
        let store = DurableStore::create(&dir, &bundle, StoreMetrics::detached()).unwrap();
        let registry = ModelRegistry::new(bundle.clone().into_snapshot());
        registry.enroll(enrollable_model(&bundle, 7001));

        match store.journal_enroll(&registry, enrollable_model(&bundle, 7002)) {
            Err(StoreError::GenerationSkew { wal, registry }) => {
                assert_eq!((wal, registry), (1, 2));
            }
            other => panic!("expected GenerationSkew, got {other:?}"),
        }
        match store.journal_swap(&registry, fixture_bundle("v1")) {
            Err(StoreError::GenerationSkew { .. }) => {}
            other => panic!("expected GenerationSkew, got {other:?}"),
        }
        match store.compact(&registry) {
            Err(StoreError::GenerationSkew { .. }) => {}
            other => panic!("expected GenerationSkew, got {other:?}"),
        }
        // Nothing was appended: the store still replays to the base.
        let (_, recovered) = DurableStore::open(&dir, StoreMetrics::detached()).unwrap();
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.records_replayed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let dir = tempdir("durable-exists");
        let bundle = fixture_bundle("v0");
        DurableStore::create(&dir, &bundle, StoreMetrics::detached()).unwrap();
        assert!(matches!(
            DurableStore::create(&dir, &bundle, StoreMetrics::detached()),
            Err(StoreError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}

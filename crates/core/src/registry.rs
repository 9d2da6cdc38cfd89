//! Versioned, multi-tenant model registry — the serving-side model store.
//!
//! [`ModelRegistry`] holds the models a [`DefenseSystem`] serves with:
//! one immutable [`ModelSnapshot`] (ASV engine + enrolled speakers +
//! sound-field classifier + the thresholds they shipped with) tagged with
//! a monotonically increasing **generation** number. Mutations never edit
//! models in place:
//!
//! * [`ModelRegistry::enroll`] publishes a copy-on-write snapshot with
//!   one more speaker (the `Arc`-held models themselves — engine,
//!   speakers and sound-field classifier — are shared, only the map is
//!   rebuilt);
//! * [`ModelRegistry::swap`] atomically replaces the whole snapshot —
//!   hot-swapping a freshly trained
//!   [`ModelBundle`](crate::artifact::ModelBundle) under live traffic.
//!
//! Readers pin a snapshot once per verification (or per batch) via
//! [`ModelRegistry::load`] and keep scoring against that `Arc` even if a
//! swap lands mid-flight — every verdict is attributable to exactly one
//! generation and no verification ever observes a half-updated model set.
//! In-flight work on the old generation simply finishes on the old `Arc`,
//! which is freed when the last reader drops it.
//!
//! The steady-state read path is lock-free: a per-thread cache keyed by
//! (registry instance, generation) is revalidated with a single atomic
//! load, and the `RwLock` protecting the published snapshot is only
//! touched when the generation actually moved.
//!
//! [`DefenseSystem`]: crate::pipeline::DefenseSystem

use crate::components::sound_field::SoundFieldModel;
use crate::config::DefenseConfig;
use magshield_asv::model::{SpeakerModel, UbmBackend};
use magshield_obs::sync::{read, write};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// An immutable, internally consistent set of serving models.
///
/// Snapshots are only ever published whole: verification code that holds
/// an `Arc<ModelSnapshot>` is guaranteed the engine, the speaker map and
/// the sound-field model were trained (or enrolled) together.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// The thresholds this model set was validated against — what the
    /// producing [`ModelBundle`](crate::artifact::ModelBundle) shipped.
    pub config: DefenseConfig,
    /// The GMM–UBM ASV backend. `Arc`-shared like every model here,
    /// so a copy-on-write enrollment shares it with the snapshot it
    /// copies.
    pub engine: Arc<UbmBackend>,
    /// Enrolled speaker models by speaker id. Models are `Arc`-shared so
    /// copy-on-write enrollment only clones the map, not the GMMs.
    pub speakers: HashMap<u32, Arc<SpeakerModel>>,
    /// The sound-field classifier (`Arc`-shared, as `engine`).
    pub sound_field: Arc<SoundFieldModel>,
}

/// One published registry state: a snapshot plus the generation it was
/// published at. Immutable after publication.
#[derive(Debug)]
struct Versioned {
    generation: u64,
    snapshot: Arc<ModelSnapshot>,
}

/// Concurrent, versioned `speaker id → model` store with atomic hot-swap.
///
/// See the [module docs](self) for the consistency model. Constructed via
/// [`DefenseSystem::from_bundle`](crate::pipeline::DefenseSystem::from_bundle);
/// shared (`Arc`) by every clone of that system, so an enrollment through
/// one server worker is visible to all of them.
#[derive(Debug)]
pub struct ModelRegistry {
    /// Process-unique instance id keying the per-thread snapshot cache.
    id: u64,
    current: RwLock<Arc<Versioned>>,
    /// Mirror of `current.generation` for lock-free cache revalidation.
    generation: AtomicU64,
}

/// Process-wide source of registry instance ids (cache keys).
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

std::thread_local! {
    /// Per-thread `(registry id, generation, snapshot)` cache: the verify
    /// hot path revalidates it with one atomic load instead of taking the
    /// read lock. Holds at most one snapshot `Arc` per thread; it is
    /// replaced the next time the thread reads a registry whose
    /// generation moved.
    static SNAPSHOT_CACHE: RefCell<Option<(u64, u64, Arc<ModelSnapshot>)>> =
        const { RefCell::new(None) };
}

impl ModelRegistry {
    /// First generation number a fresh registry publishes at.
    pub const FIRST_GENERATION: u64 = 1;

    /// A registry serving `snapshot` at [`Self::FIRST_GENERATION`].
    pub fn new(snapshot: ModelSnapshot) -> Self {
        Self::new_at(snapshot, Self::FIRST_GENERATION)
    }

    /// A registry serving `snapshot` at an explicit `generation` — how
    /// crash recovery ([`DurableStore`](crate::store::DurableStore))
    /// resumes publishing exactly where the write-ahead log left off
    /// instead of restarting the counter.
    ///
    /// # Panics
    ///
    /// Panics if `generation` precedes [`Self::FIRST_GENERATION`].
    pub fn new_at(snapshot: ModelSnapshot, generation: u64) -> Self {
        assert!(
            generation >= Self::FIRST_GENERATION,
            "registry generations start at {}, got {generation}",
            Self::FIRST_GENERATION
        );
        Self {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            current: RwLock::new(Arc::new(Versioned {
                generation,
                snapshot: Arc::new(snapshot),
            })),
            generation: AtomicU64::new(generation),
        }
    }

    /// The current generation (bumped by every enroll and swap).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Pins the current `(generation, snapshot)` pair.
    ///
    /// Lock-free in the steady state: when this thread already cached the
    /// current generation of this registry, the call is one atomic load
    /// plus an `Arc` clone. The pair is internally consistent — the
    /// returned snapshot is exactly the one published at the returned
    /// generation.
    pub fn load(&self) -> (u64, Arc<ModelSnapshot>) {
        let current_gen = self.generation.load(Ordering::Acquire);
        let hit = SNAPSHOT_CACHE.with(|cache| {
            cache.borrow().as_ref().and_then(|(id, generation, snap)| {
                (*id == self.id && *generation == current_gen)
                    .then(|| (*generation, Arc::clone(snap)))
            })
        });
        if let Some(pinned) = hit {
            return pinned;
        }
        let v = read(&self.current).clone();
        SNAPSHOT_CACHE.with(|cache| {
            *cache.borrow_mut() = Some((self.id, v.generation, Arc::clone(&v.snapshot)));
        });
        (v.generation, Arc::clone(&v.snapshot))
    }

    /// The pinned snapshot alone (see [`Self::load`]).
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.load().1
    }

    /// Whether `speaker_id` has an enrolled model in the current
    /// generation.
    pub fn is_enrolled(&self, speaker_id: u32) -> bool {
        self.snapshot().speakers.contains_key(&speaker_id)
    }

    /// Number of speakers enrolled in the current generation.
    pub fn speaker_count(&self) -> usize {
        self.snapshot().speakers.len()
    }

    /// Publishes a copy-on-write snapshot with `model` enrolled (replacing
    /// any previous model for that speaker id) and returns the new
    /// generation. In-flight verifications keep the snapshot they pinned.
    pub fn enroll(&self, model: SpeakerModel) -> u64 {
        let mut guard = write(&self.current);
        let mut next = (*guard.snapshot).clone();
        next.speakers.insert(model.speaker_id, Arc::new(model));
        Self::publish(&mut guard, &self.generation, next)
    }

    /// Atomically replaces the entire snapshot — models, speakers and the
    /// bundled thresholds — and returns the new generation. In-flight
    /// verifications finish on the snapshot they pinned; new pins see the
    /// replacement.
    pub fn swap(&self, snapshot: ModelSnapshot) -> u64 {
        let mut guard = write(&self.current);
        Self::publish(&mut guard, &self.generation, snapshot)
    }

    /// Publishes `snapshot` at the next generation under the held write
    /// lock, then releases the new generation number to lock-free readers.
    fn publish(guard: &mut Arc<Versioned>, generation: &AtomicU64, snapshot: ModelSnapshot) -> u64 {
        let next_gen = guard.generation + 1;
        *guard = Arc::new(Versioned {
            generation: next_gen,
            snapshot: Arc::new(snapshot),
        });
        generation.store(next_gen, Ordering::Release);
        next_gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    /// A cheap snapshot derived from the shared tiny system, with
    /// `distance_tolerance` stamped to `marker` so tests can tell
    /// snapshots apart without retraining anything.
    fn marked_snapshot(marker: f64) -> ModelSnapshot {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let mut snap = (*sys.models()).clone();
        snap.config.distance_tolerance = marker;
        snap
    }

    #[test]
    fn starts_at_first_generation() {
        let reg = ModelRegistry::new(marked_snapshot(1.0));
        assert_eq!(reg.generation(), ModelRegistry::FIRST_GENERATION);
        let (generation, snap) = reg.load();
        assert_eq!(generation, ModelRegistry::FIRST_GENERATION);
        assert_eq!(snap.config.distance_tolerance, 1.0);
    }

    #[test]
    fn enroll_is_copy_on_write_and_bumps_the_generation() {
        let reg = ModelRegistry::new(marked_snapshot(1.0));
        let (g1, before) = reg.load();
        let n = before.speakers.len();
        let donor = before.speakers.values().next().expect("enrolled fixture");
        let mut extra = (**donor).clone();
        extra.speaker_id = 4040;
        let g2 = reg.enroll(extra);
        assert_eq!(g2, g1 + 1);
        assert_eq!(reg.generation(), g2);
        assert!(reg.is_enrolled(4040));
        assert_eq!(reg.speaker_count(), n + 1);
        // The pinned snapshot from before the enrollment is untouched.
        assert!(!before.speakers.contains_key(&4040));
        assert_eq!(before.speakers.len(), n);
        // The surviving models are shared, not cloned: speakers, the ASV
        // engine and the sound-field model.
        let after = reg.snapshot();
        let old_id = donor.speaker_id;
        assert!(Arc::ptr_eq(
            &before.speakers[&old_id],
            &after.speakers[&old_id]
        ));
        assert!(Arc::ptr_eq(&before.engine, &after.engine));
        assert!(Arc::ptr_eq(&before.sound_field, &after.sound_field));
    }

    #[test]
    fn swap_replaces_the_whole_snapshot() {
        let reg = ModelRegistry::new(marked_snapshot(10.0));
        let pinned = reg.snapshot();
        let g2 = reg.swap(marked_snapshot(20.0));
        assert_eq!(g2, 2);
        assert_eq!(reg.snapshot().config.distance_tolerance, 20.0);
        // The old pin still reads the old state.
        assert_eq!(pinned.config.distance_tolerance, 10.0);
    }

    #[test]
    fn load_is_generation_consistent_under_concurrent_swaps() {
        // The marker encodes the generation that published it: gen g
        // carries marker g as distance_tolerance. Readers must never see
        // a (generation, snapshot) pair that disagrees.
        let reg = Arc::new(ModelRegistry::new(marked_snapshot(1.0)));
        let stop = Arc::new(AtomicBool::new(false));
        let swapper = {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                for _ in 0..200 {
                    let next = reg.generation() + 1;
                    let published = reg.swap(marked_snapshot(next as f64));
                    assert_eq!(published, next);
                }
                stop.store(true, Ordering::Release);
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last_seen = 0u64;
                    let mut observations = 0u64;
                    while !stop.load(Ordering::Acquire) || observations == 0 {
                        let (generation, snap) = reg.load();
                        assert_eq!(
                            snap.config.distance_tolerance, generation as f64,
                            "snapshot/generation pair torn"
                        );
                        assert!(generation >= last_seen, "generation went backwards");
                        last_seen = generation;
                        observations += 1;
                    }
                    observations
                })
            })
            .collect();
        swapper.join().unwrap();
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(reg.generation(), 201);
    }

    #[test]
    fn starts_at_an_explicit_generation_for_recovery() {
        let reg = ModelRegistry::new_at(marked_snapshot(5.0), 7);
        assert_eq!(reg.generation(), 7);
        let (generation, snap) = reg.load();
        assert_eq!(generation, 7);
        assert_eq!(snap.config.distance_tolerance, 5.0);
        assert_eq!(
            reg.enroll((**snap.speakers.values().next().unwrap()).clone()),
            8
        );
    }

    #[test]
    #[should_panic(expected = "generations start at")]
    fn rejects_generation_zero() {
        ModelRegistry::new_at(marked_snapshot(1.0), 0);
    }

    #[test]
    fn cache_survives_registry_drop_and_recreate() {
        // ABA hazard: recovery tests drop a registry and open a new one
        // that can land at the same heap address AND the same generation.
        // The per-thread cache is keyed by a process-unique instance id
        // (not the pointer), so the stale entry must never be served.
        let marker_of = |reg: &ModelRegistry| reg.snapshot().config.distance_tolerance;
        let first = ModelRegistry::new_at(marked_snapshot(111.0), 3);
        assert_eq!(marker_of(&first), 111.0); // warm this thread's cache
        drop(first);
        for attempt in 0..8 {
            // Same generation as the dropped registry; the allocator is
            // free to reuse the freed address on any of these attempts.
            let reborn = ModelRegistry::new_at(marked_snapshot(222.0 + attempt as f64), 3);
            assert_eq!(
                marker_of(&reborn),
                222.0 + attempt as f64,
                "stale cached snapshot served for a re-created registry"
            );
        }
    }

    #[test]
    fn per_thread_cache_distinguishes_registries() {
        // Two live registries on one thread: the cache must never serve
        // one registry's snapshot for the other.
        let a = ModelRegistry::new(marked_snapshot(100.0));
        let b = ModelRegistry::new(marked_snapshot(200.0));
        for _ in 0..3 {
            assert_eq!(a.snapshot().config.distance_tolerance, 100.0);
            assert_eq!(b.snapshot().config.distance_tolerance, 200.0);
        }
        a.swap(marked_snapshot(101.0));
        assert_eq!(a.snapshot().config.distance_tolerance, 101.0);
        assert_eq!(b.snapshot().config.distance_tolerance, 200.0);
    }
}

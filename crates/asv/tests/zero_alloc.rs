//! Proof that the extraction and scoring fast paths are allocation-free
//! in steady state: a counting global allocator is armed around a
//! warmed-up `extract_into` call and warmed-up `score_detailed_opts`
//! calls (pruned and exact) and must observe zero heap traffic.
//!
//! The counter lives in its own integration-test binary (a
//! `#[global_allocator]` is process-wide) with a single `#[test]` so no
//! concurrent harness thread can pollute the armed window.

use magshield_asv::frontend::{FeatureExtractor, FrontendScratch};
use magshield_asv::model::UbmBackend;
use magshield_asv::ubm::{train_ubm, UbmConfig};
use magshield_dsp::frame::FrameMatrix;
use magshield_simkit::rng::SimRng;
use magshield_voice::corpus::voxforge_like;
use magshield_voice::synth::VOICE_SAMPLE_RATE;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator and counts every heap operation performed
/// by the *armed thread*. The armed flag is thread-local (const-init, so
/// reading it never allocates and `Cell<bool>` registers no destructor)
/// rather than global: the libtest harness owns other threads that may
/// legitimately allocate while the window is armed, and they must not
/// pollute the count.
struct CountingAlloc;

std::thread_local! {
    static ARMED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn armed() -> bool {
    // `try_with` so a late allocation during thread teardown can't panic
    // inside the allocator.
    ARMED.try_with(std::cell::Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn speechy(fs: f64) -> Vec<f64> {
    let mut v = vec![0.0; (0.3 * fs) as usize];
    for i in 0..(fs as usize) {
        let t = i as f64 / fs;
        v.push(
            (std::f64::consts::TAU * 150.0 * t).sin()
                + 0.4 * (std::f64::consts::TAU * 450.0 * t).sin(),
        );
    }
    v.extend(vec![0.0; (0.3 * fs) as usize]);
    v
}

/// A small trained backend, a speaker enrolled on it, and an utterance
/// of that speaker to score.
fn scoring_setup() -> (UbmBackend, magshield_asv::model::SpeakerModel, Vec<f64>) {
    let rng = SimRng::from_seed(21);
    let corpus = voxforge_like(3, &rng);
    let fx = FeatureExtractor::new(VOICE_SAMPLE_RATE);
    let frames: Vec<FrameMatrix> = corpus
        .utterances
        .iter()
        .map(|u| fx.extract(&u.audio))
        .collect();
    let ubm = train_ubm(
        &frames,
        UbmConfig {
            components: 16,
            em_iters: 4,
            max_frames: 6000,
        },
        &rng,
    );
    let backend = UbmBackend::new(fx, ubm).with_cohort(&frames);
    let utts = corpus.of_speaker(corpus.speakers[0].id);
    let model = backend.enroll(corpus.speakers[0].id, &[&utts[0].audio]);
    let probe = utts[1].audio.clone();
    (backend, model, probe)
}

#[test]
fn steady_state_extraction_and_scoring_are_allocation_free() {
    let fx = FeatureExtractor::new(16_000.0);
    let sig = speechy(16_000.0);
    let mut scratch = FrontendScratch::new();
    let mut out = FrameMatrix::default();
    let (backend, model, probe) = scoring_setup();

    // Warm-up: every buffer grows to its high-water mark, the per-thread
    // session scratch is registered and the prepared models are cached.
    fx.extract_into(&sig, &mut scratch, &mut out);
    let warm = out.clone();
    let warm_scores = [4, 0].map(|c| backend.score_detailed_opts(&model, &probe, c, false));

    ARMED.with(|a| a.set(true));
    fx.extract_into(&sig, &mut scratch, &mut out);
    let scores = [4, 0].map(|c| backend.score_detailed_opts(&model, &probe, c, false));
    ARMED.with(|a| a.set(false));

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "warmed extract_into and score_detailed_opts must not touch the heap: \
         {allocs} allocations / {bytes} bytes observed"
    );
    assert_eq!(out, warm, "steady-state output must be identical");
    assert_eq!(scores, warm_scores, "steady-state scores must be identical");
}

//! Proof that warmed GMM log-likelihood-ratio scoring — prepared
//! constants, top-C pruning and all — is allocation-free in steady
//! state, under a counting global allocator.
//!
//! Single `#[test]` in its own binary: the `#[global_allocator]` is
//! process-wide, so a lone test keeps the armed window unpolluted.

use magshield_dsp::frame::FrameMatrix;
use magshield_ml::gmm::{
    llr_score_prepared, llr_score_quantized, DiagonalGmm, PreparedGmm, QuantizedGmm, ScoreScratch,
};
use magshield_simkit::rng::SimRng;
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

fn armed() -> bool {
    // `try_with` so a late allocation during thread teardown can't panic
    // inside the allocator.
    ARMED.try_with(std::cell::Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_llr_scoring_is_allocation_free() {
    let mut r = SimRng::from_seed(41);
    let data: Vec<Vec<f64>> = (0..400)
        .map(|_| (0..8).map(|_| r.gauss(0.0, 2.0)).collect())
        .collect();
    let ubm = DiagonalGmm::train(&data, 16, 10, 1e-6, &SimRng::from_seed(42));
    let mut frames = FrameMatrix::new(8);
    for _ in 0..120 {
        let row = frames.alloc_row();
        for v in row.iter_mut() {
            *v = r.gauss(0.5, 2.0);
        }
    }
    let speaker = ubm.map_adapt_means(&frames, 16.0);
    let (spk, bg) = (PreparedGmm::new(&speaker), PreparedGmm::new(&ubm));
    let mut scratch = ScoreScratch::new();

    for top_c in [0usize, 8] {
        // Warm-up grows the scratch to its high-water mark for this path.
        let warm = llr_score_prepared(&spk, &bg, &frames, top_c, &mut scratch).score;

        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.with(|a| a.set(true));
        let rescore = llr_score_prepared(&spk, &bg, &frames, top_c, &mut scratch).score;
        ARMED.with(|a| a.set(false));

        let allocs = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            allocs, 0,
            "warmed llr_score_prepared(top_c={top_c}) must not touch the \
             heap: {allocs} allocations observed"
        );
        assert_eq!(
            rescore.to_bits(),
            warm.to_bits(),
            "rescore must be identical"
        );
    }

    // Same proof for the quantized scorer: dequantization happens in
    // registers inside the component pass, so a warmed scratch is all the
    // state it needs.
    let spk_q = QuantizedGmm::from_prepared(&PreparedGmm::new(&speaker));
    let bg_q = QuantizedGmm::from_prepared(&PreparedGmm::new(&ubm));
    for top_c in [0usize, 8] {
        let warm = llr_score_quantized(&spk_q, &bg_q, &frames, top_c, &mut scratch).score;

        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.with(|a| a.set(true));
        let rescore = llr_score_quantized(&spk_q, &bg_q, &frames, top_c, &mut scratch).score;
        ARMED.with(|a| a.set(false));

        let allocs = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            allocs, 0,
            "warmed llr_score_quantized(top_c={top_c}) must not touch the \
             heap: {allocs} allocations observed"
        );
        assert_eq!(
            rescore.to_bits(),
            warm.to_bits(),
            "quantized rescore must be identical"
        );
    }
}

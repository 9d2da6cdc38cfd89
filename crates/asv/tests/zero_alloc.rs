//! Proof that the extraction fast path is allocation-free in steady
//! state: a counting global allocator is armed around a warmed-up
//! `extract_into` call and must observe zero heap traffic.
//!
//! The counter lives in its own integration-test binary (a
//! `#[global_allocator]` is process-wide) with a single `#[test]` so no
//! concurrent harness thread can pollute the armed window.

use magshield_asv::frontend::{FeatureExtractor, FrontendScratch};
use magshield_dsp::frame::FrameMatrix;
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

#[test]
fn steady_state_extraction_is_allocation_free() {
    let fx = FeatureExtractor::new(16_000.0);
    let sig = speechy(16_000.0);
    let mut scratch = FrontendScratch::new();
    let mut out = FrameMatrix::default();

    // Warm-up: every buffer grows to its high-water mark.
    fx.extract_into(&sig, &mut scratch, &mut out);
    let warm = out.clone();

    ARMED.with(|a| a.set(true));
    fx.extract_into(&sig, &mut scratch, &mut out);
    ARMED.with(|a| a.set(false));

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "warmed extract_into must not touch the heap: \
         {allocs} allocations / {bytes} bytes observed"
    );
    assert_eq!(out, warm, "steady-state output must be identical");
}

//! Micro-benchmarks for the two kernels the fast path rewrote: MFCC
//! feature extraction (the production front end — scratch reuse and the
//! planned FFT — vs. the allocating free-`fft` oracle) and
//! GMM log-likelihood-ratio scoring (prepared constants and top-C
//! Gaussian pruning vs. the naive per-frame evaluation).
//!
//! Each kernel is hand-timed (warm-up, then iterate until a wall-clock
//! budget is spent) and reported in ns/frame. Absolute ns/frame varies
//! across machines, so the CI gate compares only the **speedup ratios**
//! under the `"metrics"` key — those track the code, not the hardware.
//! Raw timings land under `"info"` for humans reading the artifact.
//!
//! Output: `results/BENCH_kernels.json` (override with `--out`),
//! consumed by `scripts/bench_gate.py` in the CI `bench-gate` job.
//! `--quick` shrinks the mixture and the timing budgets for CI.

use magshield_asv::frontend::{FeatureExtractor, FrontendScratch};
use magshield_asv::ubm::{train_ubm, UbmConfig};
use magshield_bench::{print_header, print_row, write_gate_json, Better, EXPERIMENT_SEED};
use magshield_dsp::frame::FrameMatrix;
use magshield_ml::gmm::{
    llr_score_prepared, llr_score_quantized, llr_score_sequential, PreparedGmm, QuantizedGmm,
    ScoreScratch,
};
use magshield_simkit::rng::SimRng;
use magshield_voice::corpus::voxforge_like;
use magshield_voice::synth::VOICE_SAMPLE_RATE;
use std::hint::black_box;
use std::time::Instant;

/// Default pruning width — mirrors `DefenseConfig::asv_top_c`.
const TOP_C: usize = 8;

struct Timings {
    extract_reference: f64,
    extract_fast: f64,
    llr_reference: f64,
    llr_sequential_exact: f64,
    llr_sequential_pruned: f64,
    llr_prepared_exact: f64,
    llr_prepared_pruned: f64,
    llr_quantized_exact: f64,
    frames: usize,
    components: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_kernels.json".to_string());

    let rng = SimRng::from_seed(EXPERIMENT_SEED).fork("kernels");
    let budget_s = if quick { 0.08 } else { 0.4 };
    let components = if quick { 16 } else { 48 };

    eprintln!("(building corpus + {components}-component UBM...)");
    let corpus = voxforge_like(if quick { 3 } else { 6 }, &rng.fork("corpus"));
    let fx = FeatureExtractor::new(VOICE_SAMPLE_RATE);
    let utts: Vec<FrameMatrix> = corpus
        .utterances
        .iter()
        .map(|u| fx.extract(&u.audio))
        .collect();
    let ubm = train_ubm(
        &utts,
        UbmConfig {
            components,
            em_iters: if quick { 3 } else { 6 },
            max_frames: if quick { 4_000 } else { 12_000 },
        },
        &rng.fork("ubm"),
    );
    // A MAP-adapted speaker mixture from the first speaker's takes — the
    // scoring kernel needs a real (speaker, UBM) pair, not two UBMs.
    let sp_id = corpus.speakers[0].id;
    let mut sp_frames = FrameMatrix::new(0);
    for u in corpus.of_speaker(sp_id) {
        sp_frames.extend_rows(&fx.extract(&u.audio));
    }
    let speaker = ubm.map_adapt_means(&sp_frames, 16.0);

    let audio = corpus.of_speaker(sp_id)[0].audio.clone();
    let frames = fx.extract(&audio);
    let t = Timings {
        extract_reference: time_extract_reference(&fx, &audio, budget_s),
        extract_fast: time_extract_fast(&fx, &audio, budget_s),
        llr_reference: time_llr_reference(&speaker, &ubm, &frames, budget_s),
        llr_sequential_exact: time_llr_sequential(&speaker, &ubm, &frames, 0, budget_s),
        llr_sequential_pruned: time_llr_sequential(&speaker, &ubm, &frames, TOP_C, budget_s),
        llr_prepared_exact: time_llr_prepared(&speaker, &ubm, &frames, 0, budget_s),
        llr_prepared_pruned: time_llr_prepared(&speaker, &ubm, &frames, TOP_C, budget_s),
        llr_quantized_exact: time_llr_quantized(&speaker, &ubm, &frames, 0, budget_s),
        frames: frames.rows(),
        components,
    };

    print_header(
        &format!(
            "DSP/ASV kernels ({} frames, {components} components)",
            t.frames
        ),
        &["ns/frame", "speedup"],
    );
    print_row("extract ref", &[t.extract_reference, 1.0]);
    print_row(
        "extract fast",
        &[t.extract_fast, t.extract_reference / t.extract_fast],
    );
    print_row("llr ref", &[t.llr_reference, 1.0]);
    print_row(
        "llr seq exact",
        &[
            t.llr_sequential_exact,
            t.llr_reference / t.llr_sequential_exact,
        ],
    );
    print_row(
        &format!("llr seq top-{TOP_C}"),
        &[
            t.llr_sequential_pruned,
            t.llr_reference / t.llr_sequential_pruned,
        ],
    );
    print_row(
        "llr batched",
        &[t.llr_prepared_exact, t.llr_reference / t.llr_prepared_exact],
    );
    print_row(
        &format!("llr top-{TOP_C}"),
        &[
            t.llr_prepared_pruned,
            t.llr_reference / t.llr_prepared_pruned,
        ],
    );
    print_row(
        "llr quantized",
        &[
            t.llr_quantized_exact,
            t.llr_reference / t.llr_quantized_exact,
        ],
    );

    write_gate_json(
        &out,
        "kernels",
        quick,
        |w| {
            w.key("info")
                .begin_object()
                .key("frames")
                .u64(t.frames as u64)
                .key("components")
                .u64(t.components as u64)
                .key("top_c")
                .u64(TOP_C as u64);
            for (key, value) in [
                ("extract_reference_ns_per_frame", t.extract_reference),
                ("extract_fast_ns_per_frame", t.extract_fast),
                ("llr_reference_ns_per_frame", t.llr_reference),
                ("llr_sequential_exact_ns_per_frame", t.llr_sequential_exact),
                ("llr_sequential_top_c_ns_per_frame", t.llr_sequential_pruned),
                ("llr_prepared_exact_ns_per_frame", t.llr_prepared_exact),
                ("llr_prepared_top_c_ns_per_frame", t.llr_prepared_pruned),
                ("llr_quantized_exact_ns_per_frame", t.llr_quantized_exact),
                (
                    "llr_quantized_speedup",
                    t.llr_prepared_exact / t.llr_quantized_exact,
                ),
            ] {
                w.key(key).f64(value);
            }
            w.end_object();
        },
        // The production front end against its bit-identical oracle: the
        // planned FFT kernel and windowed load are most of the gap.
        // Frame-major batched scoring vs the retained sequential scorer on
        // identical exhaustive work (the pruned path's speaker side is
        // per-frame in both kernels, so exact-vs-exact is the like-for-like
        // measure of the batching transformation). The quantized-vs-exact
        // ratio is deliberately NOT gated: quantization trades wall clock
        // for a 4x smaller model (it benches ~0.8x on the
        // dequantize-on-the-fly path), so gating it "higher is better"
        // would punish the intended tradeoff — it is reported under
        // "info" above.
        &[
            (
                "extract_fast_speedup",
                t.extract_reference / t.extract_fast,
                Better::Higher,
            ),
            (
                "llr_prepared_exact_speedup",
                t.llr_reference / t.llr_prepared_exact,
                Better::Higher,
            ),
            (
                "llr_pruned_speedup",
                t.llr_reference / t.llr_prepared_pruned,
                Better::Higher,
            ),
            (
                "llr_batched_speedup",
                t.llr_sequential_exact / t.llr_prepared_exact,
                Better::Higher,
            ),
        ],
    );
}

/// Runs `f` until `budget_s` of wall clock is spent (after a short
/// warm-up) and returns ns per frame of the *fastest* of four
/// equal-budget slices. The minimum is the standard noise-robust
/// estimator on shared machines: interference (CI neighbors, kernel
/// housekeeping) only ever adds time, so the fastest slice is the
/// closest observation of the kernel's true cost.
fn time_ns_per_frame(frames: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let slice_s = budget_s / 4.0;
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed().as_secs_f64() < slice_s {
            f();
            iters += 1;
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / (iters as f64 * frames as f64);
        best = best.min(ns);
    }
    best
}

/// The oracle front end: every call allocates, and the MFCCs come from
/// the free `fft` over per-frame buffers.
fn time_extract_reference(fx: &FeatureExtractor, audio: &[f64], budget_s: f64) -> f64 {
    let frames = fx.extract_reference(audio).rows();
    time_ns_per_frame(frames, budget_s, || {
        black_box(fx.extract_reference(black_box(audio)));
    })
}

/// The production front end: scratch and output buffers reused across
/// calls, and the planned FFT fed by its bit-reversed windowed load.
fn time_extract_fast(fx: &FeatureExtractor, audio: &[f64], budget_s: f64) -> f64 {
    let mut scratch = FrontendScratch::new();
    let mut out = FrameMatrix::new(0);
    fx.extract_into(audio, &mut scratch, &mut out);
    let frames = out.rows();
    time_ns_per_frame(frames, budget_s, || {
        fx.extract_into(black_box(audio), &mut scratch, &mut out);
        black_box(out.rows());
    })
}

/// Naive LLR: `DiagonalGmm::llr_score`, re-deriving Gaussian constants
/// per frame per component.
fn time_llr_reference(
    speaker: &magshield_ml::DiagonalGmm,
    ubm: &magshield_ml::DiagonalGmm,
    frames: &FrameMatrix,
    budget_s: f64,
) -> f64 {
    time_ns_per_frame(frames.rows(), budget_s, || {
        black_box(speaker.llr_score(ubm, black_box(frames)));
    })
}

/// Prepared-constant LLR, exact (`top_c == 0`) or top-C pruned.
fn time_llr_prepared(
    speaker: &magshield_ml::DiagonalGmm,
    ubm: &magshield_ml::DiagonalGmm,
    frames: &FrameMatrix,
    top_c: usize,
    budget_s: f64,
) -> f64 {
    let (spk, bg) = (PreparedGmm::new(speaker), PreparedGmm::new(ubm));
    let mut scratch = ScoreScratch::new();
    time_ns_per_frame(frames.rows(), budget_s, || {
        black_box(llr_score_prepared(&spk, &bg, black_box(frames), top_c, &mut scratch).score);
    })
}

/// The retained one-frame-at-a-time prepared scorer — the baseline the
/// frame-major batched kernel is measured against.
fn time_llr_sequential(
    speaker: &magshield_ml::DiagonalGmm,
    ubm: &magshield_ml::DiagonalGmm,
    frames: &FrameMatrix,
    top_c: usize,
    budget_s: f64,
) -> f64 {
    let spk = PreparedGmm::new(speaker);
    let bg = PreparedGmm::new(ubm);
    let mut scratch = ScoreScratch::new();
    time_ns_per_frame(frames.rows(), budget_s, || {
        black_box(llr_score_sequential(&spk, &bg, black_box(frames), top_c, &mut scratch).score);
    })
}

/// The quantized batched scorer: i16 means / f32 inverse variances
/// dequantized on the fly — a quarter of the exact model's memory
/// traffic.
fn time_llr_quantized(
    speaker: &magshield_ml::DiagonalGmm,
    ubm: &magshield_ml::DiagonalGmm,
    frames: &FrameMatrix,
    top_c: usize,
    budget_s: f64,
) -> f64 {
    let spk = QuantizedGmm::from_prepared(&PreparedGmm::new(speaker));
    let bg = QuantizedGmm::from_prepared(&PreparedGmm::new(ubm));
    let mut scratch = ScoreScratch::new();
    time_ns_per_frame(frames.rows(), budget_s, || {
        black_box(llr_score_quantized(&spk, &bg, black_box(frames), top_c, &mut scratch).score);
    })
}

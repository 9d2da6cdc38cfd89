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
//! Each gated ratio is timed as a pair in alternating slices (reference,
//! kernel, reference, …) and reported as the median of the per-slice
//! ratios, so a clock-frequency shift during the run moves both sides of
//! a ratio alike instead of skewing it. Raw timings (each side's fastest
//! slice) land under `"info"` for humans reading the artifact.
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
    let (spk, ubm) = (&speaker, &ubm);
    let extract = time_pair(
        extract_reference(&fx, &audio),
        extract_fast(&fx, &audio),
        budget_s,
    );
    let prepared = time_pair(
        llr_reference(spk, ubm, &frames),
        llr_prepared(spk, ubm, &frames, 0),
        budget_s,
    );
    let pruned = time_pair(
        llr_reference(spk, ubm, &frames),
        llr_prepared(spk, ubm, &frames, TOP_C),
        budget_s,
    );
    let batched = time_pair(
        llr_sequential(spk, ubm, &frames, 0),
        llr_prepared(spk, ubm, &frames, 0),
        budget_s,
    );
    let t = Timings {
        extract_reference: extract.reference,
        extract_fast: extract.kernel,
        llr_reference: prepared.reference.min(pruned.reference),
        llr_sequential_exact: batched.reference,
        llr_sequential_pruned: time_alone(llr_sequential(spk, ubm, &frames, TOP_C), budget_s),
        llr_prepared_exact: prepared.kernel.min(batched.kernel),
        llr_prepared_pruned: pruned.kernel,
        llr_quantized_exact: time_alone(llr_quantized(spk, ubm, &frames, 0), budget_s),
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
    print_row("extract fast", &[t.extract_fast, extract.ratio]);
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
    print_row("llr batched", &[t.llr_prepared_exact, prepared.ratio]);
    print_row(
        &format!("llr top-{TOP_C}"),
        &[t.llr_prepared_pruned, pruned.ratio],
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
        // The production front end against its oracle (equal up to the
        // real-input FFT's stated rounding bound): the packed half-size
        // FFT and its windowed load are most of the gap.
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
            ("extract_fast_speedup", extract.ratio, Better::Higher),
            ("llr_prepared_exact_speedup", prepared.ratio, Better::Higher),
            ("llr_pruned_speedup", pruned.ratio, Better::Higher),
            ("llr_batched_speedup", batched.ratio, Better::Higher),
        ],
    );
}

/// Timing slices per kernel: a lone kernel reports its fastest slice, a
/// gated pair alternates this many slices of each side.
const SLICES: usize = 8;

/// One timed kernel: the frames each call processes, and the call.
struct Kernel<'a> {
    frames: usize,
    call: Box<dyn FnMut() + 'a>,
}

impl Kernel<'_> {
    fn warm_up(&mut self) {
        for _ in 0..3 {
            (self.call)();
        }
    }

    /// Runs the call until `slice_s` of wall clock is spent and returns
    /// ns per frame.
    fn slice_ns(&mut self, slice_s: f64) -> f64 {
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed().as_secs_f64() < slice_s {
            (self.call)();
            iters += 1;
        }
        start.elapsed().as_secs_f64() * 1e9 / (iters as f64 * self.frames as f64)
    }
}

/// A gated pair's timings: each side's fastest slice (ns/frame) and the
/// median of the per-slice `reference / kernel` ratios.
struct Pair {
    reference: f64,
    kernel: f64,
    ratio: f64,
}

/// Times `kernel` alone over `budget_s` of wall clock (after a short
/// warm-up) and returns ns per frame of the *fastest* of [`SLICES`]
/// equal slices. The minimum is the standard noise-robust estimator on
/// shared machines: interference (CI neighbors, kernel housekeeping)
/// only ever adds time, so the fastest slice is the closest observation
/// of the kernel's true cost.
fn time_alone(mut kernel: Kernel, budget_s: f64) -> f64 {
    kernel.warm_up();
    let slice_s = budget_s / SLICES as f64;
    (0..SLICES)
        .map(|_| kernel.slice_ns(slice_s))
        .fold(f64::INFINITY, f64::min)
}

/// Times a gated pair in alternating slices, `budget_s` of wall clock per
/// side. Adjacent slices run at nearly the same clock frequency, so each
/// slice pair's ratio reflects the code rather than host drift; the
/// median discards the pairs a burst of interference hit.
fn time_pair(mut reference: Kernel, mut kernel: Kernel, budget_s: f64) -> Pair {
    reference.warm_up();
    kernel.warm_up();
    let slice_s = budget_s / SLICES as f64;
    let mut pair = Pair {
        reference: f64::INFINITY,
        kernel: f64::INFINITY,
        ratio: 0.0,
    };
    let mut ratios: Vec<f64> = (0..SLICES)
        .map(|_| {
            let r = reference.slice_ns(slice_s);
            let k = kernel.slice_ns(slice_s);
            pair.reference = pair.reference.min(r);
            pair.kernel = pair.kernel.min(k);
            r / k
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    pair.ratio = (ratios[SLICES / 2 - 1] + ratios[SLICES / 2]) / 2.0;
    pair
}

/// The oracle front end: every call allocates, and the MFCCs come from
/// the free `fft` over per-frame buffers.
fn extract_reference<'a>(fx: &'a FeatureExtractor, audio: &'a [f64]) -> Kernel<'a> {
    Kernel {
        frames: fx.extract_reference(audio).rows(),
        call: Box::new(move || {
            black_box(fx.extract_reference(black_box(audio)));
        }),
    }
}

/// The production front end: scratch and output buffers reused across
/// calls, and the real-input FFT plan fed by its packed, bit-reversed
/// windowed load.
fn extract_fast<'a>(fx: &'a FeatureExtractor, audio: &'a [f64]) -> Kernel<'a> {
    let mut scratch = FrontendScratch::new();
    let mut out = FrameMatrix::new(0);
    fx.extract_into(audio, &mut scratch, &mut out);
    Kernel {
        frames: out.rows(),
        call: Box::new(move || {
            fx.extract_into(black_box(audio), &mut scratch, &mut out);
            black_box(out.rows());
        }),
    }
}

/// Naive LLR: `DiagonalGmm::llr_score`, re-deriving Gaussian constants
/// per frame per component.
fn llr_reference<'a>(
    speaker: &'a magshield_ml::DiagonalGmm,
    ubm: &'a magshield_ml::DiagonalGmm,
    frames: &'a FrameMatrix,
) -> Kernel<'a> {
    Kernel {
        frames: frames.rows(),
        call: Box::new(move || {
            black_box(speaker.llr_score(ubm, black_box(frames)));
        }),
    }
}

/// Prepared-constant LLR, exact (`top_c == 0`) or top-C pruned.
fn llr_prepared<'a>(
    speaker: &magshield_ml::DiagonalGmm,
    ubm: &magshield_ml::DiagonalGmm,
    frames: &'a FrameMatrix,
    top_c: usize,
) -> Kernel<'a> {
    let (spk, bg) = (PreparedGmm::new(speaker), PreparedGmm::new(ubm));
    let mut scratch = ScoreScratch::new();
    Kernel {
        frames: frames.rows(),
        call: Box::new(move || {
            black_box(llr_score_prepared(&spk, &bg, black_box(frames), top_c, &mut scratch).score);
        }),
    }
}

/// The retained one-frame-at-a-time prepared scorer — the baseline the
/// frame-major batched kernel is measured against.
fn llr_sequential<'a>(
    speaker: &magshield_ml::DiagonalGmm,
    ubm: &magshield_ml::DiagonalGmm,
    frames: &'a FrameMatrix,
    top_c: usize,
) -> Kernel<'a> {
    let (spk, bg) = (PreparedGmm::new(speaker), PreparedGmm::new(ubm));
    let mut scratch = ScoreScratch::new();
    Kernel {
        frames: frames.rows(),
        call: Box::new(move || {
            black_box(
                llr_score_sequential(&spk, &bg, black_box(frames), top_c, &mut scratch).score,
            );
        }),
    }
}

/// The quantized batched scorer: i16 means / f32 inverse variances
/// dequantized on the fly — a quarter of the exact model's memory
/// traffic.
fn llr_quantized<'a>(
    speaker: &magshield_ml::DiagonalGmm,
    ubm: &magshield_ml::DiagonalGmm,
    frames: &'a FrameMatrix,
    top_c: usize,
) -> Kernel<'a> {
    let spk = QuantizedGmm::from_prepared(&PreparedGmm::new(speaker));
    let bg = QuantizedGmm::from_prepared(&PreparedGmm::new(ubm));
    let mut scratch = ScoreScratch::new();
    Kernel {
        frames: frames.rows(),
        call: Box::new(move || {
            black_box(llr_score_quantized(&spk, &bg, black_box(frames), top_c, &mut scratch).score);
        }),
    }
}

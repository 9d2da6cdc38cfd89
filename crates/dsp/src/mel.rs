//! Mel filterbank and MFCC extraction.
//!
//! The ASV stack (Spear stand-in, §IV-C of the paper) verifies speakers on
//! spectral features; MFCCs are the standard front end for GMM–UBM systems.
//! This implementation follows the conventional pipeline: pre-emphasis →
//! Hamming-windowed frames → power spectrum → triangular mel filterbank →
//! log → DCT-II, with optional delta features.
//!
//! Two code paths produce the same MFCCs up to the FFT's rounding:
//!
//! * [`MfccExtractor::extract_into`] — the production fast path: writes into
//!   a [`FrameMatrix`] through a caller-owned [`ScratchPad`], performing zero
//!   heap allocations once the scratch buffers have reached their high-water
//!   mark. Each frame is windowed straight into the pad's split real and
//!   imaginary buffers, packed two real samples per complex point, and
//!   transformed by the planned real-input FFT ([`RealFftPlan::spectrum`]);
//!   the power spectrum is read from the two halves, the filterbank sums
//!   only each band's non-zero bin span and the DCT-II uses a cosine table
//!   precomputed at construction.
//! * [`MfccExtractor::extract_reference`] — the straightforward
//!   `Vec<Vec<f64>>` pipeline over the free [`rfft`], retained as the oracle
//!   for parity tests.
//!
//! After the spectrum both paths evaluate the same floating-point
//! operations in the same order (the power of each bin is `re·re + im·im`
//! as in `Complex::norm_sqr`, zero filter weights contribute exactly
//! `+0.0`, and the cosine table stores the raw `cos` values with the
//! orthonormal scale applied last). The spectra themselves differ by the
//! real-input plan's rounding, so the parity contract is a per-frame
//! bound, [`MfccExtractor::reference_error_bounds`], which carries
//! [`RealFftPlan::error_bound`] through the power, filterbank, log and
//! DCT steps (DESIGN.md, "Admitting a change that moves bits").

use crate::fft::{gamma, rfft, RealFftPlan, U};
use crate::filter::{pre_emphasis, pre_emphasis_into};
use crate::frame::{FrameMatrix, ScratchPad};
use crate::window::WindowKind;

/// Converts frequency in Hz to mel (O'Shaughnessy formula).
pub fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mel back to Hz.
pub fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// Triangular mel filterbank over FFT bins, stored sparsely: each band keeps
/// only its non-zero bin span, all weights in one flat buffer.
#[derive(Debug, Clone)]
pub struct MelFilterbank {
    /// Concatenated non-zero weights of every band.
    weights: Vec<f64>,
    /// Per-band (first FFT bin, offset into `weights`, span length).
    spans: Vec<(usize, usize, usize)>,
    /// One-sided spectrum length the bank was built for (`nfft / 2 + 1`).
    half: usize,
}

impl MelFilterbank {
    /// Builds `num_filters` triangular filters spanning `[lo_hz, hi_hz]` for
    /// an FFT of `nfft` points at `sample_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `hi_hz <= lo_hz`, `hi_hz > sample_rate / 2`, or
    /// `num_filters == 0`.
    pub fn new(num_filters: usize, nfft: usize, sample_rate: f64, lo_hz: f64, hi_hz: f64) -> Self {
        assert!(num_filters > 0, "need at least one mel filter");
        assert!(hi_hz > lo_hz, "hi_hz must exceed lo_hz");
        assert!(
            hi_hz <= sample_rate / 2.0 + 1e-9,
            "hi_hz {hi_hz} exceeds Nyquist {}",
            sample_rate / 2.0
        );
        let half = nfft / 2 + 1;
        let mel_lo = hz_to_mel(lo_hz);
        let mel_hi = hz_to_mel(hi_hz);
        // num_filters + 2 breakpoints, evenly spaced in mel.
        let points: Vec<f64> = (0..num_filters + 2)
            .map(|i| {
                let mel = mel_lo + (mel_hi - mel_lo) * i as f64 / (num_filters + 1) as f64;
                mel_to_hz(mel)
            })
            .collect();
        let bin_freq = |k: usize| k as f64 * sample_rate / nfft as f64;
        let weight = |m: usize, k: usize| -> f64 {
            let (f_lo, f_c, f_hi) = (points[m], points[m + 1], points[m + 2]);
            let f = bin_freq(k);
            if f <= f_lo || f >= f_hi {
                0.0
            } else if f <= f_c {
                (f - f_lo) / (f_c - f_lo)
            } else {
                (f_hi - f) / (f_hi - f_c)
            }
        };
        let mut weights = Vec::new();
        let mut spans = Vec::with_capacity(num_filters);
        for m in 0..num_filters {
            let first = (0..half).find(|&k| weight(m, k) != 0.0).unwrap_or(half);
            let last = (first..half).take_while(|&k| weight(m, k) != 0.0).last();
            let offset = weights.len();
            let len = match last {
                Some(l) => l + 1 - first,
                None => 0,
            };
            weights.extend((first..first + len).map(|k| weight(m, k)));
            spans.push((first, offset, len));
        }
        Self {
            weights,
            spans,
            half,
        }
    }

    /// Number of mel bands.
    pub fn num_filters(&self) -> usize {
        self.spans.len()
    }

    /// Applies the bank to a power spectrum (length must be ≥ bin count).
    pub fn apply(&self, power_spectrum: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.apply_into(power_spectrum, &mut out);
        out
    }

    /// [`Self::apply`] into a caller-owned buffer, reusing its allocation.
    ///
    /// Each band sums `weight * power` over its non-zero span only; because
    /// the skipped weights are exactly zero and power values are finite, the
    /// result is bit-identical to the dense dot product.
    ///
    /// # Panics
    ///
    /// Panics if `power_spectrum` is shorter than the bank's bin count.
    pub fn apply_into(&self, power_spectrum: &[f64], out: &mut Vec<f64>) {
        assert!(
            power_spectrum.len() >= self.half,
            "power spectrum has {} bins, filterbank needs {}",
            power_spectrum.len(),
            self.half
        );
        out.clear();
        out.extend(self.spans.iter().map(|&(first, offset, len)| {
            let w = &self.weights[offset..offset + len];
            let p = &power_spectrum[first..first + len];
            w.iter().zip(p).map(|(w, p)| w * p).sum::<f64>()
        }));
    }
}

/// Orthonormal DCT-II of `input`, keeping `num_coeffs` coefficients.
pub fn dct2(input: &[f64], num_coeffs: usize) -> Vec<f64> {
    let n = input.len();
    if n == 0 {
        return vec![0.0; num_coeffs];
    }
    (0..num_coeffs)
        .map(|k| {
            let scale = if k == 0 {
                (1.0 / n as f64).sqrt()
            } else {
                (2.0 / n as f64).sqrt()
            };
            scale
                * input
                    .iter()
                    .enumerate()
                    .map(|(j, &x)| {
                        x * (std::f64::consts::PI * k as f64 * (j as f64 + 0.5) / n as f64).cos()
                    })
                    .sum::<f64>()
        })
        .collect()
}

/// Configurable MFCC extraction pipeline.
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    /// Audio sample rate (Hz).
    pub sample_rate: f64,
    /// Frame length in samples (25 ms default).
    pub frame_len: usize,
    /// Hop in samples (10 ms default).
    pub hop: usize,
    /// Number of cepstral coefficients (including C0).
    pub num_coeffs: usize,
    /// Number of mel bands.
    pub num_filters: usize,
    /// Pre-emphasis coefficient.
    pub pre_emphasis: f64,
    filterbank: MelFilterbank,
    window: Vec<f64>,
    /// Precomputed real-input FFT plan for the frame size, fed by its
    /// windowed load into the pad's split buffers — within
    /// [`RealFftPlan::error_bound`] of the free [`rfft`] the reference
    /// path runs.
    fft_plan: RealFftPlan,
    /// DCT-II basis, row-major: `dct_cos[k * num_filters + j] =
    /// cos(π k (j + ½) / num_filters)`. Raw cosines — the orthonormal scale
    /// is applied after the dot product, matching [`dct2`] bit for bit.
    dct_cos: Vec<f64>,
    /// Orthonormal DCT scale per kept coefficient.
    dct_scale: Vec<f64>,
}

impl MfccExtractor {
    /// Creates an extractor with speech-standard defaults (25 ms frames,
    /// 10 ms hop, 26 mel bands, 13 coefficients, 0.97 pre-emphasis).
    pub fn new(sample_rate: f64) -> Self {
        Self::with_config(sample_rate, 0.025, 0.010, 13, 26)
    }

    /// Creates an extractor with explicit frame/hop durations (s) and sizes.
    ///
    /// # Panics
    ///
    /// Panics if durations are non-positive, if a frame spans fewer than
    /// two samples, or if `num_coeffs > num_filters`.
    pub fn with_config(
        sample_rate: f64,
        frame_s: f64,
        hop_s: f64,
        num_coeffs: usize,
        num_filters: usize,
    ) -> Self {
        assert!(
            frame_s > 0.0 && hop_s > 0.0,
            "frame and hop must be positive"
        );
        assert!(
            num_coeffs <= num_filters,
            "cannot keep more cepstra than mel bands"
        );
        let frame_len = (sample_rate * frame_s).round() as usize;
        assert!(frame_len >= 2, "a frame must span at least two samples");
        let hop = (sample_rate * hop_s).round() as usize;
        let nfft = frame_len.next_power_of_two();
        let filterbank =
            MelFilterbank::new(num_filters, nfft, sample_rate, 80.0, sample_rate / 2.0);
        let window = WindowKind::Hamming.generate(frame_len);
        let n = num_filters as f64;
        let dct_cos = (0..num_coeffs)
            .flat_map(|k| {
                (0..num_filters)
                    .map(move |j| (std::f64::consts::PI * k as f64 * (j as f64 + 0.5) / n).cos())
            })
            .collect();
        let dct_scale = (0..num_coeffs)
            .map(|k| {
                if k == 0 {
                    (1.0 / n).sqrt()
                } else {
                    (2.0 / n).sqrt()
                }
            })
            .collect();
        Self {
            sample_rate,
            frame_len,
            hop,
            num_coeffs,
            num_filters,
            pre_emphasis: 0.97,
            filterbank,
            window,
            fft_plan: RealFftPlan::new(nfft),
            dct_cos,
            dct_scale,
        }
    }

    /// Extracts MFCC frames from `signal`. Each row has `num_coeffs` values.
    ///
    /// Convenience wrapper over [`Self::extract_into`] with throwaway
    /// scratch; hot paths should hold a [`ScratchPad`] and an output
    /// [`FrameMatrix`] and call `extract_into` directly.
    pub fn extract(&self, signal: &[f64]) -> FrameMatrix {
        let mut pad = ScratchPad::new();
        let mut out = FrameMatrix::new(self.num_coeffs);
        self.extract_into(signal, &mut pad, &mut out);
        out
    }

    /// Zero-allocation MFCC extraction into a caller-owned matrix.
    ///
    /// All intermediate state lives in `pad`; once its buffers have grown to
    /// the signal's high-water mark, repeated calls allocate nothing. Output
    /// is within [`Self::reference_error_bounds`] of
    /// [`Self::extract_reference`].
    pub fn extract_into(&self, signal: &[f64], pad: &mut ScratchPad, out: &mut FrameMatrix) {
        out.reset(self.num_coeffs);
        pre_emphasis_into(signal, self.pre_emphasis, &mut pad.emphasized);
        let bins = self.fft_plan.bins();
        let mut start = 0;
        pad.fft_re.resize(bins, 0.0);
        pad.fft_im.resize(bins, 0.0);
        while start + self.frame_len <= pad.emphasized.len() {
            self.fft_plan.spectrum(
                &pad.emphasized[start..start + self.frame_len],
                &self.window,
                &mut pad.fft_re,
                &mut pad.fft_im,
            );
            // `Complex::norm_sqr` over the split halves.
            pad.power.clear();
            pad.power.extend(
                pad.fft_re
                    .iter()
                    .zip(&pad.fft_im)
                    .map(|(re, im)| (re * re + im * im) / self.frame_len as f64),
            );
            // Mel filterbank → log → DCT-II: the operations of [`dct2`] in
            // its order, over the precomputed cosine table.
            self.filterbank.apply_into(&pad.power, &mut pad.mel);
            for e in pad.mel.iter_mut() {
                *e = (e.max(1e-12)).ln();
            }
            let row = out.alloc_row();
            for (k, slot) in row.iter_mut().enumerate() {
                let basis = &self.dct_cos[k * self.num_filters..(k + 1) * self.num_filters];
                let acc: f64 = pad.mel.iter().zip(basis).map(|(x, c)| x * c).sum();
                *slot = self.dct_scale[k] * acc;
            }
            start += self.hop;
        }
    }

    /// Reference MFCC pipeline over `Vec<Vec<f64>>`, kept as the oracle the
    /// fast path is verified against (within
    /// [`Self::reference_error_bounds`], see the module docs).
    pub fn extract_reference(&self, signal: &[f64]) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        self.reference_frames(signal, |_, mel| {
            let log_mel: Vec<f64> = mel.iter().map(|&e| (e.max(1e-12)).ln()).collect();
            out.push(dct2(&log_mel, self.num_coeffs));
        });
        out
    }

    /// Per frame of [`Self::extract_reference`], the largest difference
    /// any coefficient of [`Self::extract_into`] may show against it.
    ///
    /// The spectrum bound `D` ([`RealFftPlan::error_bound`] of the
    /// windowed frame) is carried through the steps after the FFT, with
    /// `X` the reference spectrum, `L` the frame length, `S` the bins per
    /// band (at most `n/2 + 1`), `F` the band count and `s` the largest
    /// orthonormal DCT scale:
    ///
    /// * band energy: `|Δmel| ≤ E + 3·γ_{S+3}·(mel + E)` with
    ///   `E = (2·(√n·‖frame‖₂ + D)·D + D²) / L` (Cauchy–Schwarz over the
    ///   bins, weights ≤ 1) plus each path's rounding of `re² + im²`, the
    ///   division, the weight and the band sum;
    /// * log: `|Δℓ| ≤ r + 2u·(2|ℓ| + r)` with
    ///   `r = |Δmel| / max(mel − |Δmel|, 1e-12)` (the clamped log is
    ///   `1/max(·, 1e-12)`-Lipschitz) plus one ulp of `ln` per path;
    /// * DCT: `s·(Σ|Δℓ| + γ_{F+1}·Σ(2|ℓ| + |Δℓ|))`, both paths using the
    ///   same cosines.
    ///
    /// A frame with a non-finite windowed sample, or one large enough to
    /// overflow, gets `f64::INFINITY`: no bound.
    pub fn reference_error_bounds(&self, signal: &[f64]) -> Vec<f64> {
        let n = self.fft_plan.len() as f64;
        let band_rounding = gamma(self.fft_plan.bins() as f64 + 3.0);
        let scale = self.dct_scale.iter().copied().fold(0.0, f64::max);
        let mut bounds = Vec::new();
        self.reference_frames(signal, |frame, mel| {
            let d = self.fft_plan.error_bound(frame);
            let norm = n.sqrt() * frame.iter().fold(0.0f64, |a, &v| a.hypot(v)) + d;
            let e = (2.0 * norm * d + d * d) / self.frame_len as f64;
            let (mut dl_sum, mut l_sum) = (0.0, 0.0);
            for &m in &mel {
                let dm = e + 3.0 * band_rounding * (m + e);
                let ell = m.max(1e-12).ln().abs();
                let r = dm / (m - dm).max(1e-12);
                let dl = r + 2.0 * U * (2.0 * ell + r);
                dl_sum += dl;
                l_sum += 2.0 * ell + dl;
            }
            let bound = scale * (dl_sum + gamma(self.num_filters as f64 + 1.0) * l_sum);
            bounds.push(if bound.is_nan() { f64::INFINITY } else { bound });
        });
        bounds
    }

    /// The reference pipeline up to the mel energies: calls `f` with each
    /// frame's windowed samples and its band energies.
    fn reference_frames(&self, signal: &[f64], mut f: impl FnMut(&[f64], Vec<f64>)) {
        let emphasized = pre_emphasis(signal, self.pre_emphasis);
        let mut frame = vec![0.0; self.frame_len];
        let mut start = 0;
        while start + self.frame_len <= emphasized.len() {
            for (f, (&x, &w)) in frame.iter_mut().zip(
                emphasized[start..start + self.frame_len]
                    .iter()
                    .zip(&self.window),
            ) {
                *f = x * w;
            }
            let spec = rfft(&frame);
            let half = spec.len() / 2 + 1;
            let power: Vec<f64> = spec[..half]
                .iter()
                .map(|z| z.norm_sqr() / self.frame_len as f64)
                .collect();
            f(&frame, self.filterbank.apply(&power));
            start += self.hop;
        }
    }
}

/// Appends two-frame-window delta features to each frame (reference layout).
pub fn append_deltas(frames: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = frames.len();
    (0..n)
        .map(|t| {
            let prev = if t > 0 { &frames[t - 1] } else { &frames[t] };
            let next = if t + 1 < n {
                &frames[t + 1]
            } else {
                &frames[t]
            };
            let mut row = Vec::with_capacity(frames[t].len() * 2);
            row.extend_from_slice(&frames[t]);
            row.extend(prev.iter().zip(next).map(|(p, nx)| (nx - p) / 2.0));
            row
        })
        .collect()
}

/// [`append_deltas`] from one [`FrameMatrix`] into another, reusing the
/// output's allocation. `out` ends up with `2 * base.cols()` columns.
pub fn append_deltas_into(base: &FrameMatrix, out: &mut FrameMatrix) {
    let (n, dim) = (base.rows(), base.cols());
    out.reset(dim * 2);
    for t in 0..n {
        let prev = base.row(if t > 0 { t - 1 } else { t });
        let next = base.row(if t + 1 < n { t + 1 } else { t });
        let cur = base.row(t);
        let row = out.alloc_row();
        row[..dim].copy_from_slice(cur);
        for d in 0..dim {
            row[dim + d] = (next[d] - prev[d]) / 2.0;
        }
    }
}

/// Cepstral mean normalization: subtracts the per-dimension mean over the
/// utterance, removing stationary channel coloration.
pub fn cepstral_mean_normalize(frames: &mut [Vec<f64>]) {
    if frames.is_empty() {
        return;
    }
    let dim = frames[0].len();
    let n = frames.len() as f64;
    for d in 0..dim {
        let mean = frames.iter().map(|f| f[d]).sum::<f64>() / n;
        for f in frames.iter_mut() {
            f[d] -= mean;
        }
    }
}

/// [`cepstral_mean_normalize`] over a [`FrameMatrix`], in place.
pub fn cepstral_mean_normalize_flat(frames: &mut FrameMatrix) {
    let (rows, dim) = (frames.rows(), frames.cols());
    if rows == 0 {
        return;
    }
    let n = rows as f64;
    for d in 0..dim {
        let mean = (0..rows).map(|r| frames.row(r)[d]).sum::<f64>() / n;
        for r in 0..rows {
            frames.row_mut(r)[d] -= mean;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mel_scale_round_trip() {
        for &hz in &[0.0, 100.0, 1000.0, 8000.0] {
            assert!((mel_to_hz(hz_to_mel(hz)) - hz).abs() < 1e-6);
        }
    }

    #[test]
    fn mel_1000hz_is_about_1000mel() {
        assert!((hz_to_mel(1000.0) - 1000.0).abs() < 1.0);
    }

    #[test]
    fn filterbank_partitions_energy() {
        let fb = MelFilterbank::new(20, 512, 16_000.0, 80.0, 8000.0);
        assert_eq!(fb.num_filters(), 20);
        // A flat spectrum should produce all-positive band energies.
        let flat = vec![1.0; 257];
        let e = fb.apply(&flat);
        assert!(e.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn sparse_apply_matches_dense_dot_product() {
        // Rebuild the dense weights independently and compare band sums.
        let (num_filters, nfft, fs, lo, hi) = (26, 512, 16_000.0, 80.0, 8000.0);
        let fb = MelFilterbank::new(num_filters, nfft, fs, lo, hi);
        let half = nfft / 2 + 1;
        let power: Vec<f64> = (0..half).map(|k| ((k * 37 % 101) as f64) * 0.01).collect();
        let sparse = fb.apply(&power);

        let (mel_lo, mel_hi) = (hz_to_mel(lo), hz_to_mel(hi));
        let points: Vec<f64> = (0..num_filters + 2)
            .map(|i| mel_to_hz(mel_lo + (mel_hi - mel_lo) * i as f64 / (num_filters + 1) as f64))
            .collect();
        for m in 0..num_filters {
            let (f_lo, f_c, f_hi) = (points[m], points[m + 1], points[m + 2]);
            let dense: f64 = (0..half)
                .map(|k| {
                    let f = k as f64 * fs / nfft as f64;
                    let w = if f <= f_lo || f >= f_hi {
                        0.0
                    } else if f <= f_c {
                        (f - f_lo) / (f_c - f_lo)
                    } else {
                        (f_hi - f) / (f_hi - f_c)
                    };
                    w * power[k]
                })
                .sum();
            assert_eq!(sparse[m], dense, "band {m}");
        }
    }

    #[test]
    fn dct2_constant_input_concentrates_in_c0() {
        let c = dct2(&[3.0; 16], 4);
        assert!(c[0] > 1.0);
        for &v in &c[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn dct2_orthonormal_energy() {
        // Orthonormal DCT preserves energy when all coeffs kept.
        let x = [1.0, -2.0, 0.5, 3.0, -1.0, 0.0, 2.0, 1.5];
        let c = dct2(&x, 8);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ec: f64 = c.iter().map(|v| v * v).sum();
        assert!((ex - ec).abs() < 1e-9);
    }

    #[test]
    fn mfcc_output_shape() {
        let fs = 16_000.0;
        let sig: Vec<f64> = (0..16_000)
            .map(|i| (std::f64::consts::TAU * 300.0 * i as f64 / fs).sin())
            .collect();
        let ex = MfccExtractor::new(fs);
        let frames = ex.extract(&sig);
        // 1 s at 10 ms hop with 25 ms frames → about 98 frames.
        assert!(
            frames.rows() >= 95 && frames.rows() <= 99,
            "{}",
            frames.rows()
        );
        assert_eq!(frames.cols(), 13);
        assert!(frames.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fast_path_is_within_its_bound_of_reference() {
        let fs = 16_000.0;
        let sig: Vec<f64> = (0..8000)
            .map(|i| {
                let t = i as f64 / fs;
                (std::f64::consts::TAU * 220.0 * t).sin()
                    + 0.3 * (std::f64::consts::TAU * 1750.0 * t).sin()
            })
            .collect();
        let ex = MfccExtractor::new(fs);
        let fast = ex.extract(&sig);
        let reference = ex.extract_reference(&sig);
        let bounds = ex.reference_error_bounds(&sig);
        assert_eq!(fast.rows(), reference.len());
        assert_eq!(bounds.len(), reference.len());
        for (t, (r, &bound)) in reference.iter().zip(&bounds).enumerate() {
            assert!(bound.is_finite(), "frame {t}");
            for (k, (&got, &want)) in fast.row(t).iter().zip(r).enumerate() {
                assert!(
                    (got - want).abs() <= bound,
                    "frame {t} coefficient {k}: {got} vs {want}, bound {bound:e}"
                );
            }
        }
    }

    #[test]
    fn extract_into_reuses_scratch_across_calls() {
        let fs = 16_000.0;
        let sig: Vec<f64> = (0..4000).map(|i| (i as f64 * 0.01).sin()).collect();
        let ex = MfccExtractor::new(fs);
        let mut pad = ScratchPad::new();
        let mut out = FrameMatrix::default();
        ex.extract_into(&sig, &mut pad, &mut out);
        let first = out.clone();
        ex.extract_into(&sig, &mut pad, &mut out);
        assert_eq!(out, first);
    }

    #[test]
    fn mfcc_distinguishes_spectra() {
        let fs = 16_000.0;
        let mk = |f0: f64| -> Vec<f64> {
            (0..8000)
                .map(|i| {
                    let t = i as f64 / fs;
                    (std::f64::consts::TAU * f0 * t).sin()
                        + 0.5 * (std::f64::consts::TAU * 2.0 * f0 * t).sin()
                })
                .collect()
        };
        let ex = MfccExtractor::new(fs);
        let a = ex.extract(&mk(200.0));
        let b = ex.extract(&mk(800.0));
        let mean = |fr: &FrameMatrix| -> Vec<f64> {
            let mut m = vec![0.0; fr.cols()];
            for f in fr.iter_rows() {
                for (mi, v) in m.iter_mut().zip(f) {
                    *mi += v;
                }
            }
            m.iter().map(|v| v / fr.rows() as f64).collect()
        };
        let (ma, mb) = (mean(&a), mean(&b));
        let dist: f64 = ma
            .iter()
            .zip(&mb)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 1.0, "MFCC means too close: {dist}");
    }

    #[test]
    fn deltas_double_dimension() {
        let frames = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let with = append_deltas(&frames);
        assert_eq!(with[0].len(), 4);
        // Delta of middle frame dim 0: (5−1)/2 = 2.
        assert_eq!(with[1][2], 2.0);

        let mut flat = FrameMatrix::default();
        append_deltas_into(&FrameMatrix::from_rows(&frames), &mut flat);
        assert_eq!(flat.to_rows(), with);
    }

    #[test]
    fn cmn_zeroes_means() {
        let mut frames = vec![vec![1.0, 10.0], vec![3.0, 20.0]];
        let mut flat = FrameMatrix::from_rows(&frames);
        cepstral_mean_normalize(&mut frames);
        cepstral_mean_normalize_flat(&mut flat);
        assert_eq!(frames[0][0] + frames[1][0], 0.0);
        assert_eq!(frames[0][1] + frames[1][1], 0.0);
        assert_eq!(flat.to_rows(), frames);
    }

    #[test]
    #[should_panic(expected = "more cepstra")]
    fn rejects_too_many_coeffs() {
        MfccExtractor::with_config(16_000.0, 0.025, 0.01, 30, 20);
    }
}

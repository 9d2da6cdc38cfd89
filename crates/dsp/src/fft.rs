//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! Two implementations of one transform:
//!
//! * [`fft`] / [`ifft`] / [`rfft`] — the planless form, re-deriving
//!   twiddles per block. It is the oracle, so it is never rewritten for
//!   speed; the MFCC reference path runs it through [`rfft`] and the
//!   replay-detection baseline through [`magnitude_spectrum`].
//! * [`FftPlan::forward_windowed`] — the one production kernel:
//!   precomputed bit-reversal and twiddle tables, one bounds-free
//!   butterfly kernel over split real and imaginary buffers, and a
//!   windowed load that places a real frame straight into bit-reversed
//!   order. It performs exactly [`fft`]'s float operations, so its output
//!   is `to_bits`-identical for every input, non-finite input included.

use crate::complex::Complex;

/// In-place forward FFT.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two (zero-pad first; see
/// [`next_pow2`]).
///
/// # Example
///
/// ```
/// use magshield_dsp::fft::{fft, ifft};
/// use magshield_dsp::complex::Complex;
/// let orig: Vec<Complex> = (0..16).map(|i| Complex::new((i as f64).sin(), 0.0)).collect();
/// let mut buf = orig.clone();
/// fft(&mut buf);
/// ifft(&mut buf);
/// for (a, b) in orig.iter().zip(&buf) {
///     assert!((a.re - b.re).abs() < 1e-9);
/// }
/// ```
pub fn fft(buf: &mut [Complex]) {
    fft_dir(buf, false);
}

/// In-place inverse FFT (includes the `1/N` normalization).
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two.
pub fn ifft(buf: &mut [Complex]) {
    fft_dir(buf, true);
    let n = buf.len() as f64;
    for z in buf.iter_mut() {
        *z = z.scale(1.0 / n);
    }
}

fn fft_dir(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if i < j {
            buf.swap(i, j);
        }
    }

    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = Complex::from_polar(1.0, ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = buf[start + k];
                let v = buf[start + k + len / 2] * w;
                buf[start + k] = u + v;
                buf[start + k + len / 2] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// Smallest power of two `>= n` (and at least 1).
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// Precomputed forward-FFT plan for one fixed transform size.
///
/// [`fft`] re-derives its twiddle factors with a serial `w *= wlen`
/// recurrence inside every butterfly block and walks an interleaved
/// buffer by index. The plan runs that exact recurrence **once** at
/// construction, stores the values split into real and imaginary
/// tables, and drives one bounds-free butterfly kernel over a
/// split-complex buffer (`re` and `im` slices):
///
/// * the first three stages (lengths 2, 4 and 8) run per 8-point block
///   held in locals, so each block is loaded and stored once for all
///   three instead of once per stage;
/// * the wider stages run two per pass over contiguous `re` and `im`
///   quarters of each block, so each point is loaded and stored once per
///   two stages, and a last stage runs alone when their count is odd.
///   Independent butterflies sit in adjacent `f64` lanes, which the
///   compiler packs into vector registers.
///
/// Input reaches the kernel in bit-reversed order through
/// [`Self::forward_windowed`], which writes `x[k]·w[k]` straight into
/// slot `rev[k]` of a caller-owned `re` buffer and zero-fills the rest —
/// the MFCC frame load in one scatter.
///
/// **Contract:** every butterfly performs the same floating-point
/// operations on the same values in the same order as [`fft`] — the
/// multiply by the unit twiddle included, no fused multiply-add, no
/// reassociation — so the output is `to_bits`-identical to [`fft`] for
/// every input, non-finite input (NaN payloads, infinities, signed
/// zeros, overflow inside the butterflies) included. [`fft`] stays the
/// oracle the property tests hold the plan to.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal permutation: `rev[k]` is `k` with its `log2 n` bits
    /// reversed (an involution).
    rev: Vec<u32>,
    /// Per-stage twiddle tables, concatenated: lengths 1, 2, …, n/2, so
    /// the stage of length `len` owns `[len/2 - 1..len - 1]` of both.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n)
            .map(|i| {
                let r = if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (usize::BITS - bits)
                };
                u32::try_from(r).expect("FFT length exceeds the u32 index range")
            })
            .collect();
        // The same recurrence fft() runs per block, evaluated once: the
        // stored values are bitwise what the k-th butterfly would see.
        let mut tw_re = Vec::with_capacity(n.saturating_sub(1));
        let mut tw_im = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = -std::f64::consts::TAU / len as f64;
            let wlen = Complex::from_polar(1.0, ang);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                tw_re.push(w.re);
                tw_im.push(w.im);
                w = w * wlen;
            }
            len <<= 1;
        }
        Self {
            n,
            rev,
            tw_re,
            tw_im,
        }
    }

    /// Transform size the plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the degenerate length-0 transform.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward FFT of the windowed, zero-padded real frame `x[k]·w[k]`,
    /// written into the split buffers `re` and `im`; bit-identical to
    /// filling a buffer with `Complex::new(x[k] * w[k], 0.0)`,
    /// zero-padding, and calling [`fft`]. Each product lands directly in
    /// its bit-reversed slot, so there is no separate fill, tail clear or
    /// swap pass.
    ///
    /// # Panics
    ///
    /// Panics if `re` or `im` differs in length from the planned size, if
    /// `x` and `window` differ in length, or if they are longer than the
    /// plan.
    pub fn forward_windowed(&self, x: &[f64], window: &[f64], re: &mut [f64], im: &mut [f64]) {
        self.check_len(re.len());
        self.check_len(im.len());
        assert!(
            x.len() == window.len() && x.len() <= self.n,
            "frame of {} samples with a {}-point window does not fit planned FFT size {}",
            x.len(),
            window.len(),
            self.n
        );
        let (head, tail) = self.rev.split_at(x.len());
        for ((&r, &s), &w) in head.iter().zip(x).zip(window) {
            re[r as usize] = s * w;
        }
        for &r in tail {
            re[r as usize] = 0.0;
        }
        im.fill(0.0);
        self.butterflies(re, im);
    }

    fn check_len(&self, len: usize) {
        assert_eq!(
            len, self.n,
            "buffer length {len} does not match planned FFT size {}",
            self.n
        );
    }

    /// The butterfly kernel over a bit-reversed split buffer of the
    /// planned length: stages 2, 4 and 8 per 8-point block in locals
    /// ([`first_three_stages`]), then the wider stages two at a time
    /// ([`stage_pair`]), and a last one on its own ([`stage`]) when
    /// their count is odd.
    fn butterflies(&self, re: &mut [f64], im: &mut [f64]) {
        let mut tw = Twiddles {
            re: &self.tw_re,
            im: &self.tw_im,
        };
        let mut len = 2;
        if self.n >= 8 {
            first_three_stages(re, im, tw.take(7));
            len = 16;
        }
        while 2 * len <= self.n {
            let t = tw.take(len / 2);
            stage_pair(re, im, t, tw.take(len));
            len *= 4;
        }
        if len <= self.n {
            stage(re, im, tw.take(len / 2));
        }
    }
}

/// A run of twiddle factors, split like the buffer.
#[derive(Clone, Copy)]
struct Twiddles<'a> {
    re: &'a [f64],
    im: &'a [f64],
}

impl<'a> Twiddles<'a> {
    /// Splits off the first `k` twiddles.
    fn take(&mut self, k: usize) -> Twiddles<'a> {
        let (re, rest_re) = self.re.split_at(k);
        let (im, rest_im) = self.im.split_at(k);
        (self.re, self.im) = (rest_re, rest_im);
        Twiddles { re, im }
    }
}

/// Stages 2, 4 and 8 of the kernel, per 8-point block held in locals,
/// with the seven twiddles `w` of those stages.
fn first_three_stages(re: &mut [f64], im: &mut [f64], w: Twiddles) {
    let [w2, w4a, w4b, w8a, w8b, w8c, w8d] =
        std::array::from_fn(|k| Complex::new(w.re[k], w.im[k]));
    let (re_blocks, _) = re.as_chunks_mut::<8>();
    let (im_blocks, _) = im.as_chunks_mut::<8>();
    for (br, bi) in re_blocks.iter_mut().zip(im_blocks) {
        let [x0, x1, x2, x3, x4, x5, x6, x7] = std::array::from_fn(|k| Complex::new(br[k], bi[k]));
        let (x0, x1) = butterfly(x0, x1, w2);
        let (x2, x3) = butterfly(x2, x3, w2);
        let (x4, x5) = butterfly(x4, x5, w2);
        let (x6, x7) = butterfly(x6, x7, w2);
        let (x0, x2) = butterfly(x0, x2, w4a);
        let (x1, x3) = butterfly(x1, x3, w4b);
        let (x4, x6) = butterfly(x4, x6, w4a);
        let (x5, x7) = butterfly(x5, x7, w4b);
        let (x0, x4) = butterfly(x0, x4, w8a);
        let (x1, x5) = butterfly(x1, x5, w8b);
        let (x2, x6) = butterfly(x2, x6, w8c);
        let (x3, x7) = butterfly(x3, x7, w8d);
        let out = [x0, x1, x2, x3, x4, x5, x6, x7];
        *br = out.map(|z| z.re);
        *bi = out.map(|z| z.im);
    }
}

/// The stages of length `len` and `2·len` in one pass, `t` holding the
/// `len/2` twiddles of the first and `s` the `len` of the second. Each
/// block of `2·len` points has quarters `a`, `b`, `c`, `d`; at offset
/// `k` the first stage pairs `(a, b)` and `(c, d)` with `t[k]`, the
/// second `(a, c)` with `s[k]` and `(b, d)` with `s[k + len/2]`: the
/// butterflies the two stages run one after the other, on the same
/// operands, with each point loaded and stored once for both.
fn stage_pair(re: &mut [f64], im: &mut [f64], t: Twiddles, s: Twiddles) {
    // Every slice the loop reads is cut to `h` here, so the compiler
    // sees each index in bounds and vectorizes across `k`.
    let h = t.re.len();
    let (t_re, t_im) = (&t.re[..h], &t.im[..h]);
    let (s_re_lo, s_re_hi) = s.re.split_at(h);
    let (s_im_lo, s_im_hi) = s.im.split_at(h);
    let (s_re_hi, s_im_hi) = (&s_re_hi[..h], &s_im_hi[..h]);
    for (block_re, block_im) in re.chunks_exact_mut(4 * h).zip(im.chunks_exact_mut(4 * h)) {
        let [ar, br, cr, dr] = quarters(block_re, h);
        let [ai, bi, ci, di] = quarters(block_im, h);
        for k in 0..h {
            let t = Complex::new(t_re[k], t_im[k]);
            let (a, b) = butterfly(Complex::new(ar[k], ai[k]), Complex::new(br[k], bi[k]), t);
            let (c, d) = butterfly(Complex::new(cr[k], ci[k]), Complex::new(dr[k], di[k]), t);
            let (a, c) = butterfly(a, c, Complex::new(s_re_lo[k], s_im_lo[k]));
            let (b, d) = butterfly(b, d, Complex::new(s_re_hi[k], s_im_hi[k]));
            (ar[k], ai[k], br[k], bi[k]) = (a.re, a.im, b.re, b.im);
            (cr[k], ci[k], dr[k], di[k]) = (c.re, c.im, d.re, d.im);
        }
    }
}

/// One block's four consecutive quarters of `h` points.
fn quarters(block: &mut [f64], h: usize) -> [&mut [f64]; 4] {
    let (a, rest) = block.split_at_mut(h);
    let (b, rest) = rest.split_at_mut(h);
    let (c, d) = rest.split_at_mut(h);
    [a, b, c, &mut d[..h]]
}

/// One stage of length `2·t.len()`, each block split at the half and
/// zipped with the twiddles `t`.
fn stage(re: &mut [f64], im: &mut [f64], t: Twiddles) {
    let half = t.re.len();
    for (block_re, block_im) in re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half))
    {
        let (lo_re, hi_re) = block_re.split_at_mut(half);
        let (lo_im, hi_im) = block_im.split_at_mut(half);
        let lanes = lo_re
            .iter_mut()
            .zip(lo_im.iter_mut())
            .zip(hi_re.iter_mut().zip(hi_im.iter_mut()))
            .zip(t.re.iter().zip(t.im));
        for (((ar, ai), (br, bi)), (&wr, &wi)) in lanes {
            let (u, v) = butterfly(
                Complex::new(*ar, *ai),
                Complex::new(*br, *bi),
                Complex::new(wr, wi),
            );
            (*ar, *ai, *br, *bi) = (u.re, u.im, v.re, v.im);
        }
    }
}

/// One radix-2 butterfly, `(u + b·w, u − b·w)`: the exact operations and
/// operand order of [`fft`]'s inner loop. The kernel assembles its
/// operands from, and splits its results back into, separate real and
/// imaginary lanes.
#[inline(always)]
fn butterfly(u: Complex, b: Complex, w: Complex) -> (Complex, Complex) {
    let v = b * w;
    (u + v, u - v)
}

/// Forward FFT of a real signal, zero-padded to a power of two.
///
/// Returns the full complex spectrum of length `next_pow2(signal.len())`.
pub fn rfft(signal: &[f64]) -> Vec<Complex> {
    let mut buf = vec![Complex::ZERO; next_pow2(signal.len())];
    for (slot, &x) in buf.iter_mut().zip(signal) {
        *slot = Complex::new(x, 0.0);
    }
    fft(&mut buf);
    buf
}

/// Magnitude spectrum of a real signal: bins `0..=n/2` with their center
/// frequencies, for a given sample rate.
///
/// Returns `(frequencies_hz, magnitudes)`.
pub fn magnitude_spectrum(signal: &[f64], sample_rate: f64) -> (Vec<f64>, Vec<f64>) {
    let spec = rfft(signal);
    let n = spec.len();
    let half = n / 2 + 1;
    let freqs = (0..half)
        .map(|k| k as f64 * sample_rate / n as f64)
        .collect();
    let mags = spec[..half].iter().map(|z| z.abs()).collect();
    (freqs, mags)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference O(n²) DFT.
    fn naive_dft(signal: &[Complex]) -> Vec<Complex> {
        let n = signal.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &x) in signal.iter().enumerate() {
                    let ang = -std::f64::consts::TAU * (k * j) as f64 / n as f64;
                    acc += x * Complex::from_polar(1.0, ang);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let signal: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let expected = naive_dft(&signal);
        let mut got = signal.clone();
        fft(&mut got);
        for (e, g) in expected.iter().zip(&got) {
            assert!((e.re - g.re).abs() < 1e-9 && (e.im - g.im).abs() < 1e-9);
        }
    }

    #[test]
    fn plan_is_bit_identical_to_fft() {
        for &n in &[1usize, 2, 4, 8, 64, 512, 1024] {
            // A frame shorter than the plan, so the zero-padded tail runs.
            let x: Vec<f64> = (0..n - n / 4)
                .map(|i| (i as f64 * 0.317).sin() + (i as f64 * 0.713).cos())
                .collect();
            let window: Vec<f64> = (0..x.len())
                .map(|i| 0.5 + (i as f64 * 0.05).sin())
                .collect();
            let mut reference = vec![Complex::ZERO; n];
            for ((slot, &x), &w) in reference.iter_mut().zip(&x).zip(&window) {
                *slot = Complex::new(x * w, 0.0);
            }
            fft(&mut reference);
            let plan = FftPlan::new(n);
            assert_eq!(plan.len(), n);
            let (mut re, mut im) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            plan.forward_windowed(&x, &window, &mut re, &mut im);
            for (k, (r, (&pr, &pi))) in reference.iter().zip(re.iter().zip(&im)).enumerate() {
                assert_eq!(
                    (r.re.to_bits(), r.im.to_bits()),
                    (pr.to_bits(), pi.to_bits()),
                    "n={n} bin {k}: plan diverged from fft ({r:?} vs {pr} + {pi}i)"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match planned FFT size")]
    fn plan_rejects_mismatched_buffer() {
        let plan = FftPlan::new(8);
        let (mut re, mut im) = ([0.0; 4], [0.0; 8]);
        plan.forward_windowed(&[1.0; 4], &[1.0; 4], &mut re, &mut im);
    }

    #[test]
    #[should_panic(expected = "does not fit planned FFT size")]
    fn windowed_load_rejects_oversized_frame() {
        let plan = FftPlan::new(8);
        let (mut re, mut im) = ([0.0; 8], [0.0; 8]);
        plan.forward_windowed(&[1.0; 9], &[1.0; 9], &mut re, &mut im);
    }

    #[test]
    fn round_trip() {
        let orig: Vec<Complex> = (0..64)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let mut buf = orig.clone();
        fft(&mut buf);
        ifft(&mut buf);
        for (a, b) in orig.iter().zip(&buf) {
            assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
        }
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 256;
        let fs = 1024.0;
        let f = 64.0; // exactly bin 16
        let signal: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * f * i as f64 / fs).sin())
            .collect();
        let (freqs, mags) = magnitude_spectrum(&signal, fs);
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(freqs[peak], 64.0);
        // Tone amplitude 1 over n samples → bin magnitude ≈ n/2.
        assert!((mags[peak] - n as f64 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn parseval_energy_conservation() {
        let signal: Vec<f64> = (0..128).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = rfft(&signal);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / spec.len() as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let mut buf = vec![Complex::ZERO; 3];
        fft(&mut buf);
    }

    #[test]
    fn dc_signal_concentrates_at_bin_zero() {
        let mut buf = vec![Complex::ONE; 16];
        fft(&mut buf);
        assert!((buf[0].re - 16.0).abs() < 1e-12);
        for z in &buf[1..] {
            assert!(z.abs() < 1e-10);
        }
    }
}

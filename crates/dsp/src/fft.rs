//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! Two implementations of the forward transform of a real frame:
//!
//! * [`fft`] / [`ifft`] / [`rfft`] — the planless complex form,
//!   re-deriving twiddles per block. It is the oracle, so it is never
//!   rewritten for speed; the MFCC reference path runs it through
//!   [`rfft`] and the replay-detection baseline through
//!   [`magnitude_spectrum`].
//! * [`RealFftPlan::spectrum`] — the one production kernel. It packs the
//!   windowed real frame into half as many complex points (even samples
//!   in the real lane, odd samples in the imaginary lane, placed straight
//!   into bit-reversed order), runs one bounds-free butterfly kernel over
//!   the split buffers at half the size, and untangles the result into
//!   the one-sided spectrum with twiddles planned once.
//!
//! The half-size complex pass performs exactly [`fft`]'s float operations
//! on the packed input, so it is `to_bits`-identical to [`fft`] of that
//! input. The untangle adds one butterfly-like stage, so the one-sided
//! spectrum is not bit-identical to [`rfft`]'s; it stays within the
//! normwise bound [`RealFftPlan::error_bound`] states (derived in
//! DESIGN.md, "Admitting a change that moves bits"), and a non-finite
//! sample makes every bin non-finite in both.

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

/// Unit roundoff of `f64`.
pub(crate) const U: f64 = f64::EPSILON / 2.0;

/// Higham's `γ_k = k·u / (1 − k·u)`: the relative error bound of `k`
/// chained roundings.
pub(crate) fn gamma(k: f64) -> f64 {
    k * U / (1.0 - k * U)
}

/// Per-stage error `η = μ + γ₅(√2 + μ)` of a radix-2 butterfly stage (or
/// the untangle) whose twiddles are accurate to `μ`: Higham, *Accuracy and
/// Stability of Numerical Algorithms*, §24.1, with `γ₅` covering the
/// untangle's extra add before its twiddle multiply.
fn stage_error(mu: f64) -> f64 {
    mu + gamma(5.0) * (std::f64::consts::SQRT_2 + mu)
}

/// Normwise relative error bound of [`fft`] at size `n` (Higham, Theorem
/// 24.2: `t·η / (1 − t·η)` over `t = log2 n` stages). The twiddles of a
/// stage come from a serial `w *= wlen` recurrence of up to `n/2 − 1`
/// steps, each adding at most `9u` (the `from_polar` seed, at most
/// `(2√2 + π)·u`, plus one complex multiply, `√2·γ₂`), so `μ ≤ 4.5·n·u`;
/// the bound takes `μ = 8·n·u`.
fn fft_error(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let t = f64::from(n.trailing_zeros());
    let eta = stage_error(8.0 * n as f64 * U);
    t * eta / (1.0 - t * eta)
}

/// Precomputed complex FFT of one fixed size: the half-size pass inside
/// [`RealFftPlan`].
///
/// [`fft`] re-derives its twiddle factors with a serial `w *= wlen`
/// recurrence inside every butterfly block and walks an interleaved
/// buffer by index. The plan runs that exact recurrence **once** at
/// construction, stores the values split into real and imaginary
/// tables, and drives one bounds-free butterfly kernel over a
/// split-complex buffer (`re` and `im` slices) already in bit-reversed
/// order:
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
/// **Contract:** every butterfly performs the same floating-point
/// operations on the same values in the same order as [`fft`] — the
/// multiply by the unit twiddle included, no fused multiply-add, no
/// reassociation — so the output is `to_bits`-identical to [`fft`] for
/// every input, non-finite input (NaN payloads, infinities, signed
/// zeros, overflow inside the butterflies) included.
#[derive(Debug, Clone)]
struct FftPlan {
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
    /// Builds a plan for transforms of length `n`, a power of two.
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
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

/// Precomputed forward FFT of a real frame, zero-padded to a fixed power
/// of two `n ≥ 2`, returning the one-sided spectrum (bins `0..=n/2`).
///
/// A real frame of `n` samples packs into `m = n/2` complex points
/// `z[j] = x[2j] + i·x[2j+1]`. Their transform `Z` carries both halves:
/// with `E[k] = (Z[k] + conj Z[m−k]) / 2` (the even samples' spectrum) and
/// `O[k] = (Z[k] − conj Z[m−k]) / 2i` (the odd samples'),
/// `X[k] = E[k] + W^k·O[k]` and `X[m−k] = conj(E[k] − W^k·O[k])`, where
/// `W = e^{−2πi/n}`. So one `m`-point complex pass plus one untangle pass
/// over `m/2` bin pairs replaces the `n`-point complex transform, about
/// half the butterflies.
///
/// The windowed load writes `x[k]·w[k]` pairs straight into their
/// bit-reversed slots of the caller's split buffers; the half-size pass is
/// a private complex plan's butterfly kernel, `to_bits`-identical to [`fft`] of the
/// packed frame; the untangle twiddles `W^k` are evaluated directly (not by
/// recurrence) once, at construction.
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    half: FftPlan,
    /// Untangle twiddles `W^k = e^{−2πik/n}` for `k` in `0..n/4` (slot 0
    /// unused), split like the buffers.
    un_re: Vec<f64>,
    un_im: Vec<f64>,
}

impl RealFftPlan {
    /// Builds a plan for real frames zero-padded to `n` samples.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two of at least 2.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "real FFT length must be a power of two of at least 2, got {n}"
        );
        let (un_re, un_im) = (0..n / 4)
            .map(|k| {
                let w = Complex::from_polar(1.0, -std::f64::consts::TAU * k as f64 / n as f64);
                (w.re, w.im)
            })
            .unzip();
        Self {
            half: FftPlan::new(n / 2),
            un_re,
            un_im,
        }
    }

    /// Transform size the plan was built for.
    pub fn len(&self) -> usize {
        2 * self.half.n
    }

    /// Always `false`: a plan spans at least two samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of one-sided spectrum bins, `n/2 + 1`.
    pub fn bins(&self) -> usize {
        self.half.n + 1
    }

    /// One-sided spectrum of the windowed, zero-padded real frame
    /// `x[k]·w[k]`: bin `k` lands in `(re[k], im[k])` for `k` in
    /// `0..=n/2`. Within [`Self::error_bound`] of bins `0..=n/2` of
    /// [`rfft`] on the same windowed frame.
    ///
    /// # Panics
    ///
    /// Panics if `re` or `im` does not hold [`Self::bins`] values, if `x`
    /// and `window` differ in length, or if they are longer than the plan.
    pub fn spectrum(&self, x: &[f64], window: &[f64], re: &mut [f64], im: &mut [f64]) {
        self.packed_transform(x, window, re, im);
        self.untangle(re, im);
    }

    /// The packed load and the half-size complex pass: leaves `Z`, the
    /// `m`-point transform of `z[j] = x[2j]·w[2j] + i·x[2j+1]·w[2j+1]`, in
    /// `re[..m]` and `im[..m]`.
    fn packed_transform(&self, x: &[f64], window: &[f64], re: &mut [f64], im: &mut [f64]) {
        let bins = self.bins();
        for len in [re.len(), im.len()] {
            assert_eq!(
                len, bins,
                "buffer length {len} does not match the plan's {bins} spectrum bins"
            );
        }
        assert!(
            x.len() == window.len() && x.len() <= self.len(),
            "frame of {} samples with a {}-point window does not fit planned FFT size {}",
            x.len(),
            window.len(),
            self.len()
        );
        let (x_pairs, x_odd) = x.as_chunks::<2>();
        let (w_pairs, w_odd) = window.as_chunks::<2>();
        let (head, tail) = self.half.rev.split_at(x_pairs.len());
        for ((&r, [x0, x1]), [w0, w1]) in head.iter().zip(x_pairs).zip(w_pairs) {
            re[r as usize] = x0 * w0;
            im[r as usize] = x1 * w1;
        }
        let mut tail = tail.iter();
        if let ([x0], [w0]) = (x_odd, w_odd) {
            let r = *tail.next().expect("an odd frame shorter than the plan") as usize;
            re[r] = x0 * w0;
            im[r] = 0.0;
        }
        for &r in tail {
            re[r as usize] = 0.0;
            im[r as usize] = 0.0;
        }
        let m = self.half.n;
        self.half.butterflies(&mut re[..m], &mut im[..m]);
    }

    /// Turns `Z` in `re[..m]`, `im[..m]` into the one-sided spectrum in
    /// `re[..=m]`, `im[..=m]`, in place: bins `k` and `m − k` come from
    /// `Z[k]` and `Z[m − k]` alone, so each pair is read and then written.
    fn untangle(&self, re: &mut [f64], im: &mut [f64]) {
        let m = self.half.n;
        let (z0_re, z0_im) = (re[0], im[0]);
        (re[0], im[0]) = (z0_re + z0_im, 0.0);
        (re[m], im[m]) = (z0_re - z0_im, 0.0);
        if m < 2 {
            return;
        }
        // At k = m/2, W^k = −i and X = conj Z.
        im[m / 2] = -im[m / 2];
        let (lo_re, hi_re) = re[1..m].split_at_mut(m / 2 - 1);
        let (lo_im, hi_im) = im[1..m].split_at_mut(m / 2 - 1);
        let lanes = lo_re
            .iter_mut()
            .zip(lo_im.iter_mut())
            .zip(hi_re[1..].iter_mut().rev().zip(hi_im[1..].iter_mut().rev()))
            .zip(self.un_re[1..].iter().zip(&self.un_im[1..]));
        for (((zk_re, zk_im), (zj_re, zj_im)), (&w_re, &w_im)) in lanes {
            let (e_re, e_im) = (0.5 * (*zk_re + *zj_re), 0.5 * (*zk_im - *zj_im));
            let (o_re, o_im) = (0.5 * (*zk_im + *zj_im), 0.5 * (*zj_re - *zk_re));
            let t = Complex::new(o_re, o_im) * Complex::new(w_re, w_im);
            (*zk_re, *zk_im) = (e_re + t.re, e_im + t.im);
            (*zj_re, *zj_im) = (e_re - t.re, t.im - e_im);
        }
    }

    /// Bound on `‖spectrum − rfft[..=n/2]‖₂`, the Euclidean norm of the
    /// difference between [`Self::spectrum`] and the oracle's one-sided
    /// bins, for the windowed frame `frame` (the products `x[k]·w[k]`):
    ///
    /// `(ε(n) + ε(n/2) + η_u·(1 + ε(n/2)))·√n·‖frame‖₂ + n·2⁻¹⁰⁶⁸`,
    ///
    /// where `ε(n)` is [`fft`]'s normwise error at size `n` (the oracle),
    /// `ε(n/2)` the half-size pass's (the untangle map has norm √2 and
    /// `‖Z‖ = √(n/2)·‖frame‖`), and `η_u` the untangle stage's own error,
    /// its twiddles `W^k` accurate to `8u`. The last term covers
    /// gradual underflow. DESIGN.md, "Admitting a change that moves
    /// bits", derives it.
    ///
    /// Returns `f64::INFINITY` — no bound — when a sample is not finite
    /// (every bin of both spectra is then non-finite) or when
    /// `4·√n·‖frame‖₂` exceeds `f64::MAX`, where a butterfly may overflow.
    pub fn error_bound(&self, frame: &[f64]) -> f64 {
        let n = self.len();
        if !frame.iter().all(|v| v.is_finite()) {
            return f64::INFINITY;
        }
        // Overflow-free norm, rounded up by its own error.
        let norm = frame.iter().fold(0.0f64, |a, &v| a.hypot(v)) * (1.0 + gamma(2.0 * n as f64));
        let scale = (n as f64).sqrt() * norm;
        if !(4.0 * scale).is_finite() {
            return f64::INFINITY;
        }
        let half = fft_error(n / 2);
        let rel = fft_error(n) + half + stage_error(8.0 * U) * (1.0 + half);
        rel * scale + n as f64 * 2f64.powi(-1068)
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

    /// The windowed frame `x[k]·w[k]`, zero-padded to `n` points.
    fn windowed(x: &[f64], w: &[f64], n: usize) -> Vec<Complex> {
        let mut buf = vec![Complex::ZERO; n];
        for ((slot, &x), &w) in buf.iter_mut().zip(x).zip(w) {
            *slot = Complex::new(x * w, 0.0);
        }
        buf
    }

    /// A deterministic frame of `len` samples: finite values in
    /// `[-1000, 1000)`, and with `salt` one sample in `salt` drawn from
    /// NaN payloads, infinities, signed zeros and subnormals.
    fn frame(len: usize, seed: u64, salt: u64) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = state >> 11;
                if salt == 0 || !r.is_multiple_of(salt) {
                    return r as f64 / (1u64 << 53) as f64 * 2000.0 - 1000.0;
                }
                let sign = (r & 1) << 63;
                match (r >> 1) % 5 {
                    0 => f64::from_bits(sign | 0x7FF8_0000_0000_0000 | (r & 0xFFFF)),
                    1 => f64::from_bits(sign | f64::INFINITY.to_bits()),
                    2 => f64::from_bits(sign),
                    _ => f64::from_bits(sign | (r & 0xF_FFFF_FFFF)),
                }
            })
            .collect()
    }

    /// The packed half-size pass runs `fft`'s float operations: its
    /// output is `to_bits`-identical to `fft` of the packed windowed
    /// frame at every size, on full, shorter and odd-length frames, salted
    /// with non-finite values (a NaN matching any NaN: Rust leaves an
    /// arithmetic NaN's payload unspecified).
    #[test]
    fn half_size_pass_is_bit_identical_to_fft_of_the_packed_frame() {
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            let plan = RealFftPlan::new(n);
            assert_eq!((plan.len(), plan.bins()), (n, n / 2 + 1));
            for (case, len) in [n, n - n / 4, n - 1, n / 2 + 1].into_iter().enumerate() {
                for salt in [0, 37, 3] {
                    let x = frame(len, (log_n * 8 + case) as u64, salt);
                    let w = frame(len, 1000 + log_n as u64, 0);
                    let full = windowed(&x, &w, n);
                    let mut packed: Vec<Complex> = full
                        .chunks(2)
                        .map(|pair| Complex::new(pair[0].re, pair[1].re))
                        .collect();
                    fft(&mut packed);
                    // Stale contents must not leak through the packed load.
                    let (mut re, mut im) = (vec![f64::NAN; n / 2 + 1], vec![-0.0; n / 2 + 1]);
                    plan.packed_transform(&x, &w, &mut re, &mut im);
                    for (k, z) in packed.iter().enumerate() {
                        for (got, want) in [(re[k], z.re), (im[k], z.im)] {
                            assert!(
                                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                                "n={n} len={len} salt={salt} bin {k}: {got:e} vs {want:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `‖spectrum − rfft‖₂` stays within `error_bound` at every size, on
    /// full, shorter and odd-length frames, an all-zero frame, an impulse
    /// and a subnormal frame.
    #[test]
    fn spectrum_is_within_its_bound_of_rfft() {
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            let plan = RealFftPlan::new(n);
            let mut impulse = vec![0.0; n];
            impulse[n / 3] = 1.5;
            let mut cases = vec![vec![0.0; n], impulse, vec![f64::from_bits(3); n - 1]];
            for (seed, len) in [n, n - n / 4, n - 1, 1].into_iter().enumerate() {
                cases.push(frame(len, seed as u64 + 17 * log_n as u64, 0));
            }
            for x in cases {
                let w = vec![1.0; x.len()];
                let mut want = windowed(&x, &w, n);
                fft(&mut want);
                let (mut re, mut im) = (vec![0.0; n / 2 + 1], vec![0.0; n / 2 + 1]);
                plan.spectrum(&x, &w, &mut re, &mut im);
                let diff = want
                    .iter()
                    .zip(re.iter().zip(&im))
                    .fold(0.0f64, |a, (z, (&r, &i))| a.hypot(z.re - r).hypot(z.im - i));
                let bound = plan.error_bound(&x);
                assert!(bound.is_finite(), "n={n} len={}", x.len());
                assert!(
                    diff <= bound,
                    "n={n} len={}: ‖Δ‖ = {diff:e} > {bound:e}",
                    x.len()
                );
                if x.iter().all(|&v| v == 0.0) {
                    assert!(re.iter().chain(&im).all(|&v| v == 0.0), "n={n}: zero frame");
                }
            }
        }
    }

    /// A NaN or an infinity anywhere in the frame makes every bin of the
    /// oracle non-finite, and every bin of the plan with it; the bound
    /// then claims nothing.
    #[test]
    fn non_finite_samples_reach_the_same_bins_as_the_oracle() {
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            let plan = RealFftPlan::new(n);
            for (at, bad) in [
                (0, f64::NAN),
                (n / 2, f64::INFINITY),
                (n - 1, f64::NEG_INFINITY),
            ] {
                for len in [n, (n - n / 4 - 1).max(1)] {
                    let mut x = frame(len, at as u64 + 5, 0);
                    x[at.min(len - 1)] = bad;
                    let w = vec![0.5; len];
                    let mut want = windowed(&x, &w, n);
                    fft(&mut want);
                    let (mut re, mut im) = (vec![0.0; n / 2 + 1], vec![0.0; n / 2 + 1]);
                    plan.spectrum(&x, &w, &mut re, &mut im);
                    for k in 0..=n / 2 {
                        let finite = |re: f64, im: f64| re.is_finite() && im.is_finite();
                        assert!(
                            !finite(want[k].re, want[k].im),
                            "n={n} {bad}: oracle bin {k}"
                        );
                        assert!(!finite(re[k], im[k]), "n={n} {bad}: plan bin {k}");
                    }
                    assert_eq!(plan.error_bound(&x), f64::INFINITY);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match the plan's 5 spectrum bins")]
    fn plan_rejects_mismatched_buffer() {
        let plan = RealFftPlan::new(8);
        let (mut re, mut im) = ([0.0; 4], [0.0; 5]);
        plan.spectrum(&[1.0; 4], &[1.0; 4], &mut re, &mut im);
    }

    #[test]
    #[should_panic(expected = "does not fit planned FFT size")]
    fn windowed_load_rejects_oversized_frame() {
        let plan = RealFftPlan::new(8);
        let (mut re, mut im) = ([0.0; 5], [0.0; 5]);
        plan.spectrum(&[1.0; 9], &[1.0; 9], &mut re, &mut im);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn real_plan_rejects_a_single_point() {
        RealFftPlan::new(1);
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

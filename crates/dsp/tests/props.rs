//! Property-based tests for the DSP kernels.

use magshield_dsp::complex::Complex;
use magshield_dsp::fft::{fft, RealFftPlan};
use magshield_dsp::filter::{moving_average, pre_emphasis, Biquad, BiquadPair, OnePole};
use magshield_dsp::frame::{FrameMatrix, ScratchPad};
use magshield_dsp::goertzel::{goertzel, tone_amplitude};
use magshield_dsp::level::{amplitude_to_dbfs, rms};
use magshield_dsp::mel::MfccExtractor;
use magshield_dsp::vad::{detect, VadConfig};
use magshield_dsp::window::WindowKind;
use magshield_simkit::prop::prelude::*;

/// SplitMix64: a tiny deterministic stream for building edge-case-heavy
/// FFT inputs from one property-chosen seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One sample: with probability about `1 / special_every` an edge case
    /// (quiet or signaling NaN with a random payload and sign, ±inf, ±0, a
    /// subnormal, or ±1e308-scale values whose butterfly sums overflow),
    /// otherwise a finite value in `[-1000, 1000)`.
    fn sample(&mut self, special_every: u64) -> f64 {
        let r = self.next();
        let sign = r & (1 << 63);
        let payload = self.next() & ((1 << 51) - 1);
        if !r.is_multiple_of(special_every) {
            return (r >> 11) as f64 / (1u64 << 53) as f64 * 2000.0 - 1000.0;
        }
        match (r >> 8) % 7 {
            0 => f64::from_bits(sign | 0x7FF8_0000_0000_0000 | payload),
            1 => f64::from_bits(sign | 0x7FF0_0000_0000_0000 | payload.max(1)),
            2 => f64::from_bits(sign | f64::INFINITY.to_bits()),
            3 => f64::from_bits(sign),
            4 => f64::from_bits(sign | payload.max(1)),
            _ => f64::from_bits(sign | 1e308f64.to_bits()) * (1.0 + (payload as f64) * 1e-16),
        }
    }

    /// A finite value uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// A biquad with random coefficients (stable or not), warmed up on
    /// a few samples so its state is not all zeros.
    fn biquad(&mut self, special_every: u64) -> Biquad {
        let mut f = Biquad::from_coefficients(
            self.uniform(-2.0, 2.0),
            self.uniform(-2.0, 2.0),
            self.uniform(-2.0, 2.0),
            self.uniform(-2.0, 2.0),
            self.uniform(-1.0, 1.0),
        );
        for _ in 0..self.next() % 4 {
            f.process(self.sample(special_every));
        }
        f
    }
}

/// The first index where `got` and `want` differ by `to_bits`, a NaN
/// matching any NaN.
fn first_nan_equal_mismatch(got: &[f64], want: &[f64]) -> Option<usize> {
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `RealFftPlan::spectrum` is within its stated `error_bound` of the
    /// free `fft` (normwise over the one-sided bins) at every power of two
    /// from 2 to 4096, on random frames of any length up to the plan's
    /// (odd lengths and shorter frames included) salted with NaN payloads,
    /// infinities, signed zeros, subnormals and values that overflow
    /// mid-transform. Where a windowed sample is NaN or infinite the
    /// bound claims nothing, and the plan must leave exactly the bins
    /// the oracle leaves non-finite non-finite.
    #[test]
    fn real_fft_plan_is_within_its_bound_of_fft(seed in 0u64..u64::MAX, density in 0usize..4) {
        let special_every = [u64::MAX, 509, 31, 2][density];
        let mut mix = Mix(seed);
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            let plan = RealFftPlan::new(n);
            let len = (mix.next() % (n as u64 + 1)) as usize;
            let x: Vec<f64> = (0..len).map(|_| mix.sample(special_every)).collect();
            let w: Vec<f64> = (0..len).map(|_| mix.sample(special_every)).collect();
            let frame: Vec<f64> = x.iter().zip(&w).map(|(x, w)| x * w).collect();
            let mut reference = vec![Complex::ZERO; n];
            for (slot, &v) in reference.iter_mut().zip(&frame) {
                *slot = Complex::new(v, 0.0);
            }
            fft(&mut reference);
            // Stale contents must not leak through the windowed load.
            let (mut re, mut im) = (vec![f64::NAN; n / 2 + 1], vec![-0.0; n / 2 + 1]);
            plan.spectrum(&x, &w, &mut re, &mut im);
            let bound = plan.error_bound(&frame);
            if frame.iter().all(|v| v.is_finite()) && bound.is_finite() {
                let diff = reference
                    .iter()
                    .zip(re.iter().zip(&im))
                    .fold(0.0f64, |a, (z, (&r, &i))| a.hypot(z.re - r).hypot(z.im - i));
                prop_assert!(diff <= bound, "n={}, len={}: ‖Δ‖ = {:e} > {:e}", n, len, diff, bound);
            } else if !frame.iter().all(|v| v.is_finite()) {
                prop_assert_eq!(bound, f64::INFINITY);
                for (k, z) in reference.iter().take(n / 2 + 1).enumerate() {
                    let oracle = z.re.is_finite() && z.im.is_finite();
                    let plan = re[k].is_finite() && im[k].is_finite();
                    prop_assert_eq!(plan, oracle, "n={}, len={}, bin {}", n, len, k);
                }
            }
        }
    }

    /// `MfccExtractor::extract_into` (real-input planned FFT, sparse
    /// filterbank, DCT table) stays within `reference_error_bounds` of
    /// `extract_reference` (free `rfft`, dense steps) on random signals
    /// salted with NaN payloads, infinities, signed zeros, subnormals and
    /// overflowing values, at zero, one and many frames. Where a frame's
    /// bound is infinite (a non-finite windowed sample) only the frame
    /// count is held. One scratch pad serves every call, so stale
    /// contents from a longer or poisoned signal must not leak.
    #[test]
    fn mfcc_extract_into_is_within_its_bound_of_reference(seed in 0u64..u64::MAX, density in 0usize..4) {
        let special_every = [u64::MAX, 509, 31, 2][density];
        let mut mix = Mix(seed);
        let ex = MfccExtractor::new(16_000.0);
        let (frame_len, hop) = (ex.frame_len as u64, ex.hop as u64);
        let mut pad = ScratchPad::new();
        let mut out = FrameMatrix::default();
        for frames in [2 + mix.next() % 60, 0, 1] {
            let len = match frames {
                0 => mix.next() % frame_len,
                f => frame_len + (f - 1) * hop + mix.next() % hop,
            } as usize;
            let signal: Vec<f64> = (0..len).map(|_| mix.sample(special_every)).collect();
            ex.extract_into(&signal, &mut pad, &mut out);
            let reference = ex.extract_reference(&signal);
            let bounds = ex.reference_error_bounds(&signal);
            prop_assert_eq!(out.rows(), frames as usize, "len={}", len);
            prop_assert_eq!(reference.len(), frames as usize, "len={}", len);
            prop_assert_eq!(bounds.len(), frames as usize, "len={}", len);
            for (t, (want, &bound)) in reference.iter().zip(&bounds).enumerate() {
                if bound.is_infinite() {
                    continue;
                }
                let diff = out
                    .row(t)
                    .iter()
                    .zip(want)
                    .position(|(g, w)| (g - w).is_nan() || (g - w).abs() > bound);
                prop_assert!(
                    diff.is_none(),
                    "len={}, frame {}, coefficient {:?}: got {:?}, want {:?}, bound {:e}",
                    len, t, diff, out.row(t), want, bound
                );
            }
        }
    }

    /// Goertzel matches the corresponding FFT bin for on-grid frequencies.
    #[test]
    fn goertzel_matches_fft_bin(bin in 1usize..31, phase in 0.0f64..std::f64::consts::TAU) {
        let n = 64;
        let fs = 6400.0;
        let f = bin as f64 * fs / n as f64;
        let sig: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * f * i as f64 / fs + phase).cos())
            .collect();
        let g = goertzel(&sig, f, fs);
        let spec = magshield_dsp::fft::rfft(&sig);
        prop_assert!((g.re - spec[bin].re).abs() < 1e-6);
        prop_assert!((g.im - spec[bin].im).abs() < 1e-6);
    }

    /// A unit tone reads amplitude ≈ 1 for any on-grid frequency.
    #[test]
    fn tone_amplitude_calibration(bin in 2usize..30) {
        let n = 256;
        let fs = 25_600.0;
        let f = bin as f64 * fs / n as f64;
        let sig: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * f * i as f64 / fs).sin())
            .collect();
        let a = tone_amplitude(&sig, f, fs);
        prop_assert!((a - 1.0).abs() < 1e-6, "amp {a}");
    }

    /// Each lane of a `BiquadPair` is `to_bits`-identical to the scalar
    /// `Biquad` it was built from, a NaN matching any NaN (Rust leaves an
    /// arithmetic NaN's sign and payload unspecified), whether the lanes
    /// step together (`process`) or one at a time (`process_lane`), on
    /// random coefficients and input salted with NaN payloads,
    /// infinities, signed zeros, subnormals and overflowing values.
    #[test]
    fn biquad_pair_lanes_are_bit_identical_to_biquad(seed in 0u64..u64::MAX, density in 0usize..4) {
        let special_every = [u64::MAX, 509, 31, 2][density];
        let mut mix = Mix(seed);
        let mut scalar = [mix.biquad(special_every), mix.biquad(special_every)];
        let mut pair = BiquadPair::new(scalar[0].clone(), scalar[1].clone());
        for step in 0..512 {
            let x = [mix.sample(special_every), mix.sample(special_every)];
            let (got, want) = match mix.next() % 4 {
                // Both lanes, mostly: the stretch the speech pass pairs.
                0 | 1 => (
                    pair.process(x).to_vec(),
                    vec![scalar[0].process(x[0]), scalar[1].process(x[1])],
                ),
                lane => {
                    let lane = (lane - 2) as usize;
                    (vec![pair.process_lane(lane, x[lane])], vec![scalar[lane].process(x[lane])])
                }
            };
            let diff = first_nan_equal_mismatch(&got, &want);
            prop_assert!(
                diff.is_none(),
                "step {}: got {:x?}, want {:x?}",
                step,
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    /// Biquad filters are BIBO stable on bounded input.
    #[test]
    fn biquad_stability(
        cutoff in 100.0f64..7000.0,
        q in 0.2f64..5.0,
        input in prop::collection::vec(-1.0f64..1.0, 64..256),
    ) {
        let mut f = Biquad::lowpass(16_000.0, cutoff, q);
        for &x in &input {
            let y = f.process(x);
            prop_assert!(y.is_finite());
            prop_assert!(y.abs() < 100.0, "unstable output {y}");
        }
    }

    /// A one-pole smoother's output stays within the input's range.
    #[test]
    fn one_pole_bounded(
        tau in 0.001f64..1.0,
        input in prop::collection::vec(-5.0f64..5.0, 2..128),
    ) {
        let mut s = OnePole::with_time_constant(100.0, tau);
        let lo = input.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = input.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &x in &input {
            let y = s.process(x);
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
        }
    }

    /// Moving average preserves the mean of a constant signal and stays
    /// within input bounds.
    #[test]
    fn moving_average_bounds(
        window in 1usize..9,
        input in prop::collection::vec(-10.0f64..10.0, 1..64),
    ) {
        let out = moving_average(&input, window);
        prop_assert_eq!(out.len(), input.len());
        let lo = input.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = input.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &y in &out {
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
        }
    }

    /// Pre-emphasis is invertible (it is a FIR with known coefficient).
    #[test]
    fn pre_emphasis_invertible(
        alpha in 0.5f64..0.99,
        input in prop::collection::vec(-1.0f64..1.0, 1..64),
    ) {
        let out = pre_emphasis(&input, alpha);
        // Reconstruct: x[n] = y[n] + α x[n−1].
        let mut rec = Vec::with_capacity(out.len());
        let mut prev = 0.0;
        for &y in &out {
            let x = y + alpha * prev;
            rec.push(x);
            prev = x;
        }
        for (a, b) in rec.iter().zip(&input) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// All analysis windows are bounded in [0, 1].
    #[test]
    fn windows_bounded(n in 1usize..200) {
        for kind in [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
        ] {
            for c in kind.generate(n) {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&c), "{kind:?}: {c}");
            }
        }
    }

    /// MFCC output is always finite with the expected shape.
    #[test]
    fn mfcc_finite(freq in 80.0f64..4000.0, amp in 0.01f64..1.0) {
        let fs = 16_000.0;
        let sig: Vec<f64> = (0..4000)
            .map(|i| amp * (std::f64::consts::TAU * freq * i as f64 / fs).sin())
            .collect();
        let frames = MfccExtractor::new(fs).extract(&sig);
        prop_assert!(!frames.is_empty());
        prop_assert_eq!(frames.cols(), 13);
        for v in frames.as_slice() {
            prop_assert!(v.is_finite());
        }
    }

    /// VAD activity is within [0, 1] and silence is always inactive.
    #[test]
    fn vad_sane(amp in 0.1f64..1.0) {
        let fs = 8000.0;
        let mut sig = vec![0.0; 4000];
        sig.extend((0..4000).map(|i| amp * (std::f64::consts::TAU * 300.0 * i as f64 / fs).sin()));
        let v = detect(&sig, fs, VadConfig::default());
        let r = v.activity_ratio();
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!(r > 0.2 && r < 0.8, "half-speech signal: {r}");
    }

    /// dBFS conversion is monotone.
    #[test]
    fn dbfs_monotone(a in 1e-6f64..10.0, b in 1e-6f64..10.0) {
        if a < b {
            prop_assert!(amplitude_to_dbfs(a) <= amplitude_to_dbfs(b));
        }
    }

    /// RMS of a scaled signal scales linearly.
    #[test]
    fn rms_homogeneous(
        k in 0.1f64..10.0,
        input in prop::collection::vec(-1.0f64..1.0, 1..64),
    ) {
        let scaled: Vec<f64> = input.iter().map(|x| k * x).collect();
        prop_assert!((rms(&scaled) - k * rms(&input)).abs() < 1e-9);
    }
}

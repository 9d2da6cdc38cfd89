//! IIR filters: RBJ-cookbook biquads, one-pole smoothers, moving averages.
//!
//! The sensor models use low-pass biquads for anti-aliasing, the pilot
//! ranging uses band-pass isolation around the pilot tone, and the
//! magnetometer detector smooths with one-pole/moving-average stages.

/// A Direct Form I biquad filter.
#[derive(Debug, Clone)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

impl Biquad {
    /// Creates a biquad from normalized coefficients (a0 already divided out).
    pub fn from_coefficients(b0: f64, b1: f64, b2: f64, a1: f64, a2: f64) -> Self {
        Self {
            b0,
            b1,
            b2,
            a1,
            a2,
            x1: 0.0,
            x2: 0.0,
            y1: 0.0,
            y2: 0.0,
        }
    }

    /// RBJ low-pass design.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff_hz` is not in `(0, sample_rate/2)` or `q <= 0`.
    pub fn lowpass(sample_rate: f64, cutoff_hz: f64, q: f64) -> Self {
        let (w0, alpha) = rbj_params(sample_rate, cutoff_hz, q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Self::from_coefficients(
            (1.0 - cw) / 2.0 / a0,
            (1.0 - cw) / a0,
            (1.0 - cw) / 2.0 / a0,
            -2.0 * cw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// RBJ high-pass design.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Biquad::lowpass`].
    pub fn highpass(sample_rate: f64, cutoff_hz: f64, q: f64) -> Self {
        let (w0, alpha) = rbj_params(sample_rate, cutoff_hz, q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Self::from_coefficients(
            (1.0 + cw) / 2.0 / a0,
            -(1.0 + cw) / a0,
            (1.0 + cw) / 2.0 / a0,
            -2.0 * cw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// RBJ band-pass design (constant 0 dB peak gain).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Biquad::lowpass`].
    pub fn bandpass(sample_rate: f64, center_hz: f64, q: f64) -> Self {
        let (w0, alpha) = rbj_params(sample_rate, center_hz, q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Self::from_coefficients(
            alpha / a0,
            0.0,
            -alpha / a0,
            -2.0 * cw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// RBJ peaking EQ with gain `gain_db` at `center_hz` — used to shape
    /// loudspeaker frequency responses.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Biquad::lowpass`].
    pub fn peaking(sample_rate: f64, center_hz: f64, q: f64, gain_db: f64) -> Self {
        let (w0, alpha) = rbj_params(sample_rate, center_hz, q);
        let a = 10f64.powf(gain_db / 40.0);
        let cw = w0.cos();
        let a0 = 1.0 + alpha / a;
        Self::from_coefficients(
            (1.0 + alpha * a) / a0,
            -2.0 * cw / a0,
            (1.0 - alpha * a) / a0,
            -2.0 * cw / a0,
            (1.0 - alpha / a) / a0,
        )
    }

    /// Processes one sample.
    #[inline]
    pub fn process(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.b1 * self.x1 + self.b2 * self.x2
            - self.a1 * self.y1
            - self.a2 * self.y2;
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Filters a whole buffer, returning a new vector.
    pub fn process_buffer(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.process(x)).collect()
    }

    /// Resets the filter state to silence.
    pub fn reset(&mut self) {
        self.x1 = 0.0;
        self.x2 = 0.0;
        self.y1 = 0.0;
        self.y2 = 0.0;
    }
}

/// Two independent [`Biquad`]s stepped together, one per lane.
///
/// Each lane runs exactly [`Biquad::process`]'s operations in its order
/// (`b0·x + b1·x1 + b2·x2 − a1·y1 − a2·y2`, left to right, no fused
/// multiply-add), so every output is bit-identical to the scalar filter
/// the lane was built from fed the same samples. Stepping both lanes in
/// one call lets the two recurrences share vector instructions: a
/// biquad's latency chain is serial, two of them side by side are not.
#[derive(Debug, Clone)]
pub struct BiquadPair {
    b0: [f64; 2],
    b1: [f64; 2],
    b2: [f64; 2],
    a1: [f64; 2],
    a2: [f64; 2],
    x1: [f64; 2],
    x2: [f64; 2],
    y1: [f64; 2],
    y2: [f64; 2],
}

impl BiquadPair {
    /// Lane 0 continues `a`, lane 1 continues `b`, coefficients and state.
    pub fn new(a: Biquad, b: Biquad) -> Self {
        let lanes = |f: fn(&Biquad) -> f64| [f(&a), f(&b)];
        Self {
            b0: lanes(|q| q.b0),
            b1: lanes(|q| q.b1),
            b2: lanes(|q| q.b2),
            a1: lanes(|q| q.a1),
            a2: lanes(|q| q.a2),
            x1: lanes(|q| q.x1),
            x2: lanes(|q| q.x2),
            y1: lanes(|q| q.y1),
            y2: lanes(|q| q.y2),
        }
    }

    /// Processes one sample on each lane.
    #[inline]
    pub fn process(&mut self, x: [f64; 2]) -> [f64; 2] {
        let y: [f64; 2] = std::array::from_fn(|k| {
            self.b0[k] * x[k] + self.b1[k] * self.x1[k] + self.b2[k] * self.x2[k]
                - self.a1[k] * self.y1[k]
                - self.a2[k] * self.y2[k]
        });
        self.x2 = self.x1;
        self.x1 = x;
        self.y2 = self.y1;
        self.y1 = y;
        y
    }

    /// Processes one sample on lane `k` alone, leaving the other lane as
    /// it is — for a stretch where only one of the two filters has input.
    ///
    /// # Panics
    ///
    /// Panics if `k > 1`.
    #[inline]
    pub fn process_lane(&mut self, k: usize, x: f64) -> f64 {
        let y = self.b0[k] * x + self.b1[k] * self.x1[k] + self.b2[k] * self.x2[k]
            - self.a1[k] * self.y1[k]
            - self.a2[k] * self.y2[k];
        self.x2[k] = self.x1[k];
        self.x1[k] = x;
        self.y2[k] = self.y1[k];
        self.y1[k] = y;
        y
    }
}

fn rbj_params(sample_rate: f64, freq_hz: f64, q: f64) -> (f64, f64) {
    assert!(
        freq_hz > 0.0 && freq_hz < sample_rate / 2.0,
        "frequency {freq_hz} Hz must be in (0, {})",
        sample_rate / 2.0
    );
    assert!(q > 0.0, "Q must be positive, got {q}");
    let w0 = std::f64::consts::TAU * freq_hz / sample_rate;
    let alpha = w0.sin() / (2.0 * q);
    (w0, alpha)
}

/// One-pole exponential smoother: `y += k (x − y)`.
#[derive(Debug, Clone)]
pub struct OnePole {
    k: f64,
    y: f64,
    primed: bool,
}

impl OnePole {
    /// Creates a smoother with time constant `tau_s` at `sample_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `tau_s <= 0` or `sample_rate <= 0`.
    pub fn with_time_constant(sample_rate: f64, tau_s: f64) -> Self {
        assert!(
            tau_s > 0.0 && sample_rate > 0.0,
            "tau and rate must be positive"
        );
        let k = 1.0 - (-1.0 / (tau_s * sample_rate)).exp();
        Self {
            k,
            y: 0.0,
            primed: false,
        }
    }

    /// Processes one sample. The first sample initializes the state so there
    /// is no start-up transient from zero.
    pub fn process(&mut self, x: f64) -> f64 {
        if !self.primed {
            self.y = x;
            self.primed = true;
        } else {
            self.y += self.k * (x - self.y);
        }
        self.y
    }
}

/// Centered moving average over an odd window, edges truncated.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn moving_average(signal: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let half = window / 2;
    (0..signal.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(signal.len());
            signal[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Pre-emphasis filter `y[n] = x[n] − α x[n−1]` used before MFCC analysis.
pub fn pre_emphasis(signal: &[f64], alpha: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(signal.len());
    pre_emphasis_into(signal, alpha, &mut out);
    out
}

/// [`pre_emphasis`] into a caller-owned buffer, reusing its allocation.
pub fn pre_emphasis_into(signal: &[f64], alpha: f64, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(signal.len());
    let mut prev = 0.0;
    for &x in signal {
        out.push(x - alpha * prev);
        prev = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goertzel::tone_amplitude;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn lowpass_attenuates_high_frequencies() {
        let fs = 8000.0;
        let mut f = Biquad::lowpass(fs, 500.0, std::f64::consts::FRAC_1_SQRT_2);
        let low = f.process_buffer(&tone(100.0, fs, 8000));
        f.reset();
        let high = f.process_buffer(&tone(3000.0, fs, 8000));
        let a_low = tone_amplitude(&low[4000..], 100.0, fs);
        let a_high = tone_amplitude(&high[4000..], 3000.0, fs);
        assert!(a_low > 0.95, "passband {a_low}");
        assert!(a_high < 0.05, "stopband {a_high}");
    }

    #[test]
    fn highpass_attenuates_low_frequencies() {
        let fs = 8000.0;
        let mut f = Biquad::highpass(fs, 1000.0, std::f64::consts::FRAC_1_SQRT_2);
        let low = f.process_buffer(&tone(100.0, fs, 8000));
        f.reset();
        let high = f.process_buffer(&tone(3000.0, fs, 8000));
        assert!(tone_amplitude(&low[4000..], 100.0, fs) < 0.05);
        assert!(tone_amplitude(&high[4000..], 3000.0, fs) > 0.9);
    }

    #[test]
    fn bandpass_passes_center() {
        let fs = 48_000.0;
        let mut f = Biquad::bandpass(fs, 18_000.0, 5.0);
        let on = f.process_buffer(&tone(18_000.0, fs, 48_000));
        f.reset();
        let off = f.process_buffer(&tone(2_000.0, fs, 48_000));
        assert!(tone_amplitude(&on[24_000..], 18_000.0, fs) > 0.9);
        assert!(tone_amplitude(&off[24_000..], 2_000.0, fs) < 0.1);
    }

    #[test]
    fn peaking_boosts_center() {
        let fs = 8000.0;
        let mut f = Biquad::peaking(fs, 1000.0, 1.0, 12.0);
        let out = f.process_buffer(&tone(1000.0, fs, 8000));
        let a = tone_amplitude(&out[4000..], 1000.0, fs);
        // +12 dB ≈ ×3.98.
        assert!((a - 3.98).abs() < 0.2, "gain {a}");
    }

    #[test]
    fn one_pole_converges_to_step() {
        let mut s = OnePole::with_time_constant(100.0, 0.05);
        let mut y = 0.0;
        for _ in 0..200 {
            y = s.process(1.0);
        }
        assert!((y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn one_pole_primes_on_first_sample() {
        let mut s = OnePole::with_time_constant(100.0, 1.0);
        assert_eq!(s.process(5.0), 5.0);
    }

    #[test]
    fn moving_average_flat_signal() {
        let out = moving_average(&[2.0; 10], 5);
        assert!(out.iter().all(|&y| (y - 2.0).abs() < 1e-12));
    }

    #[test]
    fn moving_average_smooths_impulse() {
        let mut sig = vec![0.0; 11];
        sig[5] = 5.0;
        let out = moving_average(&sig, 5);
        assert!((out[5] - 1.0).abs() < 1e-12);
        assert!((out[3] - 1.0).abs() < 1e-12);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn pre_emphasis_kills_dc() {
        let out = pre_emphasis(&[1.0; 100], 1.0);
        assert_eq!(out[0], 1.0);
        for &v in &out[1..] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "must be in (0")]
    fn lowpass_rejects_above_nyquist() {
        Biquad::lowpass(8000.0, 5000.0, 0.7);
    }
}

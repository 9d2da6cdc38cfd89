//! Uniformly sampled time series.
//!
//! Audio, magnetometer traces and IMU channels are all uniform-rate signals;
//! [`TimeSeries`] is the common container the substrates exchange.
//!
//! Linear resampling has one kernel, [`TimeSeries::lerp_sample`], and one
//! bulk path over it, [`TimeSeries::lerp_resample`]. The bulk path reads
//! each output's source index and fraction from a per-thread plan for
//! the rate pair, computed once with `lerp_sample`'s own position
//! arithmetic, and applies the end-of-buffer clamp per call; its output
//! is `to_bits`-identical to calling `lerp_sample` at every output
//! instant.

use std::cell::RefCell;

/// A uniformly sampled scalar signal.
///
/// # Example
///
/// ```
/// use magshield_simkit::series::TimeSeries;
/// let ts = TimeSeries::from_samples(100.0, vec![0.0, 1.0, 0.0, -1.0]);
/// assert_eq!(ts.duration(), 0.04);
/// assert!((ts.rms() - (0.5f64).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    sample_rate: f64,
    samples: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series from a sample rate (Hz) and raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is not strictly positive and finite.
    pub fn from_samples(sample_rate: f64, samples: Vec<f64>) -> Self {
        assert!(
            sample_rate.is_finite() && sample_rate > 0.0,
            "sample rate must be positive, got {sample_rate}"
        );
        Self {
            sample_rate,
            samples,
        }
    }

    /// Creates an all-zero series lasting `duration_s` seconds.
    pub fn zeros(sample_rate: f64, duration_s: f64) -> Self {
        let n = (duration_s * sample_rate).round().max(0.0) as usize;
        Self::from_samples(sample_rate, vec![0.0; n])
    }

    /// Creates a series by evaluating `f(t)` at each sample instant.
    pub fn from_fn(sample_rate: f64, duration_s: f64, mut f: impl FnMut(f64) -> f64) -> Self {
        let n = (duration_s * sample_rate).round().max(0.0) as usize;
        let samples = (0..n).map(|i| f(i as f64 / sample_rate)).collect();
        Self::from_samples(sample_rate, samples)
    }

    /// Sample rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }

    /// Immutable view of the samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Consumes the series and returns the sample buffer.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// Linear-interpolated value at time `t` (s); clamps outside the range.
    #[inline]
    pub fn value_at(&self, t: f64) -> f64 {
        Self::lerp_sample(&self.samples, self.sample_rate, t)
    }

    /// Linear-interpolated read of a raw sample buffer at time `t` (s),
    /// clamping outside the range — the kernel behind
    /// [`TimeSeries::value_at`], and the oracle
    /// [`TimeSeries::lerp_resample`] is held to.
    #[inline]
    pub fn lerp_sample(samples: &[f64], sample_rate: f64, t: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let x = (t * sample_rate).clamp(0.0, (samples.len() - 1) as f64);
        // `x` is clamped to ≥ 0 (or NaN, which casts to 0 either way), so
        // truncation is the floor without the rounding call.
        let i = x as usize;
        let frac = x - i as f64;
        if i + 1 < samples.len() {
            samples[i] * (1.0 - frac) + samples[i + 1] * frac
        } else {
            samples[i]
        }
    }

    /// Arithmetic mean (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Population variance (0 for an empty series).
    pub fn variance(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / self.samples.len() as f64
    }

    /// Root-mean-square value.
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        (self.samples.iter().map(|x| x * x).sum::<f64>() / self.samples.len() as f64).sqrt()
    }

    /// Maximum sample value (−inf for an empty series is avoided: returns 0).
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max_by_empty(self)
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min_by_empty(self)
    }

    /// Peak absolute amplitude.
    pub fn peak(&self) -> f64 {
        self.samples.iter().fold(0.0f64, |acc, x| acc.max(x.abs()))
    }

    /// Extracts `[start_s, end_s)` as a new series (clamped to bounds).
    pub fn slice_time(&self, start_s: f64, end_s: f64) -> TimeSeries {
        let a = ((start_s * self.sample_rate).round().max(0.0) as usize).min(self.samples.len());
        let b = ((end_s * self.sample_rate).round().max(0.0) as usize).clamp(a, self.samples.len());
        TimeSeries::from_samples(self.sample_rate, self.samples[a..b].to_vec())
    }

    /// Resamples to `new_rate` Hz with linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `new_rate` is not strictly positive.
    pub fn resampled(&self, new_rate: f64) -> TimeSeries {
        let samples = Self::lerp_resample(&self.samples, self.sample_rate, new_rate);
        TimeSeries::from_samples(new_rate, samples)
    }

    /// Resamples a raw buffer at `sample_rate` Hz to `new_rate` Hz by
    /// linear interpolation: `round(duration · new_rate)` outputs, output
    /// `i` equal bit for bit to
    /// `lerp_sample(samples, sample_rate, i as f64 / new_rate)`.
    ///
    /// Each thread keeps one plan per rate pair (up to four pairs; a
    /// fifth replaces the oldest), grown to the longest output asked for
    /// and reused for any shorter one.
    ///
    /// # Panics
    ///
    /// Panics if `new_rate` is not strictly positive, or if `samples` has
    /// more than `u32::MAX` samples.
    pub fn lerp_resample(samples: &[f64], sample_rate: f64, new_rate: f64) -> Vec<f64> {
        assert!(new_rate > 0.0, "new_rate must be positive");
        if samples.is_empty() {
            return Vec::new();
        }
        let n = (samples.len() as f64 / sample_rate * new_rate).round() as usize;
        RESAMPLE_PLANS.with(|cell| {
            let plans = &mut cell.borrow_mut();
            let key = (sample_rate.to_bits(), new_rate.to_bits());
            let at = match plans.iter().position(|p| p.key == key) {
                Some(at) => at,
                None => {
                    if plans.len() == MAX_PLANS {
                        plans.remove(0);
                    }
                    plans.push(ResamplePlan {
                        key,
                        index: Vec::new(),
                        frac: Vec::new(),
                    });
                    plans.len() - 1
                }
            };
            let plan = &mut plans[at];
            plan.grow(n, sample_rate, new_rate);
            plan.apply(samples, n)
        })
    }

    /// Adds another series sample-by-sample (rates must match; the shorter
    /// length wins).
    ///
    /// # Panics
    ///
    /// Panics if the sample rates differ.
    pub fn mix_in(&mut self, other: &TimeSeries, gain: f64) {
        assert!(
            (self.sample_rate - other.sample_rate).abs() < 1e-9,
            "sample-rate mismatch: {} vs {}",
            self.sample_rate,
            other.sample_rate
        );
        let n = self.samples.len().min(other.samples.len());
        for i in 0..n {
            self.samples[i] += gain * other.samples[i];
        }
    }

    /// Applies a gain to every sample.
    pub fn scaled(mut self, gain: f64) -> TimeSeries {
        for s in &mut self.samples {
            *s *= gain;
        }
        self
    }

    /// Appends another series of the same rate.
    ///
    /// # Panics
    ///
    /// Panics if the sample rates differ.
    pub fn append(&mut self, other: &TimeSeries) {
        assert!(
            (self.sample_rate - other.sample_rate).abs() < 1e-9,
            "sample-rate mismatch"
        );
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Rate pairs each thread keeps a [`ResamplePlan`] for.
const MAX_PLANS: usize = 4;

/// The source position of every output of one linear resampling rate
/// pair, independent of the buffer length: output `i` sits at
/// `x = (i / new_rate) · rate`, split into `index = ⌊x⌋` and
/// `frac = x − index`, exactly as [`TimeSeries::lerp_sample`] splits its
/// position. For a buffer of `len` samples, `lerp_sample` clamps `x` to
/// `len − 1`; when `index + 1 < len` the clamp leaves `x` alone and the
/// output interpolates with the stored fraction, and otherwise
/// `lerp_sample` reads the last sample. [`ResamplePlan::apply`] makes
/// that choice per call, so one plan serves every length.
#[derive(Debug)]
struct ResamplePlan {
    /// `(rate, new_rate)` as bits.
    key: (u64, u64),
    /// `⌊x⌋` per output, saturated at `u32::MAX` (past any buffer's end).
    index: Vec<u32>,
    /// `x − ⌊x⌋` per output.
    frac: Vec<f64>,
}

impl ResamplePlan {
    /// Extends the tables to at least `n` outputs.
    fn grow(&mut self, n: usize, rate: f64, new_rate: f64) {
        for i in self.index.len()..n {
            let x = (i as f64 / new_rate) * rate;
            let k = x as usize;
            self.index.push(u32::try_from(k).unwrap_or(u32::MAX));
            self.frac.push(x - k as f64);
        }
    }

    /// The first `n` outputs over `samples` (non-empty, at most
    /// `u32::MAX` long).
    fn apply(&self, samples: &[f64], n: usize) -> Vec<f64> {
        assert!(
            u32::try_from(samples.len()).is_ok(),
            "cannot resample {} samples: the plan indexes with u32",
            samples.len()
        );
        let last = samples[samples.len() - 1];
        self.index[..n]
            .iter()
            .zip(&self.frac[..n])
            .map(|(&i, &frac)| {
                let i = i as usize;
                if i + 1 < samples.len() {
                    samples[i] * (1.0 - frac) + samples[i + 1] * frac
                } else {
                    last
                }
            })
            .collect()
    }
}

std::thread_local! {
    /// Per-thread resampling plans, most recently created last.
    static RESAMPLE_PLANS: RefCell<Vec<ResamplePlan>> = const { RefCell::new(Vec::new()) };
}

/// Helper trait so `max()`/`min()` return 0 on empty series instead of ±inf.
trait EmptyGuard {
    fn max_by_empty(self, ts: &TimeSeries) -> f64;
    fn min_by_empty(self, ts: &TimeSeries) -> f64;
}

impl EmptyGuard for f64 {
    fn max_by_empty(self, ts: &TimeSeries) -> f64 {
        if ts.is_empty() {
            0.0
        } else {
            self
        }
    }
    fn min_by_empty(self, ts: &TimeSeries) -> f64 {
        if ts.is_empty() {
            0.0
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn construction_and_stats() {
        let ts = TimeSeries::from_samples(10.0, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.duration(), 0.4);
        assert_eq!(ts.mean(), 2.5);
        assert_eq!(ts.max(), 4.0);
        assert_eq!(ts.min(), 1.0);
        assert!((ts.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_series_stats_are_zero() {
        let ts = TimeSeries::from_samples(10.0, vec![]);
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.rms(), 0.0);
        assert_eq!(ts.max(), 0.0);
        assert_eq!(ts.min(), 0.0);
        assert_eq!(ts.value_at(1.0), 0.0);
    }

    #[test]
    fn from_fn_sine_rms() {
        let ts = TimeSeries::from_fn(1000.0, 1.0, |t| (std::f64::consts::TAU * 10.0 * t).sin());
        assert!((ts.rms() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn value_at_interpolates() {
        let ts = TimeSeries::from_samples(1.0, vec![0.0, 10.0]);
        assert_eq!(ts.value_at(0.5), 5.0);
        assert_eq!(ts.value_at(-3.0), 0.0);
        assert_eq!(ts.value_at(99.0), 10.0);
    }

    #[test]
    fn slice_time_bounds() {
        let ts = TimeSeries::from_samples(10.0, (0..10).map(|i| i as f64).collect());
        let s = ts.slice_time(0.2, 0.5);
        assert_eq!(s.samples(), &[2.0, 3.0, 4.0]);
        let clamped = ts.slice_time(0.8, 99.0);
        assert_eq!(clamped.len(), 2);
    }

    #[test]
    fn resample_preserves_duration() {
        let ts = TimeSeries::from_fn(1000.0, 0.5, |t| t);
        let r = ts.resampled(400.0);
        assert!((r.duration() - 0.5).abs() < 0.01);
        assert!((r.value_at(0.25) - 0.25).abs() < 0.01);
    }

    /// `lerp_sample` at every output instant: the oracle
    /// `lerp_resample` is held to.
    fn lerp_oracle(buf: &[f64], rate: f64, new_rate: f64) -> Vec<f64> {
        let n = (buf.len() as f64 / rate * new_rate).round() as usize;
        (0..n)
            .map(|i| TimeSeries::lerp_sample(buf, rate, i as f64 / new_rate))
            .collect()
    }

    /// A buffer of `len` values in `[-1, 1)`, about one in `salt_every`
    /// replaced by ±0, ±inf, a NaN or a ±subnormal.
    fn salted(rng: &mut SimRng, len: usize, salt_every: usize) -> Vec<f64> {
        (0..len)
            .map(|_| {
                if rng.index(salt_every) != 0 {
                    return rng.uniform(-1.0, 1.0);
                }
                let special = [
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                    f64::from_bits(1),
                    -f64::MIN_POSITIVE / 3.0,
                ];
                special[rng.index(special.len())]
            })
            .collect()
    }

    fn assert_matches_oracle(buf: &[f64], (rate, new_rate): (f64, f64), what: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let got = TimeSeries::lerp_resample(buf, rate, new_rate);
        let want = lerp_oracle(buf, rate, new_rate);
        assert_eq!(got.len(), want.len(), "{what}: output length");
        assert_eq!(bits(&got), bits(&want), "{what}");
    }

    const RATE_PAIRS: [(f64, f64); 4] = [
        (48_000.0, 16_000.0),
        (16_000.0, 48_000.0),
        (44_100.0, 16_000.0),
        (8_000.0, 16_000.0),
    ];

    #[test]
    fn planned_resample_is_bit_identical_to_lerp_sample() {
        let mut rng = SimRng::from_seed(28);
        let mut lengths = vec![0, 1, 2, 3, 4801, 144_000];
        lengths.extend((0..6).map(|_| rng.index(20_000)));
        for pair in RATE_PAIRS {
            for &len in &lengths {
                for salt_every in [usize::MAX, 97, 3] {
                    let buf = salted(&mut rng, len, salt_every);
                    let what = format!("{pair:?}, {len} samples, salt 1/{salt_every}");
                    assert_matches_oracle(&buf, pair, &what);
                }
            }
        }
    }

    /// One thread alternating rate pairs and lengths, long then short then
    /// long again, so a plan cached for another pair, or grown for a
    /// longer buffer and clamped for the wrong one, would show.
    #[test]
    fn cached_plans_follow_length_and_rate_pair() {
        let mut rng = SimRng::from_seed(2801);
        for step in 0..40 {
            let pair = RATE_PAIRS[rng.index(RATE_PAIRS.len())];
            let len = match step % 3 {
                0 => 50_000 + rng.index(50_000),
                1 => rng.index(64),
                _ => rng.index(5_000),
            };
            let buf = salted(&mut rng, len, 31);
            assert_matches_oracle(&buf, pair, &format!("step {step}: {pair:?}, {len} samples"));
        }
        // Pairs sharing a source or a target rate with a cached one, and
        // more pairs than the cache holds, so evicted plans are rebuilt.
        for pair in [
            (48_000.0, 8_000.0),
            (11_025.0, 16_000.0),
            (96_000.0, 48_000.0),
            (16_000.0, 22_050.0),
            (48_000.0, 16_000.0),
            (11_025.0, 16_000.0),
        ] {
            let buf = salted(&mut rng, 3_000, 31);
            assert_matches_oracle(&buf, pair, &format!("{pair:?}"));
        }
    }

    #[test]
    fn resampled_series_reads_the_plan() {
        let ts = TimeSeries::from_fn(16_000.0, 0.3, |t| (t * 900.0).sin());
        let r = ts.resampled(48_000.0);
        assert_eq!(r.sample_rate(), 48_000.0);
        assert_eq!(r.samples(), lerp_oracle(ts.samples(), 16_000.0, 48_000.0));
        assert!(TimeSeries::from_samples(10.0, vec![])
            .resampled(20.0)
            .is_empty());
    }

    #[test]
    fn mix_in_adds() {
        let mut a = TimeSeries::from_samples(10.0, vec![1.0, 1.0, 1.0]);
        let b = TimeSeries::from_samples(10.0, vec![1.0, 2.0]);
        a.mix_in(&b, 2.0);
        assert_eq!(a.samples(), &[3.0, 5.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn rejects_bad_rate() {
        TimeSeries::from_samples(0.0, vec![]);
    }

    #[test]
    #[should_panic(expected = "sample-rate mismatch")]
    fn mix_rejects_rate_mismatch() {
        let mut a = TimeSeries::from_samples(10.0, vec![0.0]);
        let b = TimeSeries::from_samples(20.0, vec![0.0]);
        a.mix_in(&b, 1.0);
    }
}

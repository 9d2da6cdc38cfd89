//! Goertzel algorithm: efficient single-bin DFT.
//!
//! The phase-ranging stack (trajectory crate) needs the complex response at
//! exactly the pilot frequency for every short frame; Goertzel computes one
//! bin in O(n) without a full FFT.

use crate::complex::Complex;

/// Complex DFT coefficient of `signal` at `freq_hz` (not normalized).
///
/// Equivalent to `sum_j signal[j] * e^{-2πi·f·j/fs}`.
pub fn goertzel(signal: &[f64], freq_hz: f64, sample_rate: f64) -> Complex {
    let omega = std::f64::consts::TAU * freq_hz / sample_rate;
    let coeff = 2.0 * omega.cos();
    let (mut s1, mut s2) = (0.0f64, 0.0f64);
    for &x in signal {
        let s0 = x + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    // Standard complex Goertzel finalization.
    let re = s1 * omega.cos() - s2;
    let im = s1 * omega.sin();
    Complex::new(re, -im).conj()
}

/// Power of `signal` at `freq_hz` (squared magnitude of the Goertzel bin,
/// normalized by `n²/4` so a unit-amplitude tone reads 1.0).
pub fn tone_power(signal: &[f64], freq_hz: f64, sample_rate: f64) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    let z = goertzel(signal, freq_hz, sample_rate);
    let n = signal.len() as f64;
    z.norm_sqr() / (n * n / 4.0)
}

/// Amplitude of a tone at `freq_hz` (unit-amplitude tone reads ≈ 1.0).
pub fn tone_amplitude(signal: &[f64], freq_hz: f64, sample_rate: f64) -> f64 {
    tone_power(signal, freq_hz, sample_rate).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::rfft;

    fn cosine(freq: f64, fs: f64, n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * freq * i as f64 / fs + phase).cos())
            .collect()
    }

    #[test]
    fn matches_fft_bin() {
        let fs = 1024.0;
        let n = 256;
        let freq = 128.0; // bin 32
        let sig = cosine(freq, fs, n, 0.4);
        let g = goertzel(&sig, freq, fs);
        let spec = rfft(&sig);
        let bin = spec[32];
        assert!((g.re - bin.re).abs() < 1e-6, "re {} vs {}", g.re, bin.re);
        assert!((g.im - bin.im).abs() < 1e-6, "im {} vs {}", g.im, bin.im);
    }

    #[test]
    fn unit_tone_amplitude_reads_one() {
        let fs = 48_000.0;
        let sig = cosine(18_000.0, fs, 4800, 0.0);
        let a = tone_amplitude(&sig, 18_000.0, fs);
        assert!((a - 1.0).abs() < 0.01, "amplitude {a}");
    }

    #[test]
    fn off_frequency_rejection() {
        let fs = 48_000.0;
        let sig = cosine(18_000.0, fs, 4800, 0.0);
        let on = tone_power(&sig, 18_000.0, fs);
        let off = tone_power(&sig, 15_000.0, fs);
        assert!(on > off * 1e4);
    }

    #[test]
    fn empty_signal_power_is_zero() {
        assert_eq!(tone_power(&[], 1000.0, 8000.0), 0.0);
    }
}

//! Framed signal-level metering.
//!
//! The sound-field verification component (§IV-B2) builds feature vectors of
//! `(volume dB, rotation angle)` tuples; this module produces the framed
//! volume track from microphone samples.

/// RMS of a slice (0 for empty input).
pub fn rms(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x * x).sum::<f64>() / samples.len() as f64).sqrt()
}

/// Converts an amplitude to dB full-scale, with a −120 dB silence floor.
pub fn amplitude_to_dbfs(a: f64) -> f64 {
    if a <= 0.0 {
        return -120.0;
    }
    (20.0 * a.log10()).max(-120.0)
}

/// Per-frame RMS levels in dBFS.
///
/// Returns `(frame_times_s, levels_db)`.
///
/// # Panics
///
/// Panics if `frame_s` or `sample_rate` is non-positive.
pub fn level_track(samples: &[f64], sample_rate: f64, frame_s: f64) -> (Vec<f64>, Vec<f64>) {
    assert!(
        sample_rate > 0.0 && frame_s > 0.0,
        "rate and frame must be positive"
    );
    let frame_len = ((sample_rate * frame_s).round() as usize).max(1);
    let mut times = Vec::new();
    let mut levels = Vec::new();
    for (i, chunk) in samples.chunks(frame_len).enumerate() {
        times.push(i as f64 * frame_len as f64 / sample_rate);
        levels.push(amplitude_to_dbfs(rms(chunk)));
    }
    (times, levels)
}

/// Peak absolute amplitude.
pub fn peak(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0f64, |acc, x| acc.max(x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rms_of_sine() {
        let sig: Vec<f64> = (0..1000)
            .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
            .collect();
        assert!((rms(&sig) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn dbfs_reference_points() {
        assert!((amplitude_to_dbfs(1.0)).abs() < 1e-12);
        assert!((amplitude_to_dbfs(0.5) + 6.0206).abs() < 1e-3);
        assert_eq!(amplitude_to_dbfs(0.0), -120.0);
    }

    #[test]
    fn level_track_shape() {
        let sig = vec![1.0; 1000];
        let (t, l) = level_track(&sig, 1000.0, 0.1);
        assert_eq!(t.len(), 10);
        assert!(l.iter().all(|&x| x.abs() < 1e-9));
        assert!((t[1] - 0.1).abs() < 1e-12);
    }
}

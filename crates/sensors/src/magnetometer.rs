//! 3-axis magnetometer model (AK8975 class).
//!
//! The paper (§VI, "Various Classes of Speakers") quotes the AK8975's
//! datasheet figures: 0.3 µT/LSB sensitivity and a ±1200 µT measurement
//! range, sampled here at the typical Android `SENSOR_DELAY_GAME` rate of
//! ~100 Hz. The model adds hard-iron bias (the phone's own magnetized
//! parts), a white noise floor, quantization and range clipping.

use magshield_simkit::rng::SimRng;
use magshield_simkit::vec3::Vec3;

/// Magnetometer datasheet/behavioral parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagnetometerSpec {
    /// Output sample rate (Hz).
    pub sample_rate_hz: f64,
    /// Quantization step (µT per LSB).
    pub resolution_ut: f64,
    /// Saturation range (±µT).
    pub range_ut: f64,
    /// Per-axis white noise standard deviation (µT).
    pub noise_std_ut: f64,
    /// Magnitude of the per-device hard-iron bias (µT).
    pub hard_iron_ut: f64,
}

impl MagnetometerSpec {
    /// AK8975 (Nexus 4 / Galaxy Nexus era part, cited by the paper).
    pub fn ak8975() -> Self {
        Self {
            sample_rate_hz: 100.0,
            resolution_ut: 0.3,
            range_ut: 1200.0,
            noise_std_ut: 0.35,
            hard_iron_ut: 3.0,
        }
    }
}

impl Default for MagnetometerSpec {
    fn default() -> Self {
        Self::ak8975()
    }
}

/// A concrete magnetometer instance with its own bias realization.
#[derive(Debug, Clone)]
pub struct Magnetometer {
    spec: MagnetometerSpec,
    bias: Vec3,
    rng: SimRng,
}

impl Magnetometer {
    /// Instantiates a magnetometer; the hard-iron bias direction is drawn
    /// from `rng` so each simulated device differs.
    pub fn new(spec: MagnetometerSpec, rng: SimRng) -> Self {
        let mut brng = rng.fork("mag-bias");
        let dir = Vec3::new(
            brng.gauss(0.0, 1.0),
            brng.gauss(0.0, 1.0),
            brng.gauss(0.0, 1.0),
        );
        let bias = if dir.norm() > 1e-9 {
            dir.normalized() * spec.hard_iron_ut
        } else {
            Vec3::new(spec.hard_iron_ut, 0.0, 0.0)
        };
        Self {
            spec,
            bias,
            rng: rng.fork("mag-noise"),
        }
    }

    /// The sensor's sampling rate (Hz).
    pub fn sample_rate(&self) -> f64 {
        self.spec.sample_rate_hz
    }

    /// The spec this instance was built from.
    pub fn spec(&self) -> &MagnetometerSpec {
        &self.spec
    }

    /// Converts one true field vector (µT) into a sensor reading:
    /// bias + noise, then clip, then quantize.
    pub fn read(&mut self, field_ut: Vec3) -> Vec3 {
        let noisy = field_ut
            + self.bias
            + Vec3::new(
                self.rng.gauss(0.0, self.spec.noise_std_ut),
                self.rng.gauss(0.0, self.spec.noise_std_ut),
                self.rng.gauss(0.0, self.spec.noise_std_ut),
            );
        let clip = |x: f64| x.clamp(-self.spec.range_ut, self.spec.range_ut);
        let quant = |x: f64| (x / self.spec.resolution_ut).round() * self.spec.resolution_ut;
        Vec3::new(
            quant(clip(noisy.x)),
            quant(clip(noisy.y)),
            quant(clip(noisy.z)),
        )
    }

    /// Reads a whole trajectory of true fields.
    pub fn read_series(&mut self, fields_ut: &[Vec3]) -> Vec<Vec3> {
        fields_ut.iter().map(|&f| self.read(f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mag(seed: u64) -> Magnetometer {
        Magnetometer::new(MagnetometerSpec::ak8975(), SimRng::from_seed(seed))
    }

    #[test]
    fn readings_are_quantized() {
        let mut m = mag(1);
        let r = m.read(Vec3::new(47.3, -12.8, 30.1));
        for c in [r.x, r.y, r.z] {
            let steps = c / 0.3;
            assert!(
                (steps - steps.round()).abs() < 1e-9,
                "{c} not on 0.3 µT grid"
            );
        }
    }

    #[test]
    fn readings_clip_at_range() {
        let mut m = mag(2);
        let r = m.read(Vec3::new(5000.0, -5000.0, 0.0));
        assert!(r.x <= 1200.0 + 1e-9);
        assert!(r.y >= -1200.0 - 1e-9);
    }

    #[test]
    fn noise_floor_statistics() {
        let mut m = mag(3);
        let readings = m.read_series(&vec![Vec3::ZERO; 5000]);
        // Mean reading reveals the hard-iron bias (~3 µT magnitude).
        let mean = readings.iter().fold(Vec3::ZERO, |a, &b| a + b) / readings.len() as f64;
        assert!(
            (mean.norm() - 3.0).abs() < 0.5,
            "bias magnitude {}",
            mean.norm()
        );
        // Per-axis std ≈ noise std (0.35) ⊕ quantization (0.3/√12 ≈ 0.087).
        let var_x =
            readings.iter().map(|r| (r.x - mean.x).powi(2)).sum::<f64>() / readings.len() as f64;
        assert!(
            (var_x.sqrt() - 0.36).abs() < 0.08,
            "noise std {}",
            var_x.sqrt()
        );
    }

    #[test]
    fn different_devices_have_different_bias() {
        let mut a = mag(10);
        let mut b = mag(11);
        let ra = a.read_series(&vec![Vec3::ZERO; 200]);
        let rb = b.read_series(&vec![Vec3::ZERO; 200]);
        let mean = |v: &[Vec3]| v.iter().fold(Vec3::ZERO, |x, &y| x + y) / v.len() as f64;
        assert!((mean(&ra) - mean(&rb)).norm() > 0.5);
    }

    #[test]
    fn speaker_signal_visible_over_noise() {
        // A 100 µT near-field anomaly must dominate the ~0.4 µT noise.
        let mean_norm = |field: Vec3| {
            let readings = mag(4).read_series(&vec![field; 300]);
            readings.iter().map(|r| r.norm()).sum::<f64>() / readings.len() as f64
        };
        assert!(
            mean_norm(Vec3::new(0.0, 128.0, -39.0)) - mean_norm(Vec3::new(0.0, 28.0, -39.0)) > 50.0
        );
    }

    #[test]
    fn reproducible_given_seed() {
        let mut a = mag(9);
        let mut b = mag(9);
        let f = vec![Vec3::new(1.0, 2.0, 3.0); 64];
        assert_eq!(a.read_series(&f), b.read_series(&f));
    }
}

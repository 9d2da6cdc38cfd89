//! Sound-tube waveguides — the §VII "Sound-tube Attacks" experiment.
//!
//! An attacker pipes loudspeaker output through a narrow plastic tube so the
//! speaker (and its magnet) can stay far from the phone while a mouth-sized
//! opening sits close. The paper reports all such attacks failed: the tube
//! imposes strong resonant coloration (organ-pipe modes) and cannot
//! replicate a human sound field.
//!
//! We model the tube as an open–open cylindrical waveguide: resonances at
//! `f_n = n·c/(2L)`, inter-resonance attenuation, plus viscous wall loss
//! growing with length and narrowness. The outlet behaves as a new piston
//! source with the tube's bore radius.

use super::medium::SPEED_OF_SOUND;

/// A cylindrical sound tube.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoundTube {
    /// Tube length (m).
    pub length_m: f64,
    /// Bore radius (m).
    pub bore_radius_m: f64,
    /// Resonance quality factor (sharpness of the comb peaks).
    pub q: f64,
}

impl SoundTube {
    /// Creates a tube.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is non-positive.
    pub fn new(length_m: f64, bore_radius_m: f64) -> Self {
        assert!(
            length_m > 0.0 && bore_radius_m > 0.0,
            "dimensions must be positive"
        );
        Self {
            length_m,
            bore_radius_m,
            q: 12.0,
        }
    }

    /// Resonant mode frequencies up to `max_hz`.
    pub fn resonances(&self, max_hz: f64) -> Vec<f64> {
        let f1 = SPEED_OF_SOUND / (2.0 * self.length_m);
        (1..)
            .map(|n| n as f64 * f1)
            .take_while(|&f| f <= max_hz)
            .collect()
    }

    /// Linear amplitude transmission gain at `freq_hz`.
    ///
    /// Near a resonance the tube transmits well (gain toward ~1 with a
    /// resonant bump); between resonances transmission dips. Viscous losses
    /// scale with `L/r`.
    pub fn transmission_gain(&self, freq_hz: f64) -> f64 {
        let f1 = SPEED_OF_SOUND / (2.0 * self.length_m);
        // Distance (in mode units) from the nearest resonance.
        let mode = freq_hz / f1;
        let frac = (mode - mode.round()).abs(); // 0 at resonance, 0.5 between
        let resonance_shape = 1.0 / (1.0 + (2.0 * self.q * frac / mode.max(1.0)).powi(2));
        // Comb response: full transmission at resonance, dips between.
        let comb = 0.25 + 0.75 * resonance_shape;
        // Viscous wall loss: ~0.02 dB per (length/radius) unit at 1 kHz,
        // growing with sqrt(f).
        let loss_db = 0.02 * (self.length_m / self.bore_radius_m) * (freq_hz / 1000.0).sqrt();
        comb * 10f64.powf(-loss_db / 20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resonances_are_harmonic() {
        let t = SoundTube::new(0.343, 0.0125); // 34.3 cm → f1 = 500 Hz
        let r = t.resonances(2200.0);
        assert_eq!(r.len(), 4);
        assert!((r[0] - 500.0).abs() < 1e-9);
        assert!((r[3] - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn transmission_peaks_at_resonance() {
        let t = SoundTube::new(0.343, 0.0125);
        let at_res = t.transmission_gain(500.0);
        let between = t.transmission_gain(750.0);
        assert!(
            at_res > between,
            "resonance {at_res} vs antiresonance {between}"
        );
    }

    #[test]
    fn longer_tube_attenuates_more() {
        let short = SoundTube::new(0.10, 0.0125);
        let long = SoundTube::new(0.40, 0.0125);
        // Compare at each tube's own first resonance (peak transmission).
        let g_short = short.transmission_gain(SPEED_OF_SOUND / 0.2);
        let g_long = long.transmission_gain(SPEED_OF_SOUND / 0.8);
        assert!(g_long < g_short);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn rejects_zero_length() {
        SoundTube::new(0.0, 0.01);
    }
}

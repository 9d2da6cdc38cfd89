//! MagLive-style magnetic-pattern evasion — active compensation of a
//! loudspeaker's field signature.
//!
//! Magnetometer-based liveness defenses (this paper; MagLive in PAPERS.md)
//! key on two components of a loudspeaker's signature: the static
//! permanent-magnet field and the audio-correlated voice-coil modulation.
//! A motivated attacker can fight both with an *active compensation coil*:
//! a second coil near the driver fed the inverted drive signal (against
//! the AC component) plus a DC bias (against the magnet).
//!
//! Physics keeps this evasion imperfect:
//!
//! 1. **DC mismatch** — the permanent magnet's dipole moment must be
//!    matched in magnitude, orientation and position; a hand-tuned bias
//!    coil leaves a residual fraction of the static field.
//! 2. **Loop lag** — the compensation coil replays the drive through an
//!    amplifier with finite group delay, so the cancellation signal lags
//!    the coil it fights by a few samples. The residual AC field is then
//!    proportional to the drive *difference* across the lag — small for
//!    slowly varying drive, but speech envelopes are exactly the fast
//!    modulation the defense thresholds on.
//! 3. **Geometry error** — the compensation coil cannot be co-located
//!    with the voice coil, so even a perfectly timed inverse leaves a
//!    position-dependent residual; we fold this into the residual
//!    fractions (they are *effective* values at protocol range).

/// An active compensation rig an attacker straps to a loudspeaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveCompensation {
    /// Fraction of the static (permanent-magnet) moment that survives the
    /// DC bias coil, in `[0, 1]`. 1.0 = no DC cancellation.
    pub dc_residual: f64,
    /// Fraction of the drive-correlated (voice-coil) moment that survives
    /// perfect-timing cancellation, in `[0, 1]`; models amplitude and
    /// geometry mismatch.
    pub ac_residual: f64,
    /// Compensation-loop group delay, in magnetometer samples. The lagged
    /// inverse leaves a residual proportional to the drive slew over this
    /// window.
    pub lag_samples: usize,
}

impl ActiveCompensation {
    /// A carefully tuned rig: 8 % DC leakage, 10 % AC amplitude mismatch,
    /// two samples (~20 ms at 100 Hz) of loop lag. Representative of what
    /// a dedicated attacker achieves on a bench without lab-grade field
    /// mapping.
    pub fn tuned() -> Self {
        Self {
            dc_residual: 0.08,
            ac_residual: 0.10,
            lag_samples: 2,
        }
    }

    /// The effective static-moment multiplier.
    pub fn dc_factor(&self) -> f64 {
        self.dc_residual.clamp(0.0, 1.0)
    }

    /// The effective drive value at sample `i`, given the raw drive
    /// waveform: the attacker's inverse cancels `1 - ac_residual` of the
    /// drive, but lagged by [`ActiveCompensation::lag_samples`], so what
    /// leaks is the residual fraction plus the slew across the lag.
    pub fn residual_drive(&self, drive: &[f64], i: usize) -> f64 {
        let at = |k: usize| drive.get(k).copied().unwrap_or(0.0);
        let now = at(i);
        let ac = self.ac_residual.clamp(0.0, 1.0);
        let cancelled = (1.0 - ac) * at(i.saturating_sub(self.lag_samples));
        now - cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_rig_with_no_lag_cancels_ac() {
        let c = ActiveCompensation {
            dc_residual: 0.0,
            ac_residual: 0.0,
            lag_samples: 0,
        };
        let drive = [0.5, -0.3, 0.9];
        for i in 0..drive.len() {
            assert!(c.residual_drive(&drive, i).abs() < 1e-12);
        }
        assert_eq!(c.dc_factor(), 0.0);
    }

    #[test]
    fn lag_leaks_the_slew() {
        let c = ActiveCompensation {
            dc_residual: 0.0,
            ac_residual: 0.0,
            lag_samples: 1,
        };
        // Constant drive: lagged inverse still cancels exactly.
        let flat = [0.7, 0.7, 0.7, 0.7];
        assert!(c.residual_drive(&flat, 3).abs() < 1e-12);
        // Step: the sample after the step leaks the full step height.
        let step = [0.0, 0.0, 1.0, 1.0];
        assert!((c.residual_drive(&step, 2) - 1.0).abs() < 1e-12);
        assert!(c.residual_drive(&step, 3).abs() < 1e-12);
    }

    #[test]
    fn residual_fraction_bounds_the_leak() {
        let c = ActiveCompensation {
            dc_residual: 0.1,
            ac_residual: 0.25,
            lag_samples: 0,
        };
        let drive = [1.0];
        assert!((c.residual_drive(&drive, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tuned_rig_is_a_strong_but_imperfect_attenuator() {
        let c = ActiveCompensation::tuned();
        assert!(c.dc_factor() > 0.0 && c.dc_factor() < 0.2);
        // Slowly varying drive: residual well under the raw drive.
        let drive: Vec<f64> = (0..50).map(|i| (i as f64 * 0.05).sin()).collect();
        let raw_peak = drive.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let res_peak = (0..50)
            .map(|i| c.residual_drive(&drive, i).abs())
            .fold(0.0f64, f64::max);
        assert!(
            res_peak < raw_peak * 0.5,
            "residual {res_peak} vs {raw_peak}"
        );
        assert!(res_peak > 1e-6, "imperfect: some leak must remain");
    }
}

//! Pilot-tone phase ranging and sweep consistency.
//!
//! The phone emits an inaudible pilot (>16 kHz, §IV-B1); the received
//! phase tracks the phone–source path length at sub-centimeter precision
//! (Fig. 6 shows the corresponding spectrograph). Two measurements matter
//! to the defense:
//!
//! 1. **approach displacement** — how far the phone actually closed in on
//!    the sound source during the approach segment;
//! 2. **sweep consistency** — during the sweep the phone's distance to a
//!    *genuine* (circle-center) source is constant, so pilot phase is
//!    flat; an attacker whose loudspeaker sits away from the sweep pivot
//!    produces a distance ripple the phase exposes.

use magshield_dsp::phase::{phase_to_displacement, PhaseTracker};
use magshield_physics::acoustics::medium::SPEED_OF_SOUND;

/// Results of pilot-phase analysis over a session recording.
#[derive(Debug, Clone)]
pub struct RangingAnalysis {
    /// Phone–source path-length change over the approach segment (m);
    /// negative = the phone closed in.
    pub approach_displacement_m: f64,
    /// Peak-to-peak distance ripple during the sweep segment (m).
    pub sweep_ripple_m: f64,
    /// Median pilot amplitude over the sweep segment. Because the phone
    /// emits the pilot at a factory-known level through its own mic chain,
    /// this amplitude is an *absolute* range measurement: `d ≈ K / amp`
    /// with a per-device calibration constant `K`.
    pub sweep_amplitude: f64,
}

/// Analyzes a microphone recording containing the pilot tone.
///
/// `sweep_start_s` marks the approach/sweep boundary in seconds.
///
/// The recording's pilot component is assumed to arrive over the direct
/// (one-way) phone→source→phone... in our capture model the pilot travels
/// phone→scene and the *received* pilot at the phone's mic is the
/// reflection/leak whose path length follows the phone–source distance, so
/// phase displacement maps 1:1 to distance change.
pub fn analyze(
    recording: &[f64],
    sample_rate: f64,
    pilot_hz: f64,
    sweep_start_s: f64,
) -> RangingAnalysis {
    let tracker = PhaseTracker::new(pilot_hz, sample_rate);
    let track = tracker.track(recording, sample_rate);
    if track.phase.len() < 4 {
        return RangingAnalysis {
            approach_displacement_m: 0.0,
            sweep_ripple_m: 0.0,
            sweep_amplitude: 0.0,
        };
    }
    // Split frames into approach and sweep by time.
    let split = track
        .times
        .iter()
        .position(|&t| t >= sweep_start_s)
        .unwrap_or(track.phase.len());

    let displacement = |a: usize, b: usize| -> f64 {
        if b <= a + 1 {
            return 0.0;
        }
        phase_to_displacement(
            track.phase[b - 1] - track.phase[a],
            pilot_hz,
            SPEED_OF_SOUND,
        )
    };
    let approach_displacement_m = displacement(0, split);

    // Sweep ripple: peak-to-peak of the displacement curve within the sweep.
    let sweep_ripple_m = if split + 1 < track.phase.len() {
        let base = track.phase[split];
        let (lo, hi) = track.phase[split..]
            .iter()
            .map(|&p| phase_to_displacement(p - base, pilot_hz, SPEED_OF_SOUND))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), d| {
                (l.min(d), h.max(d))
            });
        hi - lo
    } else {
        0.0
    };

    let sweep_amplitude = if split < track.amplitude.len() {
        // The median element: selecting it under the total order gives the
        // bits a full sort would put there, in linear time.
        let mut a: Vec<f64> = track.amplitude[split..].to_vec();
        let mid = a.len() / 2;
        *a.select_nth_unstable_by(mid, f64::total_cmp).1
    } else {
        0.0
    };

    RangingAnalysis {
        approach_displacement_m,
        sweep_ripple_m,
        sweep_amplitude,
    }
}

/// Renders the pilot tone as received at the phone when the phone–source
/// distance follows `distance_m` (one value per audio sample): exact
/// delay phase and 1/r amplitude (unity gain at the 10 cm reference).
///
/// The pilot sits near Nyquist, where a sample-domain fractional-delay
/// line (e.g. [`render_path`]'s linear interpolation) attenuates by up to
/// ~12 dB depending on the fractional part of the delay; since the pilot
/// is a known sinusoid we evaluate the delayed waveform analytically
/// instead.
///
/// [`render_path`]: magshield_physics::acoustics::propagation::render_path
pub fn render_received_pilot(pilot_hz: f64, sample_rate: f64, distance_m: &[f64]) -> Vec<f64> {
    const REF_M: f64 = 0.10;
    distance_m
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let t = i as f64 / sample_rate;
            let gain = REF_M / d.max(REF_M * 0.1);
            gain * (std::f64::consts::TAU * pilot_hz * (t - d / SPEED_OF_SOUND)).cos()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 48_000.0;
    const PILOT: f64 = 18_000.0;

    fn distance_profile(n_app: usize, n_swp: usize, ripple: f64) -> Vec<f64> {
        let mut d = Vec::new();
        for i in 0..n_app {
            let t = i as f64 / n_app as f64;
            d.push(0.20 - 0.15 * t);
        }
        for i in 0..n_swp {
            let t = i as f64 / n_swp as f64;
            d.push(0.05 + ripple * (std::f64::consts::TAU * 1.5 * t).sin());
        }
        d
    }

    #[test]
    fn approach_displacement_measured() {
        let d = distance_profile(48_000, 48_000, 0.0);
        let rec = render_received_pilot(PILOT, FS, &d);
        let a = analyze(&rec, FS, PILOT, 1.0);
        assert!(
            (a.approach_displacement_m + 0.15).abs() < 0.01,
            "approach displacement {} should be ≈ −0.15",
            a.approach_displacement_m
        );
    }

    #[test]
    fn genuine_sweep_has_low_ripple() {
        let d = distance_profile(48_000, 48_000, 0.0);
        let rec = render_received_pilot(PILOT, FS, &d);
        let a = analyze(&rec, FS, PILOT, 1.0);
        assert!(a.sweep_ripple_m < 0.005, "ripple {}", a.sweep_ripple_m);
    }

    #[test]
    fn off_center_sweep_exposed_by_ripple() {
        // Attacker pivot 10 cm from the loudspeaker → centimetres of
        // distance ripple during the sweep.
        let d = distance_profile(48_000, 48_000, 0.02);
        let rec = render_received_pilot(PILOT, FS, &d);
        let a = analyze(&rec, FS, PILOT, 1.0);
        assert!(
            a.sweep_ripple_m > 0.02,
            "ripple {} should expose the off-center source",
            a.sweep_ripple_m
        );
    }

    #[test]
    fn amplitude_grows_as_phone_approaches() {
        let d = distance_profile(48_000, 0, 0.0);
        let rec = render_received_pilot(PILOT, FS, &d);
        let tracker = PhaseTracker::new(PILOT, FS);
        let track = tracker.track(&rec, FS);
        let early = track.amplitude[10];
        let late = track.amplitude[track.amplitude.len() - 10];
        assert!(late > early * 2.0, "amplitude {early} → {late}");
    }

    #[test]
    fn silence_yields_neutral_analysis() {
        let a = analyze(&vec![0.0; 4800], FS, PILOT, 0.05);
        assert!(a.sweep_amplitude < 1e-3);
        assert!(a.approach_displacement_m.abs() < 1e-3);
    }

    #[test]
    fn empty_recording_is_safe() {
        let a = analyze(&[], FS, PILOT, 0.5);
        assert_eq!(a.approach_displacement_m, 0.0);
        assert_eq!(a.sweep_ripple_m, 0.0);
    }
}

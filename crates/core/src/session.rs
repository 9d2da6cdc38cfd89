//! Captured sensor data for one verification session.

use magshield_simkit::vec3::Vec3;

/// Everything the phone records during one verification attempt — the
/// payload the mobile client uploads to the server backend (§V).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionData {
    /// Claimed user identity.
    pub claimed_speaker: u32,
    /// Microphone recording (speech + received pilot tone + noise).
    pub audio: Vec<f64>,
    /// Secondary (noise-cancellation) microphone recording, when the
    /// device has one (§VII "Dual Microphones", e.g. Nexus 4). Same rate
    /// and length as `audio`.
    pub audio2: Option<Vec<f64>>,
    /// Audio sample rate (Hz).
    pub audio_rate: f64,
    /// The pilot frequency this phone calibrated (Hz).
    pub pilot_hz: f64,
    /// Magnetometer readings, body frame (µT).
    pub mag_readings: Vec<Vec3>,
    /// Accelerometer readings, body frame, gravity-free (m/s²).
    pub accel_readings: Vec<Vec3>,
    /// Gyroscope readings, body frame (rad/s).
    pub gyro_readings: Vec<Vec3>,
    /// IMU sample rate (Hz).
    pub imu_rate: f64,
    /// Time (s) where the sweep segment begins.
    pub sweep_start_s: f64,
    /// Pre-session ambient field calibration: the Earth-field vector the
    /// phone measured before motion began (world frame, µT).
    pub earth_reference: Vec3,
}

impl SessionData {
    /// Sample index in the IMU streams where the sweep begins.
    pub fn sweep_start_index(&self) -> usize {
        (self.sweep_start_s * self.imu_rate).round() as usize
    }

    /// Session duration (s) by the IMU clock.
    pub fn duration(&self) -> f64 {
        self.mag_readings.len() as f64 / self.imu_rate
    }

    /// Magnetometer magnitude trace (µT).
    pub fn mag_magnitude(&self) -> Vec<f64> {
        self.mag_readings.iter().map(|r| r.norm()).collect()
    }

    /// Per-sample magnetometer heading observations against the calibrated
    /// reference (None where the field is unusable).
    pub fn mag_heading_observations(&self) -> Vec<Option<f64>> {
        use magshield_sensors::orientation::HeadingFilter;
        self.mag_readings
            .iter()
            .map(|&r| HeadingFilter::mag_heading(r, self.earth_reference))
            .collect()
    }

    /// Basic integrity check: non-empty streams, consistent rates, a
    /// pilot above the inaudibility floor and below the audio's Nyquist
    /// frequency, a sweep mark inside the session, and finite samples
    /// and calibration throughout.
    ///
    /// Every scalar comparison is written so that NaN fails it: the
    /// rates, `pilot_hz`, `sweep_start_s` and `earth_reference` all
    /// arrive raw off the wire.
    pub fn validate(&self) -> Result<(), SessionError> {
        if self.audio.is_empty() {
            return Err(SessionError::EmptyAudio);
        }
        if self.mag_readings.is_empty()
            || self.accel_readings.is_empty()
            || self.gyro_readings.is_empty()
        {
            return Err(SessionError::EmptySensorStream);
        }
        let rate_ok = |r: f64| r.is_finite() && r > 0.0;
        if !rate_ok(self.audio_rate) || !rate_ok(self.imu_rate) {
            return Err(SessionError::BadRate);
        }
        if self.pilot_hz.is_nan() || self.pilot_hz <= 16_000.0 {
            return Err(SessionError::PilotTooLow(self.pilot_hz));
        }
        if self.pilot_hz >= self.audio_rate / 2.0 {
            return Err(SessionError::PilotTooHigh(self.pilot_hz));
        }
        if !(0.0..=self.duration()).contains(&self.sweep_start_s) {
            return Err(SessionError::BadSweepMark);
        }
        if let Some(a2) = &self.audio2 {
            if a2.len() != self.audio.len() {
                return Err(SessionError::SecondMicMismatch);
            }
        }
        let exponents = finite_scan(&self.audio)
            | self.audio2.as_deref().map_or(0, finite_scan)
            | finite_scan_vec3(&self.mag_readings)
            | finite_scan_vec3(&self.accel_readings)
            | finite_scan_vec3(&self.gyro_readings)
            | finite_scan_vec3(std::slice::from_ref(&self.earth_reference));
        if exponents & NON_FINITE != 0 {
            return Err(SessionError::NonFiniteData);
        }
        Ok(())
    }
}

/// The exponent field of an IEEE-754 `f64`.
const EXPONENT: u64 = 0x7FF0_0000_0000_0000;

/// The bit a [`finite_scan`] accumulator sets when it saw a non-finite
/// value.
const NON_FINITE: u64 = 1 << 63;

/// Step of the finiteness reduction: `(bits & EXPONENT) + (1 << 52)`
/// carries into bit 63 exactly when the exponent field is all ones (an
/// infinity or a NaN), and stays below it for every finite value.
#[inline]
fn exponent_carry(x: f64) -> u64 {
    (x.to_bits() & EXPONENT) + (1 << 52)
}

/// The OR of [`exponent_carry`] over `xs`: [`NON_FINITE`] is set iff
/// some value is infinite or NaN. Branch-free, so it reads every sample
/// (a session is valid in the common case, where a short-circuiting
/// `all(is_finite)` reads every sample too) and vectorizes.
fn finite_scan(xs: &[f64]) -> u64 {
    xs.iter().fold(0, |acc, &x| acc | exponent_carry(x))
}

/// [`finite_scan`] over every component of `vs`.
fn finite_scan_vec3(vs: &[Vec3]) -> u64 {
    vs.iter().fold(0, |acc, v| {
        acc | exponent_carry(v.x) | exponent_carry(v.y) | exponent_carry(v.z)
    })
}

/// Session integrity errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// No audio captured.
    EmptyAudio,
    /// A sensor stream is empty.
    EmptySensorStream,
    /// A sample rate is non-positive.
    BadRate,
    /// Pilot below the paper's 16 kHz floor, or NaN.
    PilotTooLow(f64),
    /// Pilot at or above the audio's Nyquist frequency
    /// (`audio_rate / 2`), infinity included: no capture at that rate
    /// can hold it.
    PilotTooHigh(f64),
    /// Sweep marker outside the session, or NaN.
    BadSweepMark,
    /// NaN/inf in the samples or the Earth-field reference.
    NonFiniteData,
    /// Secondary microphone stream length does not match the primary.
    SecondMicMismatch,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::EmptyAudio => write!(f, "session has no audio"),
            SessionError::EmptySensorStream => write!(f, "a sensor stream is empty"),
            SessionError::BadRate => write!(f, "non-positive sample rate"),
            SessionError::PilotTooLow(hz) => {
                write!(f, "pilot {hz} Hz is below the 16 kHz inaudibility floor")
            }
            SessionError::PilotTooHigh(hz) => {
                write!(
                    f,
                    "pilot {hz} Hz is at or above the audio's Nyquist frequency"
                )
            }
            SessionError::BadSweepMark => write!(f, "sweep marker outside the session"),
            SessionError::NonFiniteData => write!(f, "non-finite samples in session data"),
            SessionError::SecondMicMismatch => {
                write!(f, "secondary microphone stream length mismatch")
            }
        }
    }
}

impl std::error::Error for SessionError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> SessionData {
        SessionData {
            claimed_speaker: 1,
            audio: vec![0.0; 480],
            audio2: None,
            audio_rate: 48_000.0,
            pilot_hz: 18_000.0,
            mag_readings: vec![Vec3::new(0.0, 28.0, -39.0); 10],
            accel_readings: vec![Vec3::ZERO; 10],
            gyro_readings: vec![Vec3::ZERO; 10],
            imu_rate: 100.0,
            sweep_start_s: 0.05,
            earth_reference: Vec3::new(0.0, 28.0, -39.0),
        }
    }

    #[test]
    fn valid_session_passes() {
        assert!(minimal().validate().is_ok());
    }

    #[test]
    fn rejects_empty_audio() {
        let mut s = minimal();
        s.audio.clear();
        assert_eq!(s.validate(), Err(SessionError::EmptyAudio));
    }

    #[test]
    fn rejects_low_pilot() {
        let mut s = minimal();
        s.pilot_hz = 12_000.0;
        assert!(matches!(s.validate(), Err(SessionError::PilotTooLow(_))));
    }

    #[test]
    fn rejects_pilot_at_or_above_nyquist() {
        for hz in [24_000.0, 30_000.0, 1e300, f64::INFINITY] {
            let mut s = minimal();
            s.pilot_hz = hz;
            assert_eq!(s.validate(), Err(SessionError::PilotTooHigh(hz)), "{hz}");
            assert_eq!(validate_oracle(&s), s.validate(), "{hz}");
        }
        let mut s = minimal();
        s.pilot_hz = 23_999.0;
        assert!(s.validate().is_ok());
        // The same pilot is above Nyquist at a lower audio rate.
        s.audio_rate = 44_100.0;
        assert_eq!(s.validate(), Err(SessionError::PilotTooHigh(23_999.0)));
        s.pilot_hz = f64::NEG_INFINITY;
        assert!(matches!(s.validate(), Err(SessionError::PilotTooLow(_))));
    }

    #[test]
    fn rejects_nan() {
        let mut s = minimal();
        s.audio[3] = f64::NAN;
        assert_eq!(s.validate(), Err(SessionError::NonFiniteData));
    }

    #[test]
    fn rejects_bad_sweep_mark() {
        let mut s = minimal();
        s.sweep_start_s = 99.0;
        assert_eq!(s.validate(), Err(SessionError::BadSweepMark));
    }

    #[test]
    fn rejects_nan_pilot() {
        let mut s = minimal();
        s.pilot_hz = f64::NAN;
        assert!(matches!(s.validate(), Err(SessionError::PilotTooLow(hz)) if hz.is_nan()));
    }

    #[test]
    fn rejects_nan_sweep_mark() {
        let mut s = minimal();
        s.sweep_start_s = f64::NAN;
        assert_eq!(s.validate(), Err(SessionError::BadSweepMark));
    }

    #[test]
    fn rejects_non_finite_earth_reference() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for axis in 0..3 {
                let mut s = minimal();
                let mut c = [28.0, 0.0, -39.0];
                c[axis] = bad;
                s.earth_reference = Vec3::new(c[0], c[1], c[2]);
                assert_eq!(
                    s.validate(),
                    Err(SessionError::NonFiniteData),
                    "{bad} on axis {axis}"
                );
            }
        }
    }

    /// The parent scan the exponent-bit reduction replaced: the same
    /// checks in the same order, finiteness by short-circuiting
    /// `is_finite`. Only called with finite, in-range scalars, where the
    /// scalar checks added since agree with it.
    fn validate_oracle(s: &SessionData) -> Result<(), SessionError> {
        if s.audio.is_empty() {
            return Err(SessionError::EmptyAudio);
        }
        if s.mag_readings.is_empty() || s.accel_readings.is_empty() || s.gyro_readings.is_empty() {
            return Err(SessionError::EmptySensorStream);
        }
        let rate_ok = |r: f64| r.is_finite() && r > 0.0;
        if !rate_ok(s.audio_rate) || !rate_ok(s.imu_rate) {
            return Err(SessionError::BadRate);
        }
        if s.pilot_hz <= 16_000.0 {
            return Err(SessionError::PilotTooLow(s.pilot_hz));
        }
        if s.pilot_hz >= s.audio_rate / 2.0 {
            return Err(SessionError::PilotTooHigh(s.pilot_hz));
        }
        if s.sweep_start_s < 0.0 || s.sweep_start_s > s.duration() {
            return Err(SessionError::BadSweepMark);
        }
        if let Some(a2) = &s.audio2 {
            if a2.len() != s.audio.len() {
                return Err(SessionError::SecondMicMismatch);
            }
            if !a2.iter().all(|x| x.is_finite()) {
                return Err(SessionError::NonFiniteData);
            }
        }
        let finite = s.audio.iter().all(|x| x.is_finite())
            && s.mag_readings.iter().all(|v| v.is_finite())
            && s.accel_readings.iter().all(|v| v.is_finite())
            && s.gyro_readings.iter().all(|v| v.is_finite());
        if !finite {
            return Err(SessionError::NonFiniteData);
        }
        Ok(())
    }

    /// One value of every IEEE-754 class, by sign: zeros, subnormals
    /// (smallest and largest), normals (smallest, largest, ordinary),
    /// infinities, and quiet and signaling NaNs with and without
    /// payload.
    fn ieee_classes() -> Vec<f64> {
        let mut classes = Vec::new();
        for sign in [0, 1u64 << 63] {
            for bits in [
                0,
                1,
                0x000F_FFFF_FFFF_FFFF,
                0x0010_0000_0000_0000,
                0x7FEF_FFFF_FFFF_FFFF,
                1.5f64.to_bits(),
                0x7FF0_0000_0000_0000,
                0x7FF8_0000_0000_0000,
                0x7FF8_0000_0000_0001,
                0x7FF0_0000_0000_0001,
                0x7FF7_FFFF_FFFF_FFFF,
            ] {
                classes.push(f64::from_bits(sign | bits));
            }
        }
        classes
    }

    /// A finite background of every finite class, so the scan's
    /// accumulator sees the largest finite exponent next to the planted
    /// value.
    fn finite_fill(n: usize) -> Vec<f64> {
        let finite: Vec<f64> = ieee_classes()
            .into_iter()
            .filter(|x| x.is_finite())
            .collect();
        (0..n).map(|i| finite[i % finite.len()]).collect()
    }

    /// A valid session with `n_audio` samples on each microphone and
    /// `n_imu` readings on each IMU stream, every value finite.
    fn with_lengths(n_audio: usize, n_imu: usize) -> SessionData {
        let vec3s = |n: usize| -> Vec<Vec3> {
            finite_fill(3 * n)
                .chunks_exact(3)
                .map(|c| Vec3::new(c[0], c[1], c[2]))
                .collect()
        };
        SessionData {
            audio: finite_fill(n_audio),
            audio2: Some(finite_fill(n_audio)),
            mag_readings: vec3s(n_imu),
            accel_readings: vec3s(n_imu),
            gyro_readings: vec3s(n_imu),
            sweep_start_s: 0.0,
            ..minimal()
        }
    }

    /// Plants `value` at every position of every stream of `base` in
    /// turn (each component of each IMU reading) and checks `validate`
    /// against the oracle; `stride` thins the positions of long
    /// buffers, whose first and last 40 are always covered.
    fn check_every_position(base: &SessionData, value: f64, stride: usize) {
        let covered = |i: usize, n: usize| i < 40 || i + 40 >= n || i.is_multiple_of(stride);
        let check = |s: &SessionData, what: &str| {
            assert_eq!(
                s.validate(),
                validate_oracle(s),
                "{what}: {value:e} ({:#018x})",
                value.to_bits()
            );
        };
        let mut s = base.clone();
        for i in (0..base.audio.len()).filter(|&i| covered(i, base.audio.len())) {
            s.audio[i] = value;
            check(&s, &format!("audio[{i}]"));
            s.audio[i] = base.audio[i];
            let a2 = s.audio2.as_mut().expect("dual-mic base");
            a2[i] = value;
            check(&s, &format!("audio2[{i}]"));
            s.audio2.as_mut().expect("dual-mic base")[i] = base.audio[i];
        }
        type Stream = fn(&mut SessionData) -> &mut Vec<Vec3>;
        let streams: [(&str, Stream); 3] = [
            ("mag", |s| &mut s.mag_readings),
            ("accel", |s| &mut s.accel_readings),
            ("gyro", |s| &mut s.gyro_readings),
        ];
        for (name, stream) in streams {
            let n = stream(&mut s).len();
            for i in (0..n).filter(|&i| covered(i, n)) {
                for axis in 0..3 {
                    let original = stream(&mut s)[i];
                    let mut c = [original.x, original.y, original.z];
                    c[axis] = value;
                    stream(&mut s)[i] = Vec3::new(c[0], c[1], c[2]);
                    check(&s, &format!("{name}[{i}].{axis}"));
                    stream(&mut s)[i] = original;
                }
            }
        }
    }

    #[test]
    fn finite_scan_matches_the_is_finite_oracle_at_every_position() {
        for value in ieee_classes() {
            for n in 0..=33 {
                check_every_position(&with_lengths(n, n), value, 1);
                // A single-mic session of the same lengths.
                let mut single = with_lengths(n, n);
                single.audio2 = None;
                for i in 0..n {
                    single.audio[i] = value;
                    assert_eq!(
                        single.validate(),
                        validate_oracle(&single),
                        "single n={n} i={i}"
                    );
                    single.audio[i] = 1.0;
                }
            }
            // A full 3 s capture at 48 kHz beside a 3 s IMU track.
            check_every_position(&with_lengths(144_000, 300), value, 2999);
        }
    }

    #[test]
    fn heading_observations_present_in_clean_field() {
        let s = minimal();
        let obs = s.mag_heading_observations();
        assert!(obs.iter().all(|o| o.is_some()));
        assert!(obs[0].unwrap().abs() < 1e-9);
    }

    #[test]
    fn sweep_index_conversion() {
        assert_eq!(minimal().sweep_start_index(), 5);
    }

    #[test]
    fn second_mic_length_checked() {
        let mut s = minimal();
        s.audio2 = Some(vec![0.0; 10]);
        assert_eq!(s.validate(), Err(SessionError::SecondMicMismatch));
        s.audio2 = Some(vec![0.0; s.audio.len()]);
        assert!(s.validate().is_ok());
    }
}

//! Heading estimation by complementary fusion of gyroscope and
//! magnetometer.
//!
//! §IV-B1: "As the magnetometer reading can result in some error in an
//! indoor environment, we jointly use the magnetometer, gyroscope, and
//! accelerometer to obtain the direction change Δω." For the paper's 2-D
//! approach plane the relevant state is a single heading angle: the gyro
//! integrates smoothly but drifts; the magnetometer gives an absolute but
//! noisy heading. A complementary filter blends them.

use magshield_simkit::interp::wrap_angle;
use magshield_simkit::vec3::Vec3;

/// Complementary-filter heading estimator for the 2-D approach plane.
///
/// Headings are angles in the scene X–Y plane, measured from +y (the
/// "toward the user" axis), positive counterclockwise.
#[derive(Debug, Clone)]
pub struct HeadingFilter {
    /// Weight of the magnetometer correction per sample (0..1).
    pub mag_weight: f64,
    heading: f64,
    initialized: bool,
}

impl HeadingFilter {
    /// Creates a filter; `mag_weight` ≈ 0.02 at 100 Hz gives a ~0.5 s
    /// correction time constant.
    ///
    /// # Panics
    ///
    /// Panics if `mag_weight` is outside `[0, 1]`.
    pub fn new(mag_weight: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&mag_weight),
            "mag_weight must be in [0,1]"
        );
        Self {
            mag_weight,
            heading: 0.0,
            initialized: false,
        }
    }

    /// Heading implied by a *body-frame* magnetometer reading, given the
    /// known local field direction in the world frame (horizontal
    /// components). A device at heading θ sees the world field rotated by
    /// −θ into its axes, so the heading is the angle **from the reading to
    /// the reference**.
    ///
    /// Returns `None` when the horizontal field is too weak to define a
    /// heading (e.g. sensor saturated by a nearby magnet).
    pub fn mag_heading(reading_body_ut: Vec3, reference_world_ut: Vec3) -> Option<f64> {
        let r = Vec3::new(reading_body_ut.x, reading_body_ut.y, 0.0);
        let f = Vec3::new(reference_world_ut.x, reference_world_ut.y, 0.0);
        if r.norm() < 2.0 || f.norm() < 2.0 {
            return None;
        }
        // Angle from reading to reference around +z.
        let cross = r.cross(f).z;
        let dot = r.dot(f);
        Some(cross.atan2(dot))
    }

    /// Advances the filter by one sample: integrates the gyro z-rate and
    /// applies a fractional correction toward the magnetometer heading when
    /// one is available.
    pub fn update(&mut self, gyro_z: f64, dt: f64, mag: Option<f64>) -> f64 {
        if !self.initialized {
            self.heading = mag.unwrap_or(0.0);
            self.initialized = true;
            return self.heading;
        }
        self.heading = wrap_angle(self.heading + gyro_z * dt);
        if let Some(m) = mag {
            let err = wrap_angle(m - self.heading);
            self.heading = wrap_angle(self.heading + self.mag_weight * err);
        }
        self.heading
    }

    /// Current heading estimate (radians).
    pub fn heading(&self) -> f64 {
        self.heading
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gyro_only_tracks_rotation() {
        let mut f = HeadingFilter::new(0.0);
        f.update(0.0, 0.01, Some(0.0)); // initialize at 0
        for _ in 0..100 {
            f.update(0.5, 0.01, None);
        }
        assert!((f.heading() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mag_corrects_gyro_drift() {
        let mut f = HeadingFilter::new(0.05);
        f.update(0.0, 0.01, Some(0.0));
        // Biased gyro (0.1 rad/s) on a stationary phone; magnetometer says 0.
        for _ in 0..2000 {
            f.update(0.1, 0.01, Some(0.0));
        }
        // Steady state error = rate*dt/weight = 0.02 rad, not 2 rad.
        assert!(f.heading().abs() < 0.05, "residual {}", f.heading());
    }

    #[test]
    fn mag_heading_recovers_rotation() {
        let reference = Vec3::new(0.0, 28.0, -39.0);
        // Phone rotated +30°: in its body axes the world field appears
        // rotated by −30°.
        let reading = reference.rotated_z(-30f64.to_radians());
        let h = HeadingFilter::mag_heading(reading, reference).unwrap();
        assert!((h - 30f64.to_radians()).abs() < 1e-9);
    }

    #[test]
    fn saturated_field_yields_none() {
        let reference = Vec3::new(0.0, 28.0, -39.0);
        assert!(HeadingFilter::mag_heading(Vec3::new(0.5, 0.5, 900.0), reference).is_none());
    }

    #[test]
    fn initialization_uses_first_mag() {
        let mut f = HeadingFilter::new(0.02);
        let h = f.update(99.0, 0.01, Some(1.0));
        assert_eq!(h, 1.0, "first update should snap to the mag heading");
    }

    #[test]
    #[should_panic(expected = "mag_weight")]
    fn rejects_bad_weight() {
        HeadingFilter::new(1.5);
    }
}

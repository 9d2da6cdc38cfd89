//! Earth's geomagnetic field.
//!
//! Indoors the Earth field is a quasi-static ~25–65 µT vector; it is the
//! baseline every magnetometer reading rides on, and the reason the
//! loudspeaker detector works on *deviation and changing rate* rather than
//! absolute magnitude alone.

use magshield_simkit::vec3::Vec3;

/// A locally uniform geomagnetic field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarthField {
    /// Field vector in µT, in the scene frame (x east, y north, z up).
    pub field_ut: Vec3,
}

impl EarthField {
    /// Mid-latitude default: ~48 µT total, 60° inclination (downward),
    /// pointing magnetic north.
    pub fn typical() -> Self {
        let total = 48.0;
        let incl = 60f64.to_radians();
        Self {
            field_ut: Vec3::new(0.0, total * incl.cos(), -total * incl.sin()),
        }
    }

    /// The (position-independent) field vector in µT.
    pub fn field_at(&self) -> Vec3 {
        self.field_ut
    }
}

impl Default for EarthField {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_magnitude_in_band() {
        let e = EarthField::typical();
        let b = e.field_at().norm();
        assert!((25.0..=65.0).contains(&b), "Earth field {b} µT out of band");
    }

    #[test]
    fn typical_points_down_in_northern_hemisphere() {
        assert!(EarthField::typical().field_at().z < 0.0);
    }
}

//! Sound levels in decibels, the one physical quantity the simulation
//! carries as a newtype (C-NEWTYPE), and the decibel conversions.

use std::fmt;

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Raw numeric value.
            pub fn value(self) -> f64 {
                self.0
            }
            /// Absolute value.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3} {}", self.0, $unit)
            }
        }

        impl std::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }
        impl std::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }
        impl std::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }
    };
}

quantity!(
    /// Sound pressure level in decibels (dB SPL, re 20 µPa).
    DbSpl,
    "dB SPL"
);

/// Converts a linear amplitude ratio to decibels (20·log10).
pub fn ratio_to_db(ratio: f64) -> f64 {
    if ratio <= 0.0 {
        return -120.0;
    }
    20.0 * ratio.log10()
}

/// Converts decibels to a linear amplitude ratio.
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_ratio_round_trip() {
        for &r in &[0.01, 0.5, 1.0, 3.0, 100.0] {
            let back = db_to_ratio(ratio_to_db(r));
            assert!((back - r).abs() / r < 1e-10);
        }
    }

    #[test]
    fn db_doubling_is_6db() {
        assert!((ratio_to_db(2.0) - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn quantity_arithmetic_and_display() {
        let a = DbSpl(30.0) + DbSpl(12.0);
        assert_eq!(a.value(), 42.0);
        assert_eq!((a - DbSpl(2.0)).value(), 40.0);
        assert_eq!((a * 2.0).value(), 84.0);
        assert_eq!(format!("{}", DbSpl(6.0)), "6.000 dB SPL");
    }
}

#![warn(missing_docs)]

//! # magshield-simkit
//!
//! Deterministic simulation kernel underlying every magshield substrate.
//!
//! The ICDCS 2017 paper this workspace reproduces ("You Can Hear But You
//! Cannot Steal") evaluates its defense on physical hardware: smartphones,
//! loudspeakers, human speakers. This workspace replaces the hardware with
//! calibrated simulation, and *everything* in that simulation must be
//! reproducible from a single seed so experiments are regenerable.
//!
//! This crate provides:
//!
//! * [`rng`] — a seeded RNG with deterministic, label-based fan-out so
//!   independent subsystems draw independent but reproducible streams;
//! * [`vec3`] — minimal 3-D vector math shared by magnetics, acoustics and
//!   the trajectory stack;
//! * [`units`] — the dB SPL newtype and decibel conversions;
//! * [`series`] — uniformly sampled time series with statistics and
//!   resampling;
//! * [`noise`] — white / pink / random-walk / mains-hum noise processes used
//!   by the sensor and interference models;
//! * [`clock`] — sample clocks for converting between durations and sample
//!   counts;
//! * [`prop`] — the seeded property-test runner every crate's property
//!   tests run on;
//! * [`par`] — an order-preserving parallel map for independent per-item
//!   work such as training's corpus synthesis and session captures.
//!
//! # Example
//!
//! ```
//! use magshield_simkit::rng::SimRng;
//! use magshield_simkit::series::TimeSeries;
//!
//! let mut rng = SimRng::from_seed(42).fork("microphone");
//! let samples: Vec<f64> = (0..100).map(|_| rng.gauss(0.0, 1.0)).collect();
//! let ts = TimeSeries::from_samples(8000.0, samples);
//! assert_eq!(ts.len(), 100);
//! assert!(ts.rms() > 0.0);
//! ```

pub mod clock;
pub mod interp;
pub mod noise;
pub mod par;
pub mod prop;
pub mod rng;
pub mod series;
pub mod units;
pub mod vec3;

pub use clock::SampleClock;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use vec3::Vec3;

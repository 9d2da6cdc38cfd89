#![warn(missing_docs)]

//! # magshield
//!
//! A software-only defense against voice impersonation attacks on
//! smartphones — a from-scratch Rust reproduction of the ICDCS 2017 paper
//! *"You Can Hear But You Cannot Steal: Defending against Voice
//! Impersonation Attacks on Smartphones"* (Chen, Ren, Piao, Wang, Wang,
//! Weng, Su, Mohaisen).
//!
//! The facade re-exports the workspace crates:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the four-component defense cascade, scenarios, client/server |
//! | [`asv`] | GMM–UBM / ISV speaker verification |
//! | [`voice`] | formant speech synthesis, attack models, device catalog |
//! | [`trajectory`] | phase ranging + IMU trajectory reconstruction |
//! | [`sensors`] | smartphone sensor models (AK8975 magnetometer, IMU, mic) |
//! | [`physics`] | magnetics (dipoles, shielding, EMF) and acoustics |
//! | [`ml`] | GMM/EM, SVM, PCA, circle fit, FAR/FRR/EER metrics |
//! | [`dsp`] | FFT, Goertzel, MFCC, filters, VAD |
//! | [`obs`] | metrics registry, SLO health, per-session trace lines |
//! | [`simkit`] | deterministic RNG, units, time series, noise |
//!
//! # Quickstart
//!
//! ```no_run
//! use magshield::core::scenario::{self, ScenarioBuilder};
//! use magshield::simkit::rng::SimRng;
//!
//! let rng = SimRng::from_seed(7);
//! let (system, user) = scenario::bootstrap_system(&rng);
//! let session = ScenarioBuilder::genuine(&user).capture(&rng.fork("demo"));
//! assert!(system.verify(&session).accepted());
//! ```

pub use magshield_asv as asv;
pub use magshield_core as core;
pub use magshield_dsp as dsp;
pub use magshield_ml as ml;
pub use magshield_obs as obs;
pub use magshield_physics as physics;
pub use magshield_sensors as sensors;
pub use magshield_simkit as simkit;
pub use magshield_trajectory as trajectory;
pub use magshield_voice as voice;

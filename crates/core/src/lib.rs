#![warn(missing_docs)]

//! # magshield-core
//!
//! The paper's contribution: a software-only defense against voice
//! impersonation attacks on smartphones (ICDCS 2017, "You Can Hear But You
//! Cannot Steal"). Five verification stages run as a cascade (Fig. 4 plus
//! the §VII dual-mic extension), cheapest first:
//!
//! 1. **loudspeaker detection** ([`components::loudspeaker`]) —
//!    magnetometer magnitude-deviation and changing-rate thresholds
//!    (`Mt`, `βt`) expose the magnet+coil signature;
//! 2. **sound source distance verification** ([`components::distance`]) —
//!    trajectory reconstruction + circle fit bounds the phone–source
//!    distance by `Dt` (6 cm);
//! 3. **dual-mic SLD range check** ([`components::sld`]) — the §VII
//!    sound-level-difference cue, on dual-microphone phones only;
//! 4. **sound field verification** ([`components::sound_field`]) — an SVM
//!    over (volume, rotation-angle) features rejects sources whose
//!    aperture/geometry differs from a human mouth;
//! 5. **speaker identity verification** ([`components::speaker_id`]) —
//!    GMM–UBM ASV rejects human imitators.
//!
//! The cascade is a first-class subsystem ([`cascade`]): each stage
//! implements the [`cascade::CascadeStage`] trait, and one
//! [`cascade::Cascade`] type, pinned to a registry generation, runs them
//! for one-shot verifications and streams alike, under a stage mask
//! (real ablation) and an execution policy — full evaluation for FAR/FRR
//! sweeps, or short-circuiting so the expensive ASV back end never runs
//! on sessions the magnetometer already condemned.
//!
//! Training and serving are split: a [`trainer::Trainer`] produces an
//! immutable, versioned [`artifact::ModelBundle`] (serialized through the
//! checksummed binary codec of `magshield-ml`), and a
//! [`pipeline::DefenseSystem`] is constructed *from* a bundle. At
//! serving time the models live in a [`registry::ModelRegistry`] — a
//! concurrent, generation-numbered store supporting online multi-tenant
//! enrollment and atomic whole-bundle hot-swap while in-flight
//! verifications finish on the snapshot they pinned. [`store`] layers
//! crash-safe durability under the registry: a write-ahead log of
//! enrollments (as delta speaker records) and bundle swaps, replayed bit
//! exactly on [`pipeline::DefenseSystem::open_durable`], with periodic
//! compaction into a golden base.
//!
//! [`scenario`] simulates complete verification sessions (genuine and
//! attacks) on the physics/sensor substrates; [`server`] provides the
//! client–server deployment of §V with a binary wire protocol (including
//! online `Enroll` and `SwapBundle` operations); [`adaptive`] implements
//! the §VII adaptive-thresholding extension.
//!
//! The pipeline and server are instrumented against `magshield-obs`:
//! [`pipeline::DefenseSystem::verify_traced`] returns a per-session
//! trace line of each component's decision and duration, each stage event
//! lands once in a labeled family (`pipeline.stage.seconds{stage,policy}`,
//! `pipeline.stage.skipped{stage,policy}`,
//! `pipeline.session.seconds{policy}`), and the server serves those and
//! its queue/compute latency histograms over the wire
//! (`server::protocol::Message::MetricsRequest`). See DESIGN.md §7 for
//! the metric naming scheme.
//!
//! # Quickstart
//!
//! ```no_run
//! use magshield_core::pipeline::DefenseSystem;
//! use magshield_core::scenario::{self, ScenarioBuilder};
//! use magshield_simkit::rng::SimRng;
//!
//! let rng = SimRng::from_seed(7);
//! let (system, user) = scenario::bootstrap_system(&rng);
//! let session = ScenarioBuilder::genuine(&user).capture(&rng.fork("session"));
//! let verdict = system.verify(&session);
//! assert!(verdict.accepted());
//! ```

pub mod adaptive;
pub mod analysis;
pub mod artifact;
pub mod cascade;
pub mod components;
pub mod config;
pub mod pipeline;
pub mod registry;
pub mod robustness;
pub mod scenario;
pub mod server;
pub mod session;
pub mod store;
pub mod stream;
pub mod trainer;
pub mod verdict;

pub use artifact::ModelBundle;
pub use config::{ConfigError, DefenseConfig};
pub use pipeline::DefenseSystem;
pub use registry::ModelRegistry;
pub use session::SessionData;
pub use stream::{SessionChunk, StreamConfig, StreamEvent, StreamingVerification};
pub use trainer::Trainer;
pub use verdict::{Decision, DefenseVerdict};

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures: bootstrapping a system is the most expensive step
    //! in the test suite, so unit tests share one tiny instance.
    use crate::pipeline::{BootstrapConfig, DefenseSystem};
    use crate::scenario::{bootstrap_with, UserContext};
    use magshield_simkit::rng::SimRng;
    use std::sync::OnceLock;

    static SHARED: OnceLock<(DefenseSystem, UserContext)> = OnceLock::new();

    /// A lazily built, shared tiny system + user.
    pub fn shared_tiny_system() -> &'static (DefenseSystem, UserContext) {
        SHARED.get_or_init(|| bootstrap_with(&SimRng::from_seed(42), BootstrapConfig::tiny()))
    }
}

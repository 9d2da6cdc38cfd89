//! The assembled defense system (Fig. 4): serving the five-stage cascade
//! from a versioned model registry.
//!
//! Training lives in [`crate::trainer`]: a
//! [`Trainer`] produces an immutable [`ModelBundle`], and a
//! [`DefenseSystem`] is *constructed from* a bundle
//! ([`DefenseSystem::from_bundle`]). The models are held in a
//! [`ModelRegistry`]:
//! online enrollment ([`DefenseSystem::try_enroll_speaker`]) and whole-bundle
//! hot-swap ([`DefenseSystem::try_swap_bundle`]) publish new generations
//! without restarting the server, while in-flight verifications finish on
//! the snapshot they pinned.
//!
//! The cascade itself lives in [`crate::cascade`]. [`DefenseSystem::cascade`]
//! pins the current registry generation into a [`Cascade`], which runs
//! the five stages over that snapshot and stamps every verdict with the
//! generation that produced it; [`DefenseSystem::open_stream`] hands a
//! stream the same pinned type. Every verification records its verdict
//! and, against `magshield-obs`, one
//! `pipeline.stage.seconds{stage,policy}` sample per stage that runs,
//! one `pipeline.stage.skipped{stage,policy}` count per short-circuited
//! stage and one `pipeline.session.seconds{policy}` sample per session.
//! [`DefenseSystem::verify_traced`] alone also builds the session's
//! [`PipelineTrace`] line: each stage's decision, score, threshold
//! margin and duration (see DESIGN.md §7).

use crate::artifact::ModelBundle;
use crate::cascade::{trace_id, Cascade, ExecutionPolicy, StageTimings};
use crate::config::{ConfigError, DefenseConfig};
use crate::registry::{ModelRegistry, ModelSnapshot};
use crate::scenario::UserContext;
use crate::session::SessionData;
use crate::store::{DurableStore, RecoveredState, StoreError, StoreMetrics};
use crate::trainer::Trainer;
use crate::verdict::{DefenseVerdict, StageOutcome};
use magshield_obs::metrics::{CounterVec, HistogramVec, Registry};
use magshield_obs::trace::{ComponentTrace, PipelineTrace};
use magshield_simkit::rng::SimRng;
use std::path::Path;
use std::sync::Arc;

pub use crate::trainer::BootstrapConfig;

/// Observability handles shared by every verification this system runs.
///
/// Cloning is shallow (`Arc`-backed): clones of a [`DefenseSystem`] —
/// e.g. the copies held by server workers — feed the same registry, so
/// one snapshot sees the whole fleet. These metrics are the only
/// telemetry a verification writes; its other record is the verdict.
#[derive(Debug, Clone)]
pub struct PipelineObs {
    /// Named metrics: the labeled families below plus the
    /// `pipeline.accepts` / `pipeline.rejects` / `pipeline.invalid`
    /// counters and the `registry.*` serving-state gauges.
    pub registry: Registry,
    /// Labeled per-stage latency: `pipeline.stage.seconds{stage,policy}`
    /// with the session's trace id as the slow-sample exemplar. The
    /// family handle lives here so its interning cache persists across
    /// verifications — the hot path never re-parses label sets.
    pub stage_seconds: HistogramVec,
    /// Labeled short-circuit skips: `pipeline.stage.skipped{stage,policy}`.
    pub stage_skipped: CounterVec,
    /// Labeled end-to-end latency: `pipeline.session.seconds{policy}`,
    /// exemplared like [`PipelineObs::stage_seconds`].
    pub verify_seconds: HistogramVec,
}

impl Default for PipelineObs {
    fn default() -> Self {
        let registry = Registry::default();
        Self {
            stage_seconds: registry.histogram_vec("pipeline.stage.seconds"),
            stage_skipped: registry.counter_vec("pipeline.stage.skipped"),
            verify_seconds: registry.histogram_vec("pipeline.session.seconds"),
            registry,
        }
    }
}

/// The serving half of the defense: a model registry plus thresholds.
///
/// Cloning is shallow: clones share the [`ModelRegistry`] (and the
/// observability handles), so an enrollment or bundle swap through any
/// clone is immediately visible to all of them — this is what lets a
/// multi-worker server pick up new tenants without a restart. To get an
/// *isolated* system (e.g. in tests that mutate the registry), export the
/// snapshot with [`DefenseSystem::models`] +
/// [`ModelBundle::from_snapshot`] and rebuild via
/// [`DefenseSystem::from_bundle`].
#[derive(Debug, Clone)]
pub struct DefenseSystem {
    /// Nominal cascade thresholds, copied from the bundle this system was
    /// constructed from. [`DefenseSystem::verify`] uses these; explicit
    /// configs (adaptive thresholding, FAR/FRR sweeps) go through
    /// [`DefenseSystem::verify_with_config`]. A later
    /// [`DefenseSystem::try_swap_bundle`] updates the registry snapshot's
    /// config for *new* systems built from it, but deliberately does not
    /// reach into existing clones' nominal thresholds.
    pub config: DefenseConfig,
    registry: Arc<ModelRegistry>,
    obs: PipelineObs,
    /// The durable store journaling this system's mutations, when one is
    /// attached ([`DefenseSystem::create_durable`] /
    /// [`DefenseSystem::open_durable`]). Shared by clones, like the
    /// registry, so any worker's enrollment hits the same WAL.
    durable: Option<Arc<DurableStore>>,
}

impl DefenseSystem {
    /// Trains a complete system for `user` and serves it immediately —
    /// [`Trainer::train`] followed by [`DefenseSystem::from_bundle`].
    pub fn bootstrap(user: &UserContext, cfg: BootstrapConfig, rng: &SimRng) -> Self {
        Self::from_bundle(Trainer::new(cfg).train(user, rng))
            .expect("freshly trained bundles are valid")
    }

    /// Constructs a serving system from a validated model bundle.
    ///
    /// This is the only way models enter a [`DefenseSystem`] at build
    /// time: the bundle is checked with
    /// [`ModelBundle::validate`] and becomes generation
    /// [`ModelRegistry::FIRST_GENERATION`] of a fresh registry.
    pub fn from_bundle(bundle: ModelBundle) -> Result<Self, ConfigError> {
        bundle.validate()?;
        let config = bundle.config;
        let system = Self {
            config,
            registry: Arc::new(ModelRegistry::new(bundle.into_snapshot())),
            obs: PipelineObs::default(),
            durable: None,
        };
        system.publish_registry_gauges();
        Ok(system)
    }

    /// Creates a fresh durable store at `dir` from `bundle` and serves it:
    /// [`DefenseSystem::from_bundle`] plus a write-ahead log, so every
    /// subsequent [`DefenseSystem::try_enroll_speaker`] /
    /// [`DefenseSystem::try_swap_bundle`] is journaled and survives a
    /// crash. Refuses a directory that already holds a store (recover it
    /// with [`DefenseSystem::open_durable`] instead).
    pub fn create_durable(bundle: ModelBundle, dir: &Path) -> Result<Self, StoreError> {
        let obs = PipelineObs::default();
        let store = DurableStore::create(dir, &bundle, StoreMetrics::from_registry(&obs.registry))?;
        let config = bundle.config;
        let system = Self {
            config,
            registry: Arc::new(ModelRegistry::new(bundle.into_snapshot())),
            obs,
            durable: Some(Arc::new(store)),
        };
        system.publish_registry_gauges();
        Ok(system)
    }

    /// Recovers a durable store from `dir` and serves the recovered
    /// state: decodes the golden base, replays the write-ahead log (bit
    /// exactly, truncating a torn tail), and starts the registry at the
    /// exact pre-crash generation. Returns the system together with the
    /// [`RecoveredState`] describing what replay did.
    pub fn open_durable(dir: &Path) -> Result<(Self, RecoveredState), StoreError> {
        let obs = PipelineObs::default();
        let (store, recovered) =
            DurableStore::open(dir, StoreMetrics::from_registry(&obs.registry))?;
        let system = Self {
            config: recovered.snapshot.config,
            registry: Arc::new(ModelRegistry::new_at(
                recovered.snapshot.clone(),
                recovered.generation,
            )),
            obs,
            durable: Some(Arc::new(store)),
        };
        system.publish_registry_gauges();
        Ok((system, recovered))
    }

    /// Enrolls an additional speaker from raw utterances and publishes a
    /// new registry generation (returned). Visible to every clone of this
    /// system — server workers see the new tenant on their next pin.
    ///
    /// When a store is attached, the new model is journaled to the
    /// write-ahead log (as a kilobyte delta record off the UBM the
    /// registry serves at journal time) and fsynced *before* the registry
    /// publishes it, so the returned generation survives a crash; a
    /// journaling failure is returned and nothing is published. Without a
    /// store this just enrolls into the in-memory registry.
    ///
    /// Utterances that yield no feature frames are refused with
    /// [`StoreError::Enroll`]; nothing is journaled or published.
    pub fn try_enroll_speaker(
        &self,
        speaker_id: u32,
        utterances: &[&[f64]],
    ) -> Result<u64, StoreError> {
        let snapshot = self.registry.snapshot();
        let model = snapshot.engine.try_enroll(speaker_id, utterances)?;
        let generation = match &self.durable {
            Some(store) => store.journal_enroll(&self.registry, model)?,
            None => self.registry.enroll(model),
        };
        self.publish_registry_gauges();
        Ok(generation)
    }

    /// Atomically replaces every served model with `bundle`'s, returning
    /// the new generation. In-flight verifications finish on the
    /// generation they pinned; no verification
    /// ever mixes models from two generations.
    ///
    /// An invalid bundle is refused with [`StoreError::Config`]. When a
    /// store is attached, the full bundle is journaled and fsynced before
    /// the registry swaps to it. Without one this validates and swaps in
    /// memory only.
    pub fn try_swap_bundle(&self, bundle: ModelBundle) -> Result<u64, StoreError> {
        let generation = match &self.durable {
            Some(store) => store.journal_swap(&self.registry, bundle)?,
            None => {
                bundle.validate()?;
                self.registry.swap(bundle.into_snapshot())
            }
        };
        self.obs.registry.counter("registry.swap").inc();
        // Labeled twin: which generation each swap published.
        self.obs
            .registry
            .counter_with(
                "registry.swaps",
                &magshield_obs::labels::Labels::new().generation(generation),
            )
            .inc();
        self.publish_registry_gauges();
        Ok(generation)
    }

    /// Folds the write-ahead log into a fresh golden base at the current
    /// generation and truncates the log (see [`DurableStore::compact`]).
    /// Returns the compacted generation. Errors with
    /// [`StoreError::Io`](crate::store::StoreError) of kind `Unsupported`
    /// when no store is attached.
    pub fn compact_store(&self) -> Result<u64, StoreError> {
        match &self.durable {
            Some(store) => store.compact(&self.registry),
            None => Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "no durable store attached to this system",
            ))),
        }
    }

    /// The attached durable store, if any — admin surfaces (the
    /// `store_admin` example) reach the store directory through this.
    pub fn store(&self) -> Option<&DurableStore> {
        self.durable.as_deref()
    }

    /// Whether a speaker id has an enrolled model in the current
    /// generation.
    pub fn is_enrolled(&self, speaker_id: u32) -> bool {
        self.registry.is_enrolled(speaker_id)
    }

    /// The registry generation currently being served.
    pub fn generation(&self) -> u64 {
        self.registry.generation()
    }

    /// Pins and returns the currently served model snapshot (engine,
    /// speakers, sound-field model and the config they shipped with).
    /// Experiment harnesses comparing backends read the engine from here.
    pub fn models(&self) -> Arc<ModelSnapshot> {
        self.registry.snapshot()
    }

    /// The metrics registry this system records into
    /// (`pipeline.stage.seconds{stage,policy}` histograms, accept/reject
    /// counters, `registry.{generation,speakers,swap}` serving state).
    pub fn metrics(&self) -> &Registry {
        &self.obs.registry
    }

    /// A clone of this system recording into a brand-new metrics
    /// registry. The trained models stay shared; only the
    /// observability state is reset — useful for isolating measurement
    /// phases (or tests) that would otherwise pollute each other's
    /// counters through the shallow-shared [`PipelineObs`].
    #[must_use]
    pub fn with_fresh_obs(&self) -> Self {
        let fresh = Self {
            obs: PipelineObs::default(),
            ..self.clone()
        };
        fresh.publish_registry_gauges();
        fresh
    }

    /// The observability handles every verification records into.
    pub fn obs(&self) -> &PipelineObs {
        &self.obs
    }

    /// Mirrors the registry's serving state into the metrics registry.
    fn publish_registry_gauges(&self) {
        self.obs
            .registry
            .gauge("registry.generation")
            .set(self.registry.generation() as i64);
        self.obs
            .registry
            .gauge("registry.speakers")
            .set(self.registry.speaker_count() as i64);
    }

    /// Pins the current registry generation into a [`Cascade`]: the five
    /// stages over that snapshot, cheapest-first, with all stages enabled
    /// and [`ExecutionPolicy::FullEvaluation`]. Customize with
    /// [`Cascade::with_mask`] / [`Cascade::with_policy`] and run via
    /// [`Cascade::run`].
    ///
    /// Everything run through one cascade is scored against that single
    /// pinned snapshot, even if an enrollment
    /// or bundle swap lands mid-flight.
    pub fn cascade(&self) -> Cascade {
        let (generation, snapshot) = self.registry.load();
        Cascade::pinned(snapshot, generation)
    }

    /// Opens a streaming verification pinned to the currently served
    /// registry generation (see [`crate::stream`] for the chunked
    /// protocol and its decision-identity contract). Feed it with
    /// [`StreamingVerification::ingest`](crate::stream::StreamingVerification::ingest)
    /// and close with
    /// [`StreamingVerification::finalize`](crate::stream::StreamingVerification::finalize),
    /// passing this system's config and [`DefenseSystem::obs`].
    pub fn open_stream(
        &self,
        info: &crate::stream::StreamOpenInfo,
        stream: crate::stream::StreamConfig,
    ) -> crate::stream::StreamingVerification {
        self.obs.registry.counter("pipeline.stream.opened").inc();
        crate::stream::StreamingVerification::open(self.cascade(), info, stream)
    }

    /// Runs the full cascade at the nominal thresholds.
    pub fn verify(&self, session: &SessionData) -> DefenseVerdict {
        self.verify_with_config(session, &self.config)
    }

    /// Runs the cascade under explicit thresholds (adaptive thresholding
    /// and FAR/FRR sweeps use this).
    pub fn verify_with_config(
        &self,
        session: &SessionData,
        config: &DefenseConfig,
    ) -> DefenseVerdict {
        self.cascade().run(session, config, &self.obs).0
    }

    /// Runs the cascade at the nominal thresholds under the given
    /// execution policy. Servers front-loading cheap liveness checks use
    /// [`ExecutionPolicy::ShortCircuit`] here to spare the ASV back end
    /// sessions the magnetometer already condemned.
    pub fn verify_with_policy(
        &self,
        session: &SessionData,
        policy: ExecutionPolicy,
    ) -> DefenseVerdict {
        self.cascade()
            .with_policy(policy)
            .run(session, &self.config, &self.obs)
            .0
    }

    /// Runs the full cascade at the nominal thresholds, returning the
    /// verdict together with its [`PipelineTrace`] line: each stage's
    /// decision, attack score, threshold margin and duration. Records the
    /// same metrics as [`DefenseSystem::verify`]; the trace line is built
    /// here, from the verdict and the run's [`StageTimings`], and nowhere
    /// else.
    pub fn verify_traced(&self, session: &SessionData) -> (DefenseVerdict, PipelineTrace) {
        let (verdict, timings) = self.cascade().run(session, &self.config, &self.obs);
        let trace = trace_line(session, &verdict, &timings);
        (verdict, trace)
    }
}

/// The trace line of one cascade run: one [`ComponentTrace`] per stage
/// outcome of `verdict`, in cascade order, timed by `timings`.
fn trace_line(
    session: &SessionData,
    verdict: &DefenseVerdict,
    timings: &StageTimings,
) -> PipelineTrace {
    let components = verdict
        .stages
        .iter()
        .map(|outcome| match outcome {
            StageOutcome::Ran(r) => ComponentTrace {
                component: r.component.name().to_string(),
                passed: r.passes_at(1.0),
                attack_score: r.attack_score,
                threshold_margin: 1.0 - r.attack_score,
                duration_s: timings.stage_s[r.component.index()],
                detail: r.detail.clone(),
                skipped: false,
            },
            StageOutcome::Skipped(k) => ComponentTrace {
                component: k.component.name().to_string(),
                passed: false,
                attack_score: 0.0,
                threshold_margin: 0.0,
                duration_s: 0.0,
                detail: format!("short-circuited by {}", k.cause.name()),
                skipped: true,
            },
        })
        .collect();
    PipelineTrace {
        session: trace_id(session),
        accepted: verdict.accepted(),
        total_s: timings.total_s,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{BundleMeta, ModelBundle};
    use crate::registry::ModelRegistry;
    use crate::scenario::ScenarioBuilder;
    use crate::verdict::Component;
    use magshield_ml::codec::BinaryCodec;
    use magshield_voice::attacks::AttackKind;
    use magshield_voice::devices::table_iv_catalog;
    use magshield_voice::profile::SpeakerProfile;
    use magshield_voice::synth::{FormantSynthesizer, SessionEffects};

    fn system() -> &'static (DefenseSystem, UserContext) {
        crate::test_support::shared_tiny_system()
    }

    /// An isolated system serving the same models as the shared fixture
    /// (fresh registry, so enroll/swap tests cannot race other tests).
    fn isolated_system() -> DefenseSystem {
        let bundle = ModelBundle::from_snapshot(
            BundleMeta {
                producer: "pipeline-tests".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: false,
                notes: String::new(),
            },
            &system().0.models(),
        );
        DefenseSystem::from_bundle(bundle).unwrap()
    }

    #[test]
    fn genuine_session_accepted() {
        let (sys, user) = system();
        let s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(100));
        let v = sys.verify(&s);
        assert!(
            v.accepted(),
            "genuine session rejected: {:#?}",
            v.results()
                .map(|r| format!("{:?}: {:.2} ({})", r.component, r.attack_score, r.detail))
                .collect::<Vec<_>>()
        );
        assert!(v.generation.is_some(), "verdicts carry their generation");
    }

    #[test]
    fn replay_attack_rejected_by_loudspeaker_detector() {
        let (sys, user) = system();
        let attacker = SpeakerProfile::sample(7, &SimRng::from_seed(1));
        let dev = table_iv_catalog()[0].clone();
        let s = ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev, attacker)
            .at_distance(0.05)
            .capture(&SimRng::from_seed(101));
        let v = sys.verify(&s);
        assert!(!v.accepted());
        let ld = v.result_of(Component::Loudspeaker).unwrap();
        assert!(
            ld.attack_score > 1.0,
            "loudspeaker score {}",
            ld.attack_score
        );
    }

    #[test]
    fn unknown_speaker_rejected() {
        let (sys, user) = system();
        let mut s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(102));
        s.claimed_speaker = 4242;
        assert!(!sys.verify(&s).accepted());
    }

    #[test]
    fn malformed_session_rejected() {
        let (sys, user) = system();
        let mut s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(103));
        s.audio.clear();
        let v = sys.verify(&s);
        assert!(!v.accepted());
    }

    #[test]
    fn extra_enrollment_works_and_bumps_the_generation() {
        let sys = isolated_system();
        assert_eq!(sys.generation(), ModelRegistry::FIRST_GENERATION);
        let other = SpeakerProfile::sample(5, &SimRng::from_seed(9));
        let synth = FormantSynthesizer::default();
        let utt = synth.render_digits(
            &other,
            "123456",
            SessionEffects::neutral(),
            &SimRng::from_seed(10),
        );
        let generation = sys.try_enroll_speaker(5, &[&utt]).unwrap();
        assert_eq!(generation, ModelRegistry::FIRST_GENERATION + 1);
        assert!(sys.is_enrolled(5));
        assert!(!sys.is_enrolled(77));
        // Clones share the registry: the tenant is visible through them.
        assert!(sys.clone().is_enrolled(5));
        // Serving-state gauges track the registry.
        let snap = sys.metrics().snapshot();
        assert_eq!(snap.gauges["registry.generation"], generation as i64);
        assert_eq!(
            snap.gauges["registry.speakers"],
            sys.models().speakers.len() as i64
        );
    }

    #[test]
    fn bundle_round_trip_preserves_verdicts_bit_for_bit() {
        let (sys, user) = system();
        let bundle = ModelBundle::from_snapshot(
            BundleMeta {
                producer: "round-trip".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: false,
                notes: String::new(),
            },
            &sys.models(),
        );
        let reloaded =
            DefenseSystem::from_bundle(ModelBundle::from_bytes(&bundle.to_bytes()).unwrap())
                .unwrap();
        for seed in [100, 101, 102] {
            let s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(seed));
            let a = sys.verify(&s);
            let b = reloaded.verify(&s);
            assert_eq!(a.decision, b.decision, "seed {seed}");
            assert_eq!(a.stages, b.stages, "seed {seed}: stage-for-stage identical");
        }
    }

    #[test]
    fn swap_bundle_changes_the_served_generation() {
        let sys = isolated_system();
        let worker = sys.clone();
        let mut bundle = ModelBundle::from_snapshot(
            BundleMeta {
                producer: "swap-test".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: false,
                notes: "second generation".to_string(),
            },
            &sys.models(),
        );
        // An invalid bundle is refused without touching the registry.
        bundle.config.sound_field_bins = 1;
        assert!(sys.try_swap_bundle(bundle.clone()).is_err());
        assert_eq!(sys.generation(), ModelRegistry::FIRST_GENERATION);
        bundle.config.sound_field_bins = sys.config.sound_field_bins;
        let generation = sys.try_swap_bundle(bundle).unwrap();
        assert_eq!(generation, ModelRegistry::FIRST_GENERATION + 1);
        // Visible through the worker clone, counted in metrics.
        assert_eq!(worker.generation(), generation);
        assert_eq!(sys.metrics().counter("registry.swap").get(), 1);
    }

    /// A NaN `Mt` or `Dt` fails `NaN <= 0.0`; validation must still
    /// refuse it in process, where no codec runs.
    #[test]
    fn non_finite_thresholds_are_refused_in_process() {
        let sys = isolated_system();
        let bundle = ModelBundle::from_snapshot(
            BundleMeta {
                producer: "nan-test".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: false,
                notes: String::new(),
            },
            &sys.models(),
        );
        let mut nan_mt = bundle.clone();
        nan_mt.config.mag_deviation_ut = f64::NAN;
        let mut nan_dt = bundle;
        nan_dt.config.distance_threshold_m = f64::NAN;
        for bad in [nan_mt, nan_dt] {
            assert!(DefenseSystem::from_bundle(bad.clone()).is_err());
            assert!(sys.try_swap_bundle(bad).is_err());
        }
        assert_eq!(sys.generation(), ModelRegistry::FIRST_GENERATION);
    }

    #[test]
    fn cascade_pins_a_generation() {
        let sys = isolated_system();
        let (_, user) = system();
        let pinned = sys.cascade();
        let g1 = pinned.generation();
        // A swap lands while the cascade is outstanding.
        let bundle = ModelBundle::from_snapshot(
            BundleMeta {
                producer: "pin-test".to_string(),
                ubm_speakers: 3,
                ubm_components: 8,
                em_iters: 4,
                use_isv: false,
                notes: String::new(),
            },
            &sys.models(),
        );
        let g2 = sys.try_swap_bundle(bundle).unwrap();
        assert!(g2 > g1);
        let s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(900));
        let (v, _) = pinned.run(&s, &sys.config, sys.obs());
        assert_eq!(v.generation, Some(g1), "a pinned cascade serves its pin");
        let fresh = sys.verify(&s);
        assert_eq!(fresh.generation, Some(g2), "new sessions see the swap");
        assert_eq!(v.decision, fresh.decision, "same models, same decision");
    }

    #[test]
    fn traced_verify_reports_every_stage() {
        let (sys, user) = system();
        let s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(104));
        let (v, trace) = sys.verify_traced(&s);
        assert_eq!(v.accepted(), trace.accepted);
        let mut expected = vec!["loudspeaker", "distance", "sound_field", "speaker_id"];
        if s.audio2.is_some() {
            expected.push("sld");
        }
        assert_eq!(trace.components.len(), expected.len());
        for name in expected {
            let c = trace
                .component(name)
                .unwrap_or_else(|| panic!("missing component trace for {name}"));
            assert!(c.duration_s > 0.0, "{name} duration must be positive");
            assert!(
                (c.threshold_margin - (1.0 - c.attack_score)).abs() < 1e-12,
                "{name} margin inconsistent"
            );
            assert_eq!(c.passed, c.attack_score < 1.0);
        }
        let components_s: f64 = trace.components.iter().map(|c| c.duration_s).sum();
        assert!(trace.total_s >= components_s * 0.5);
        // Metrics landed too.
        let snap = sys.metrics().snapshot();
        let full =
            magshield_obs::labels::Labels::new().policy(ExecutionPolicy::FullEvaluation.name());
        assert!(snap.histograms[&full.key_for("pipeline.session.seconds")].count >= 1);
        let distance = full.stage("distance").key_for("pipeline.stage.seconds");
        assert!(snap.histograms[&distance].count >= 1);
    }

    /// Asserts two verdicts are equal bit for bit: decision, invalid
    /// reason, generation and every stage outcome, scores by `to_bits`.
    fn assert_bit_equal(a: &DefenseVerdict, b: &DefenseVerdict) {
        assert_eq!(a.decision, b.decision);
        assert_eq!(a.invalid, b.invalid);
        assert_eq!(a.generation, b.generation);
        assert_eq!(a.stages.len(), b.stages.len());
        for (x, y) in a.stages.iter().zip(&b.stages) {
            match (x, y) {
                (StageOutcome::Ran(x), StageOutcome::Ran(y)) => {
                    assert_eq!(x.component, y.component);
                    assert_eq!(x.attack_score.to_bits(), y.attack_score.to_bits());
                    assert_eq!(x.detail, y.detail);
                }
                (StageOutcome::Skipped(x), StageOutcome::Skipped(y)) => assert_eq!(x, y),
                _ => panic!("{x:?} against {y:?}"),
            }
        }
    }

    #[test]
    fn trace_line_is_a_view_of_the_verdict() {
        let (sys, user) = system();
        let mut dual = user.clone();
        dual.phone = magshield_sensors::phone::PhoneModel::Nexus4;
        let attacker = SpeakerProfile::sample(7, &SimRng::from_seed(1));
        let replay = ScenarioBuilder::machine_attack(
            user,
            AttackKind::Replay,
            table_iv_catalog()[0].clone(),
            attacker,
        )
        .at_distance(0.05)
        .capture(&SimRng::from_seed(322));
        let far = ScenarioBuilder::genuine(user)
            .at_distance(0.14)
            .capture(&SimRng::from_seed(2));
        let sessions = [
            ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(320)),
            ScenarioBuilder::genuine(&dual).capture(&SimRng::from_seed(321)),
            replay,
            far,
        ];
        let mut skipped = 0;
        for s in &sessions {
            let (traced, _) = sys.verify_traced(s);
            assert_bit_equal(&traced, &sys.verify(s));
            for policy in [
                ExecutionPolicy::FullEvaluation,
                ExecutionPolicy::ShortCircuit,
            ] {
                let (v, timings) = sys
                    .cascade()
                    .with_policy(policy)
                    .run(s, &sys.config, sys.obs());
                let trace = trace_line(s, &v, &timings);
                assert_eq!(trace.session, format!("speaker-{}", s.claimed_speaker));
                assert_eq!(trace.accepted, v.accepted());
                assert_eq!(trace.total_s.to_bits(), timings.total_s.to_bits());
                assert_eq!(trace.components.len(), v.stages.len(), "{policy:?}");
                for (c, outcome) in trace.components.iter().zip(&v.stages) {
                    let component = outcome.component();
                    assert_eq!(c.component, component.name());
                    match outcome {
                        StageOutcome::Ran(r) => {
                            assert!(!c.skipped);
                            assert_eq!(c.passed, r.passes_at(1.0));
                            assert_eq!(c.attack_score.to_bits(), r.attack_score.to_bits());
                            assert_eq!(c.detail, r.detail);
                            let stage_s = timings.stage_s[component.index()];
                            assert!(stage_s > 0.0);
                            assert_eq!(c.duration_s.to_bits(), stage_s.to_bits());
                        }
                        StageOutcome::Skipped(k) => {
                            skipped += 1;
                            assert!(c.skipped && !c.passed);
                            assert_eq!(c.attack_score.to_bits(), 0.0f64.to_bits());
                            assert_eq!(c.detail, format!("short-circuited by {}", k.cause.name()));
                            assert_eq!(c.duration_s, 0.0);
                        }
                    }
                }
            }
        }
        assert!(skipped > 0, "the replay and the far session short-circuit");
        let mut invalid = sessions[0].clone();
        invalid.audio.clear();
        let (v, trace) = sys.verify_traced(&invalid);
        assert_bit_equal(&v, &sys.verify(&invalid));
        assert!(v.invalid.is_some());
        assert!(trace.components.is_empty());
    }

    #[test]
    fn invalid_session_still_traced() {
        let (sys, user) = system();
        let mut s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(105));
        s.audio.clear();
        let before = sys.metrics().counter("pipeline.invalid").get();
        let (v, trace) = sys.verify_traced(&s);
        assert!(!v.accepted());
        assert!(!trace.accepted);
        assert!(trace.components.is_empty());
        assert!(trace.total_s > 0.0);
        // `>`: the shared fixture's metrics are cumulative and other
        // tests run concurrently.
        assert!(sys.metrics().counter("pipeline.invalid").get() > before);
    }
}

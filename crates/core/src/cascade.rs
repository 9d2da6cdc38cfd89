//! The verification cascade as a first-class subsystem.
//!
//! The paper's defense is explicitly a *cascade* (Fig. 4, Table III):
//! complementary detectors where any rejection ends the session, with the
//! cheap magnetometer/trajectory checks gating the expensive ASV back
//! end. This module makes that structure explicit:
//!
//! - [`CascadeStage`] is the uniform stage interface — a stable
//!   [`Component`] identity, an applicability check, and an
//!   `evaluate(&SessionData, &SessionAnalysis, &DefenseConfig) ->
//!   ComponentResult` body — that the five components implement
//!   ([`DistanceStage`], [`SldStage`], [`SoundFieldStage`],
//!   [`LoudspeakerStage`], [`SpeakerIdStage`]);
//! - [`Cascade`] is the executor and the one place a cascade run is
//!   built and recorded: pinned to one registry generation's model
//!   snapshot, it walks the five stages with a [`StageMask`] for real
//!   ablation and an [`ExecutionPolicy`] selecting between full
//!   evaluation and short-circuiting. It gives each session one
//!   [`SessionAnalysis`] shared by its stages, so the full-rate
//!   speech-band audio is walked once, by the first stage that reads it
//!   (and timed as part of that stage).
//!
//! Stages run **cheapest first**: the loudspeaker detector touches only
//! the IMU-rate magnetometer stream, while speaker identity resamples
//! audio and scores a GMM — per the Fig. 15 latency data the ASV back end
//! dominates per-session compute, so under
//! [`ExecutionPolicy::ShortCircuit`] a session the magnetometer already
//! condemned never pays for it. The order is decision-invariant under
//! [`ExecutionPolicy::FullEvaluation`] (every stage always runs and the
//! verdict is the conjunction of all stage decisions).
//!
//! Each stage event is recorded once, in a labeled family whose `stage`
//! label is [`Component::name`]: `pipeline.stage.seconds{stage,policy}`
//! latency histograms for stages that ran, `pipeline.stage.skipped{stage,
//! policy}` counters for stages the executor short-circuited past, and
//! one `pipeline.session.seconds{policy}` sample per session. Beside the
//! verdict, a run returns only a fixed-size [`StageTimings`]; the
//! per-session trace line is built from the two by
//! [`DefenseSystem::verify_traced`](crate::pipeline::DefenseSystem::verify_traced)
//! alone.

use crate::analysis::{SessionAnalysis, SpeechParts};
use crate::components::sound_field::SoundFieldModel;
use crate::components::{distance, loudspeaker, sld, sound_field, speaker_id};
use crate::config::DefenseConfig;
use crate::pipeline::PipelineObs;
use crate::registry::ModelSnapshot;
use crate::session::SessionData;
use crate::verdict::{Component, ComponentResult, DefenseVerdict, SkippedStage, StageOutcome};
use magshield_asv::model::{SpeakerModel, UbmBackend};
use magshield_obs::labels::Labels;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One stage of the verification cascade.
///
/// A stage owns no observability: it computes a [`ComponentResult`] whose
/// `attack_score` is normalized so 1.0 is the stage's *factory* decision
/// boundary. The [`Cascade`] executor handles latency histograms, stage
/// timings, and division by the per-stage boundary from
/// [`DefenseConfig::stage_boundaries`](crate::config::StageBoundaries).
pub trait CascadeStage {
    /// The stage's stable identity (names, wire tags and mask bits all
    /// derive from it).
    fn component(&self) -> Component;

    /// Whether this stage can evaluate `session` at all. Inapplicable
    /// stages are omitted from the verdict entirely (e.g. the dual-mic
    /// SLD check on a single-microphone phone).
    fn applies_to(&self, _session: &SessionData) -> bool {
        true
    }

    /// The parts of the shared speech-band analysis the stage reads.
    fn speech_parts(&self) -> SpeechParts {
        SpeechParts::NONE
    }

    /// Evaluates the session, reading full-rate speech-band audio only
    /// through `analysis`, and returns a raw (factory-boundary) component
    /// result.
    fn evaluate(
        &self,
        session: &SessionData,
        analysis: &SessionAnalysis,
        config: &DefenseConfig,
    ) -> ComponentResult;

    /// Evaluates the session on its own, building only the analysis parts
    /// this stage reads. Bit-identical to the stage's result inside a
    /// [`Cascade`], which shares one analysis across its stages.
    fn run(&self, session: &SessionData, config: &DefenseConfig) -> ComponentResult {
        let analysis = SessionAnalysis::new(session, self.speech_parts());
        self.evaluate(session, &analysis, config)
    }
}

/// Loudspeaker detection (§IV-B3) — magnetometer magnitude deviation and
/// changing rate. Cheapest stage: IMU-rate data only.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoudspeakerStage;

impl CascadeStage for LoudspeakerStage {
    fn component(&self) -> Component {
        Component::Loudspeaker
    }

    fn evaluate(
        &self,
        session: &SessionData,
        _: &SessionAnalysis,
        config: &DefenseConfig,
    ) -> ComponentResult {
        loudspeaker::verify(session, config).result
    }
}

/// Sound source distance verification (§IV-B1) — trajectory
/// reconstruction plus pilot-tone ranging.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistanceStage;

impl CascadeStage for DistanceStage {
    fn component(&self) -> Component {
        Component::Distance
    }

    fn evaluate(
        &self,
        session: &SessionData,
        _: &SessionAnalysis,
        config: &DefenseConfig,
    ) -> ComponentResult {
        distance::verify(session, config).result
    }
}

/// Dual-microphone sound-level-difference range check (§VII). Applies
/// only to sessions captured on a dual-mic phone.
#[derive(Debug, Clone, Copy, Default)]
pub struct SldStage;

impl CascadeStage for SldStage {
    fn component(&self) -> Component {
        Component::Sld
    }

    fn applies_to(&self, session: &SessionData) -> bool {
        session.audio2.is_some()
    }

    fn speech_parts(&self) -> SpeechParts {
        SpeechParts::BOTH_LEVELS
    }

    fn evaluate(
        &self,
        _: &SessionData,
        analysis: &SessionAnalysis,
        config: &DefenseConfig,
    ) -> ComponentResult {
        sld::verify(analysis, config)
    }
}

/// Sound field verification (§IV-B2) — SVM over (volume, rotation-angle)
/// features, borrowing the trained model.
#[derive(Debug, Clone, Copy)]
pub struct SoundFieldStage<'a> {
    model: &'a SoundFieldModel,
}

impl<'a> SoundFieldStage<'a> {
    /// A stage classifying against `model`.
    pub fn new(model: &'a SoundFieldModel) -> Self {
        Self { model }
    }
}

impl CascadeStage for SoundFieldStage<'_> {
    fn component(&self) -> Component {
        Component::SoundField
    }

    fn speech_parts(&self) -> SpeechParts {
        SpeechParts::LEVELS
    }

    fn evaluate(
        &self,
        _: &SessionData,
        analysis: &SessionAnalysis,
        config: &DefenseConfig,
    ) -> ComponentResult {
        sound_field::verify(analysis, self.model, config)
    }
}

/// Speaker identity verification (§IV-C) — the ASV back end. Most
/// expensive stage (resampling, MFCC extraction, GMM scoring), so it runs
/// last.
#[derive(Debug, Clone, Copy)]
pub struct SpeakerIdStage<'a> {
    engine: &'a UbmBackend,
    speakers: &'a HashMap<u32, Arc<SpeakerModel>>,
}

impl<'a> SpeakerIdStage<'a> {
    /// A stage scoring against `engine` with the enrolled `speakers`
    /// (the `Arc`-held map a
    /// [`ModelSnapshot`](crate::registry) serves).
    pub fn new(engine: &'a UbmBackend, speakers: &'a HashMap<u32, Arc<SpeakerModel>>) -> Self {
        Self { engine, speakers }
    }
}

impl SpeakerIdStage<'_> {
    fn unknown_speaker(&self, session: &SessionData) -> ComponentResult {
        ComponentResult {
            component: Component::SpeakerIdentity,
            attack_score: 2.0,
            detail: format!("unknown speaker id {}", session.claimed_speaker),
        }
    }
}

impl CascadeStage for SpeakerIdStage<'_> {
    fn component(&self) -> Component {
        Component::SpeakerIdentity
    }

    fn speech_parts(&self) -> SpeechParts {
        SpeechParts::ASV_AUDIO
    }

    fn evaluate(
        &self,
        session: &SessionData,
        analysis: &SessionAnalysis,
        config: &DefenseConfig,
    ) -> ComponentResult {
        match self.speakers.get(&session.claimed_speaker) {
            Some(model) => speaker_id::verify(analysis, self.engine, model, config).0,
            None => self.unknown_speaker(session),
        }
    }
}

/// A bitmask over cascade stages, indexed by [`Component::index`].
///
/// Masked-out stages are omitted from the run entirely — they appear in
/// neither the verdict nor the trace, and record no metrics. This is what
/// real ablation means: the stage never executes, instead of its result
/// being filtered out afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageMask(u8);

impl Default for StageMask {
    fn default() -> Self {
        Self::all()
    }
}

impl StageMask {
    /// Every stage enabled.
    pub fn all() -> Self {
        Self((1 << Component::COUNT) - 1)
    }

    /// No stage enabled (build up with [`StageMask::with`]).
    pub fn none() -> Self {
        Self(0)
    }

    /// Only the given stage enabled.
    pub fn only(c: Component) -> Self {
        Self(1 << c.index())
    }

    /// Returns the mask with `c` enabled.
    #[must_use]
    pub fn with(self, c: Component) -> Self {
        Self(self.0 | (1 << c.index()))
    }

    /// Returns the mask with `c` disabled.
    #[must_use]
    pub fn without(self, c: Component) -> Self {
        Self(self.0 & !(1 << c.index()))
    }

    /// Whether `c` is enabled.
    pub fn contains(self, c: Component) -> bool {
        self.0 & (1 << c.index()) != 0
    }

    /// Number of enabled stages.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no stage is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// How the executor walks the stage list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionPolicy {
    /// Run every enabled, applicable stage — required whenever the
    /// verdict's per-stage scores feed a boundary sweep
    /// ([`DefenseVerdict::decision_at`]), as in the Fig. 12/14 FAR/FRR
    /// experiments.
    #[default]
    FullEvaluation,
    /// Stop evaluating at the first rejecting stage. Later stages are
    /// recorded as [`StageOutcome::Skipped`] in the verdict, naming the
    /// rejecting stage as their cause, and each counts once in
    /// `pipeline.stage.skipped{stage,policy}`. The accept/reject decision is
    /// identical to [`ExecutionPolicy::FullEvaluation`] — a rejection is
    /// final either way — but skipped stages have no scores, so the
    /// verdict cannot be re-thresholded.
    ShortCircuit,
}

impl ExecutionPolicy {
    /// The `policy` label value this policy stamps on labeled metrics:
    /// `"full"` or `"short_circuit"`.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionPolicy::FullEvaluation => "full",
            ExecutionPolicy::ShortCircuit => "short_circuit",
        }
    }
}

/// The cascade executor, pinned to one registry generation: the five
/// stages over one model snapshot, a stage mask and an execution policy.
///
/// Built by [`DefenseSystem::cascade`](crate::pipeline::DefenseSystem::cascade)
/// (and held by every stream from
/// [`DefenseSystem::open_stream`](crate::pipeline::DefenseSystem::open_stream)),
/// then customized with [`Cascade::with_mask`] / [`Cascade::with_policy`].
/// It owns an `Arc<ModelSnapshot>`, so the models it scores against cannot
/// change under it: a hot-swap mid-run only affects *later* cascades.
/// Every verdict it produces carries [`DefenseVerdict::generation`] naming
/// the pinned generation.
pub struct Cascade {
    snapshot: Arc<ModelSnapshot>,
    generation: u64,
    mask: StageMask,
    policy: ExecutionPolicy,
}

impl Cascade {
    /// A cascade over `snapshot` (served as `generation`), with all
    /// stages enabled and full evaluation.
    pub(crate) fn pinned(snapshot: Arc<ModelSnapshot>, generation: u64) -> Self {
        Self {
            snapshot,
            generation,
            mask: StageMask::all(),
            policy: ExecutionPolicy::FullEvaluation,
        }
    }

    /// Returns the cascade with the given stage mask.
    #[must_use]
    pub fn with_mask(mut self, mask: StageMask) -> Self {
        self.mask = mask;
        self
    }

    /// Returns the cascade with the given execution policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The registry generation this cascade is pinned to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Calls `f` with the five stages over the pinned snapshot in
    /// cheapest-first order: loudspeaker (IMU-rate magnetometer only),
    /// distance (trajectory + pilot ranging), SLD (dual-mic level
    /// difference), sound field (SVM over sweep features), speaker
    /// identity (resample + MFCC + GMM — the dominant cost per Fig. 15,
    /// so it always runs last).
    fn with_stages<R>(&self, f: impl FnOnce(&[&dyn CascadeStage; 5]) -> R) -> R {
        let snap = &*self.snapshot;
        let sound_field = SoundFieldStage::new(&snap.sound_field);
        let speaker_id = SpeakerIdStage::new(&snap.engine, &snap.speakers);
        f(&[
            &LoudspeakerStage,
            &DistanceStage,
            &SldStage,
            &sound_field,
            &speaker_id,
        ])
    }

    /// Whether `stage` is enabled and applies to `session`: the stages a
    /// run over it records.
    fn selects(&self, stage: &dyn CascadeStage, session: &SessionData) -> bool {
        self.mask.contains(stage.component()) && stage.applies_to(session)
    }

    /// Runs the cascade on one session, returning the verdict and the
    /// run's [`StageTimings`].
    ///
    /// Per stage that runs: one `pipeline.stage.seconds{stage,policy}`
    /// histogram sample and its slot in the timings. Per stage
    /// short-circuited past: a `pipeline.stage.skipped{stage,policy}`
    /// count and **no** histogram sample. Masked-out and inapplicable
    /// stages are omitted entirely. Per session: one
    /// `pipeline.session.seconds{policy}` sample (none for an invalid
    /// session) and one `pipeline.accepts` / `pipeline.rejects` count.
    /// Latency samples carry the session's trace id
    /// (`speaker-<claimed id>`) as their exemplar. Nothing else is
    /// recorded: callers that do not read the timings ignore them.
    ///
    /// Raw stage scores are divided by the per-stage boundary from
    /// `config.stage_boundaries`, so downstream decision logic keeps its
    /// single boundary at 1.0.
    pub fn run(
        &self,
        session: &SessionData,
        config: &DefenseConfig,
        obs: &PipelineObs,
    ) -> (DefenseVerdict, StageTimings) {
        let (verdict, timings) = self.with_stages(|stages| {
            let planned = self.plan(stages, session);
            let mut state =
                SessionRun::begin(SessionAnalysis::new(session, planned), obs, self.policy);
            if state.invalid_reason.is_none() {
                for stage in stages {
                    self.step(*stage, session, config, obs, &mut state);
                }
            }
            state.finish(obs)
        });
        (verdict.with_generation(self.generation), timings)
    }

    /// The parts of `session`'s one speech pass: every part a selected
    /// stage reads.
    fn plan(&self, stages: &[&dyn CascadeStage; 5], session: &SessionData) -> SpeechParts {
        stages
            .iter()
            .filter(|s| self.selects(**s, session))
            .fold(SpeechParts::NONE, |parts, s| parts.with(s.speech_parts()))
    }

    /// The verdict of a stream whose loudspeaker bound crossed its
    /// boundary mid-stream: `loudspeaker` ran, and every other stage that
    /// applies to `session` is skipped by it — the shape a
    /// short-circuiting run would give.
    pub(crate) fn early_reject(
        &self,
        session: &SessionData,
        loudspeaker: ComponentResult,
    ) -> DefenseVerdict {
        let skipped = self.with_stages(|stages| {
            stages
                .iter()
                .filter(|s| self.selects(**s, session) && s.component() != Component::Loudspeaker)
                .map(|s| {
                    StageOutcome::Skipped(SkippedStage {
                        component: s.component(),
                        cause: Component::Loudspeaker,
                    })
                })
                .collect::<Vec<_>>()
        });
        DefenseVerdict::from_stages(
            std::iter::once(StageOutcome::Ran(loudspeaker))
                .chain(skipped)
                .collect(),
        )
        .with_generation(self.generation)
    }

    /// One stage of one session's run.
    fn step(
        &self,
        stage: &dyn CascadeStage,
        session: &SessionData,
        config: &DefenseConfig,
        obs: &PipelineObs,
        state: &mut SessionRun<'_>,
    ) {
        if !self.selects(stage, session) {
            return;
        }
        let component = stage.component();
        let name = component.name();
        let labels = Labels::new().stage(name).policy(self.policy.name());
        if let (ExecutionPolicy::ShortCircuit, Some(cause)) = (self.policy, state.rejector) {
            obs.stage_skipped.with(&labels).inc();
            state
                .outcomes
                .push(StageOutcome::Skipped(SkippedStage { component, cause }));
            return;
        }
        let stage_started = Instant::now();
        // The first stage that reads speech-band audio pays for the
        // session's one speech pass.
        state.analysis.speech_pass(stage.speech_parts());
        let mut r = stage.evaluate(session, &state.analysis, config);
        r.attack_score /= config.stage_boundaries.get(component);
        // Clamped to 1 ns so "every stage took strictly positive
        // time" holds even on coarse-clock platforms.
        let duration_s = stage_started.elapsed().as_secs_f64().max(1e-9);
        // The session's trace id rides along as the exemplar: a p99
        // spike in the scrape points straight at its session.
        obs.stage_seconds
            .with(&labels)
            .record_secs_with_exemplar(duration_s, &state.trace_id);
        state.timings.stage_s[component.index()] = duration_s;
        if state.rejector.is_none() && !r.passes_at(1.0) {
            state.rejector = Some(component);
        }
        state.outcomes.push(StageOutcome::Ran(r));
    }
}

/// The id a session's latency exemplars and its trace line carry.
pub(crate) fn trace_id(session: &SessionData) -> String {
    format!("speaker-{}", session.claimed_speaker)
}

/// Wall-clock seconds of one [`Cascade::run`]. Fixed-size and `Copy`:
/// timing a run allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Compute time of each stage that ran, indexed by
    /// [`Component::index`] and clamped to be strictly positive; zero
    /// for a stage that was skipped, masked out or inapplicable.
    pub stage_s: [f64; Component::COUNT],
    /// End-to-end time of the run, clamped to be strictly positive.
    pub total_s: f64,
}

/// In-flight execution state of one session walking the cascade, owned by
/// [`Cascade::run`]; the per-stage transition is `Cascade::step`.
struct SessionRun<'s> {
    /// The speech-band analysis the session's stages share.
    analysis: SessionAnalysis<'s>,
    trace_id: String,
    timings: StageTimings,
    outcomes: Vec<StageOutcome>,
    rejector: Option<Component>,
    started: Instant,
    /// The cascade's execution policy, stamped as the `policy` label on
    /// this session's labeled metrics.
    policy: ExecutionPolicy,
    /// Why [`SessionData::validate`] failed, if it did: no stage runs,
    /// the verdict is [`DefenseVerdict::rejected_invalid`].
    invalid_reason: Option<String>,
}

impl<'s> SessionRun<'s> {
    fn begin(analysis: SessionAnalysis<'s>, obs: &PipelineObs, policy: ExecutionPolicy) -> Self {
        let session = analysis.session();
        let started = Instant::now();
        let invalid_reason = session.validate().err().map(|e| e.to_string());
        if invalid_reason.is_some() {
            obs.registry.counter("pipeline.invalid").inc();
        }
        Self {
            analysis,
            trace_id: trace_id(session),
            timings: StageTimings::default(),
            outcomes: Vec::new(),
            rejector: None,
            started,
            policy,
            invalid_reason,
        }
    }

    fn finish(mut self, obs: &PipelineObs) -> (DefenseVerdict, StageTimings) {
        let registry = &obs.registry;
        self.timings.total_s = self.started.elapsed().as_secs_f64().max(1e-9);
        if let Some(reason) = self.invalid_reason {
            registry.counter("pipeline.rejects").inc();
            return (DefenseVerdict::rejected_invalid(reason), self.timings);
        }
        let verdict = DefenseVerdict::from_stages(self.outcomes);
        obs.verify_seconds
            .with(&Labels::new().policy(self.policy.name()))
            .record_secs_with_exemplar(self.timings.total_s, &self.trace_id);
        registry
            .counter(if verdict.accepted() {
                "pipeline.accepts"
            } else {
                "pipeline.rejects"
            })
            .inc();
        (verdict, self.timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use magshield_simkit::prop::prelude::*;
    use magshield_simkit::rng::SimRng;
    use magshield_voice::attacks::AttackKind;
    use magshield_voice::devices::table_iv_catalog;
    use magshield_voice::profile::SpeakerProfile;

    fn replay_session(seed: u64) -> crate::session::SessionData {
        let (_, user) = crate::test_support::shared_tiny_system();
        let attacker = SpeakerProfile::sample(7, &SimRng::from_seed(1));
        let dev = table_iv_catalog()[0].clone();
        ScenarioBuilder::machine_attack(user, AttackKind::Replay, dev, attacker)
            .at_distance(0.05)
            .capture(&SimRng::from_seed(seed))
    }

    #[test]
    fn standard_order_is_cheapest_first() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let order: Vec<_> = sys
            .cascade()
            .with_stages(|stages| stages.iter().map(|s| s.component()).collect());
        assert_eq!(order, Component::all().to_vec());
    }

    #[test]
    fn mask_operations() {
        let all = StageMask::all();
        assert_eq!(all.len(), Component::COUNT);
        for c in Component::all() {
            assert!(all.contains(c));
            let m = all.without(c);
            assert!(!m.contains(c));
            assert_eq!(m.len(), Component::COUNT - 1);
            assert_eq!(m.with(c), all);
            assert_eq!(StageMask::only(c).len(), 1);
        }
        assert!(StageMask::none().is_empty());
    }

    #[test]
    fn masked_stage_is_truly_omitted() {
        let (sys, user) = crate::test_support::shared_tiny_system();
        let sys = sys.with_fresh_obs();
        let s = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(300));
        let mask = StageMask::all().without(Component::SpeakerIdentity);
        let (v, timings) = sys
            .cascade()
            .with_mask(mask)
            .run(&s, &sys.config, sys.obs());
        assert!(v.result_of(Component::SpeakerIdentity).is_none());
        assert!(v.skipped_of(Component::SpeakerIdentity).is_none());
        assert_eq!(timings.stage_s[Component::SpeakerIdentity.index()], 0.0);
        // Omitted means no metrics either: the series never existed.
        let snap = sys.metrics().snapshot();
        assert!(!snap
            .histograms
            .keys()
            .any(|k| k.starts_with("pipeline.stage.seconds{") && k.contains("speaker_id")));
        assert_eq!(
            snap.histogram_family_merged("pipeline.stage.seconds").count,
            v.results().count() as u64
        );
    }

    #[test]
    fn short_circuit_skips_after_first_rejection() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let sys = sys.with_fresh_obs();
        let s = replay_session(310);
        let (v, timings) = sys
            .cascade()
            .with_policy(ExecutionPolicy::ShortCircuit)
            .run(&s, &sys.config, sys.obs());
        assert!(!v.accepted());
        // The loudspeaker detector fires first on a magnet at 5 cm.
        let first = v.results().next().expect("at least one stage ran");
        assert_eq!(first.component, Component::Loudspeaker);
        assert!(first.attack_score >= 1.0);
        let sk = v
            .skipped_of(Component::SpeakerIdentity)
            .expect("ASV must be short-circuited");
        assert_eq!(sk.cause, Component::Loudspeaker);
        // Skip bookkeeping: counter bumped, no latency sample, no time.
        let asv = Labels::new()
            .stage("speaker_id")
            .policy(ExecutionPolicy::ShortCircuit.name());
        let snap = sys.metrics().snapshot();
        assert_eq!(
            snap.counters[&asv.key_for("pipeline.stage.skipped")],
            1,
            "{snap:?}"
        );
        assert!(!snap
            .histograms
            .contains_key(&asv.key_for("pipeline.stage.seconds")));
        assert_eq!(timings.stage_s[Component::SpeakerIdentity.index()], 0.0);
    }

    #[test]
    fn each_cascade_event_is_recorded_once() {
        use magshield_obs::labels::parse_metric_key;
        let (sys, user) = crate::test_support::shared_tiny_system();
        let sys = sys.with_fresh_obs();
        let genuine = ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(330));
        let full = sys.verify_with_policy(&genuine, ExecutionPolicy::FullEvaluation);
        let short = sys.verify_with_policy(&replay_session(331), ExecutionPolicy::ShortCircuit);
        assert_eq!(full.skipped().count(), 0);
        assert!(short.skipped().count() > 0, "the replay short-circuits");
        let snap = sys.metrics().snapshot();
        // Only the labeled families (and the verdict counters) exist: no
        // per-stage or whole-session flat twin.
        fn families<'a>(keys: impl Iterator<Item = &'a String>) -> Vec<&'a str> {
            let mut names: Vec<_> = keys
                .map(|k| parse_metric_key(k).0)
                .filter(|n| n.starts_with("pipeline."))
                .collect();
            names.dedup();
            names
        }
        assert_eq!(
            families(snap.histograms.keys()),
            ["pipeline.session.seconds", "pipeline.stage.seconds"]
        );
        assert_eq!(
            families(snap.counters.keys()),
            [
                "pipeline.accepts",
                "pipeline.rejects",
                "pipeline.stage.skipped"
            ]
        );
        let ran = full.results().count() + short.results().count();
        let skipped = short.skipped().count();
        assert_eq!(
            snap.histogram_family_merged("pipeline.stage.seconds").count,
            ran as u64
        );
        assert_eq!(
            snap.counter_family_total("pipeline.stage.skipped"),
            skipped as u64
        );
        assert_eq!(
            snap.histogram_family_merged("pipeline.session.seconds")
                .count,
            2
        );
    }

    #[test]
    fn full_evaluation_never_skips() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let sys = sys.with_fresh_obs();
        let s = replay_session(311);
        let (v, _) = sys.cascade().run(&s, &sys.config, sys.obs());
        assert!(!v.accepted());
        assert_eq!(v.skipped().count(), 0);
        assert_eq!(v.results().count(), v.stages.len());
    }

    #[test]
    fn stage_boundary_scales_the_decision() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let s = replay_session(312);
        let v = sys.verify(&s);
        let raw = v.result_of(Component::Loudspeaker).unwrap().attack_score;
        assert!(raw > 1.0, "replay at 5 cm trips the magnetometer");
        // Widen only the loudspeaker boundary far past the raw score: the
        // normalized score shrinks proportionally.
        let widened = sys
            .config
            .with_stage_boundary(Component::Loudspeaker, raw * 2.0);
        let v2 = sys.verify_with_config(&s, &widened);
        let scaled = v2.result_of(Component::Loudspeaker).unwrap().attack_score;
        assert!(
            (scaled - 0.5).abs() < 1e-9,
            "score {raw} / boundary {} should be 0.5, got {scaled}",
            raw * 2.0
        );
    }

    /// A genuine session on the fixture user's single-mic phone, one on a
    /// dual-mic phone, and a loudspeaker replay.
    fn mixed_sessions() -> Vec<crate::session::SessionData> {
        let (_, user) = crate::test_support::shared_tiny_system();
        let mut dual = user.clone();
        dual.phone = magshield_sensors::phone::PhoneModel::Nexus4;
        vec![
            ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(320)),
            ScenarioBuilder::genuine(&dual).capture(&SimRng::from_seed(321)),
            replay_session(322),
        ]
    }

    #[test]
    fn standalone_stage_runs_match_the_shared_analysis() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let sessions = mixed_sessions();
        assert!(sessions[1].audio2.is_some(), "the SLD stage must run");
        for policy in [
            ExecutionPolicy::FullEvaluation,
            ExecutionPolicy::ShortCircuit,
        ] {
            let cascade = sys.cascade().with_policy(policy);
            for s in &sessions {
                let (single, _) = cascade.run(s, &sys.config, sys.obs());
                cascade.with_stages(|stages| {
                    for stage in stages {
                        let component = stage.component();
                        let Some(shared) = single.result_of(component) else {
                            continue;
                        };
                        let mut alone = stage.run(s, &sys.config);
                        alone.attack_score /= sys.config.stage_boundaries.get(component);
                        assert_eq!(
                            shared.attack_score.to_bits(),
                            alone.attack_score.to_bits(),
                            "{component:?} under {policy:?}"
                        );
                        assert_eq!(shared.detail, alone.detail, "{component:?}");
                    }
                });
            }
        }
    }

    /// Walks `s` through `cascade` one stage at a time, as
    /// [`Cascade::run`] does, and returns for each selected stage whether
    /// it ran and the speech parts computed once it was done.
    fn speech_parts_after_each_stage(
        sys: &crate::pipeline::DefenseSystem,
        cascade: &Cascade,
        s: &crate::session::SessionData,
    ) -> Vec<(Component, bool, SpeechParts)> {
        cascade.with_stages(|stages| {
            let planned = cascade.plan(stages, s);
            let mut state =
                SessionRun::begin(SessionAnalysis::new(s, planned), sys.obs(), cascade.policy);
            assert!(state.invalid_reason.is_none());
            stages
                .iter()
                .filter(|stage| cascade.selects(**stage, s))
                .map(|stage| {
                    cascade.step(*stage, s, &sys.config, sys.obs(), &mut state);
                    let ran = matches!(state.outcomes.last(), Some(StageOutcome::Ran(_)));
                    (stage.component(), ran, state.analysis.computed())
                })
                .collect()
        })
    }

    #[test]
    fn speech_pass_runs_once_in_the_first_stage_that_reads_speech() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let sessions = mixed_sessions();
        for (s, first_reader) in sessions[..2]
            .iter()
            .zip([Component::SoundField, Component::Sld])
        {
            let sys = sys.with_fresh_obs();
            let cascade = sys.cascade();
            let planned = cascade.with_stages(|stages| cascade.plan(stages, s));
            assert_ne!(planned, SpeechParts::NONE);
            let walk = speech_parts_after_each_stage(&sys, &cascade, s);
            let first = walk
                .iter()
                .position(|&(_, _, done)| done != SpeechParts::NONE)
                .expect("some stage reads speech");
            assert_eq!(walk[first].0, first_reader);
            // One pass: the first reader computes every planned part, so
            // no later stage has any part left to compute.
            for &(component, ran, done) in &walk[first..] {
                assert!(ran, "{component:?}");
                assert_eq!(done, planned, "{component:?}");
            }
        }
    }

    #[test]
    fn short_circuit_rejects_before_speech_never_run_the_speech_pass() {
        let (sys, user) = crate::test_support::shared_tiny_system();
        // Loudspeaker rejects the replay; distance rejects a genuine user
        // speaking from 14 cm.
        let far = ScenarioBuilder::genuine(user)
            .at_distance(0.14)
            .capture(&SimRng::from_seed(2));
        for (s, rejector) in [
            (replay_session(323), Component::Loudspeaker),
            (far, Component::Distance),
        ] {
            let sys = sys.with_fresh_obs();
            let v = sys.verify_with_policy(&s, ExecutionPolicy::ShortCircuit);
            assert_eq!(v.skipped().next().map(|k| k.cause), Some(rejector));
            let cascade = sys.cascade().with_policy(ExecutionPolicy::ShortCircuit);
            let walk = speech_parts_after_each_stage(&sys, &cascade, &s);
            assert!(walk.contains(&(rejector, true, SpeechParts::NONE)));
            for (component, _, done) in walk {
                assert_eq!(
                    done,
                    SpeechParts::NONE,
                    "a session {} rejected never reads speech audio ({component:?})",
                    rejector.name()
                );
            }
        }
    }

    #[test]
    fn near_overflow_sessions_are_rejected_without_panicking() {
        let (sys, _) = crate::test_support::shared_tiny_system();
        let sessions = mixed_sessions();
        let pruned_cfg = DefenseConfig {
            asv_top_c: 4,
            ..sys.config
        };
        let scale = |xs: &mut [f64]| {
            let peak = xs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            xs.iter_mut().for_each(|x| *x *= 1e307 / peak);
        };
        for base in &sessions[..2] {
            for (what, audio, mag) in [
                ("audio", true, false),
                ("mag", false, true),
                ("both", true, true),
            ] {
                let mut s = base.clone();
                if audio {
                    scale(&mut s.audio);
                    if let Some(a) = s.audio2.as_mut() {
                        scale(a);
                    }
                }
                if mag {
                    let peak = s.mag_readings.iter().fold(0.0f64, |m, v| m.max(v.norm()));
                    s.mag_readings
                        .iter_mut()
                        .for_each(|v| *v = *v * (1e307 / peak));
                }
                assert!(s.validate().is_ok(), "{what}: the session stays finite");
                for policy in [
                    ExecutionPolicy::FullEvaluation,
                    ExecutionPolicy::ShortCircuit,
                ] {
                    let v = sys.verify_with_policy(&s, policy);
                    assert!(!v.accepted(), "{what} under {policy:?}");
                    // Top-C pruning ranks components by log-likelihood.
                    let cascade = sys.cascade().with_policy(policy);
                    let pruned = cascade.run(&s, &pruned_cfg, sys.obs()).0;
                    assert!(!pruned.accepted(), "{what} pruned under {policy:?}");
                }
            }
        }
    }

    proptest! {
        // Each case runs the full cascade (GMM scoring included) twice,
        // so keep the case count low; the fixture is shared.
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// End-to-end decision identity of the fast path: at the default
        /// top-C the cascade's decision equals the exact-scoring run under
        /// both policies; and pruned acceptance is one-sided — the pruned
        /// score lower-bounds the exact score, so a session accepted with
        /// pruning is always accepted exactly (pruning can never introduce
        /// a false accept).
        #[test]
        fn pruned_cascade_decisions_are_identical_and_one_sided(
            seed in 0u64..5000,
            attack in 0u8..2,
        ) {
            let (sys, user) = crate::test_support::shared_tiny_system();
            let s = if attack == 1 {
                replay_session(seed)
            } else {
                ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(seed))
            };
            let exact_cfg = DefenseConfig { asv_top_c: 0, ..sys.config };
            let pruned_cfg = DefenseConfig { asv_top_c: 4, ..sys.config };
            for policy in [ExecutionPolicy::FullEvaluation, ExecutionPolicy::ShortCircuit] {
                // The default config (top-C = component count here, so
                // exact) agrees with the exact-config run.
                let seq = sys.cascade().with_policy(policy).run(&s, &sys.config, sys.obs()).0;
                let exact = sys.cascade().with_policy(policy).run(&s, &exact_cfg, sys.obs()).0;
                prop_assert_eq!(seq.decision, exact.decision, "default C = k must be exact");
                // Aggressive pruning: acceptance implies exact acceptance.
                let pruned = sys.cascade().with_policy(policy).run(&s, &pruned_cfg, sys.obs()).0;
                if pruned.accepted() {
                    prop_assert!(exact.accepted(), "pruning introduced a false accept");
                }
            }
        }

        /// ShortCircuit and FullEvaluation always agree on accept/reject
        /// for the same session: a rejection is final under both policies.
        #[test]
        fn policies_agree_on_decision(seed in 0u64..5000, attack in 0u8..2) {
            let (sys, user) = crate::test_support::shared_tiny_system();
            let s = if attack == 1 {
                replay_session(seed)
            } else {
                ScenarioBuilder::genuine(user).capture(&SimRng::from_seed(seed))
            };
            let full = sys
                .cascade()
                .run(&s, &sys.config, sys.obs())
                .0;
            let short = sys
                .cascade()
                .with_policy(ExecutionPolicy::ShortCircuit)
                .run(&s, &sys.config, sys.obs())
                .0;
            prop_assert_eq!(full.decision, short.decision);
            // And the stages that did run scored identically.
            for r in short.results() {
                let f = full.result_of(r.component).expect("full ran every stage");
                prop_assert!((f.attack_score - r.attack_score).abs() < 1e-12);
            }
        }

        /// Under ShortCircuit, no stage after the first rejection has a
        /// recorded duration or histogram sample — only a skip counter.
        #[test]
        fn short_circuit_records_nothing_after_rejection(seed in 0u64..5000) {
            let (sys, _) = crate::test_support::shared_tiny_system();
            let sys = sys.with_fresh_obs();
            let s = replay_session(seed);
            let (v, timings) = sys
                .cascade()
                .with_policy(ExecutionPolicy::ShortCircuit)
                .run(&s, &sys.config, sys.obs());
            prop_assert!(!v.accepted(), "replay at 5 cm must reject");
            let snap = sys.metrics().snapshot();
            let mut rejected_seen = false;
            for outcome in &v.stages {
                let name = outcome.component().name();
                let labels = Labels::new().stage(name).policy(ExecutionPolicy::ShortCircuit.name());
                let seconds = labels.key_for("pipeline.stage.seconds");
                match outcome {
                    StageOutcome::Ran(r) => {
                        prop_assert!(!rejected_seen, "no stage runs after the first rejection");
                        prop_assert!(timings.stage_s[outcome.component().index()] > 0.0);
                        prop_assert_eq!(snap.histograms[&seconds].count, 1);
                        if r.attack_score >= 1.0 {
                            rejected_seen = true;
                        }
                    }
                    StageOutcome::Skipped(_) => {
                        prop_assert!(rejected_seen, "skips only after a rejection");
                        prop_assert!(timings.stage_s[outcome.component().index()] == 0.0);
                        prop_assert!(
                            !snap.histograms.contains_key(&seconds),
                            "skipped stage must not have a latency sample"
                        );
                        prop_assert_eq!(snap.counters[&labels.key_for("pipeline.stage.skipped")], 1);
                    }
                }
            }
        }
    }
}

//! Verification verdicts — the Table III decision matrix.

/// Which cascade stage produced a result.
///
/// The variant is the stage's *stable identity*: metric labels, trace
/// component strings and wire tags are all derived from
/// [`Component::name`], so there is exactly one source of truth for
/// stage naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Loudspeaker detection (§IV-B3).
    Loudspeaker,
    /// Sound source distance verification (§IV-B1).
    Distance,
    /// Dual-microphone sound-level-difference range check (§VII).
    Sld,
    /// Sound field verification (§IV-B2).
    SoundField,
    /// Speaker identity verification (§IV-C).
    SpeakerIdentity,
}

impl Component {
    /// Number of cascade components.
    pub const COUNT: usize = 5;

    /// All components in cascade order: cheapest first (per the Fig. 15
    /// latency data), so a short-circuiting executor spends the least
    /// possible time on sessions the early stages already condemn. The
    /// expensive ASV back end always comes last.
    pub fn all() -> [Component; Component::COUNT] {
        [
            Component::Loudspeaker,
            Component::Distance,
            Component::Sld,
            Component::SoundField,
            Component::SpeakerIdentity,
        ]
    }

    /// Stable snake_case identifier — the single source of truth for
    /// the `stage` label of the `pipeline.stage.*` metric families and
    /// pipeline-trace component strings.
    pub fn name(&self) -> &'static str {
        match self {
            Component::Loudspeaker => "loudspeaker",
            Component::Distance => "distance",
            Component::Sld => "sld",
            Component::SoundField => "sound_field",
            Component::SpeakerIdentity => "speaker_id",
        }
    }

    /// Dense index in cascade order (for per-stage tables and masks).
    pub fn index(&self) -> usize {
        match self {
            Component::Loudspeaker => 0,
            Component::Distance => 1,
            Component::Sld => 2,
            Component::SoundField => 3,
            Component::SpeakerIdentity => 4,
        }
    }
}

/// One component's normalized result.
///
/// `attack_score` is normalized so 1.0 is the decision boundary: < 1
/// passes, ≥ 1 rejects. This lets a single sweep of the boundary generate
/// FAR/FRR curves per Figs. 12/14.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentResult {
    /// The component.
    pub component: Component,
    /// Normalized attack score (1.0 = boundary).
    pub attack_score: f64,
    /// Human-readable detail for logs.
    pub detail: String,
}

impl ComponentResult {
    /// Whether the component passes at boundary multiplier `t`.
    pub fn passes_at(&self, t: f64) -> bool {
        self.attack_score < t
    }
}

/// A stage the executor did not run: short-circuited after an earlier
/// stage already rejected the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedStage {
    /// The stage that was skipped.
    pub component: Component,
    /// The stage whose rejection short-circuited the cascade.
    pub cause: Component,
}

/// What happened to one cascade stage during a verification.
///
/// Stages that are masked out (ablation) or inapplicable to the session
/// (e.g. the SLD check on a single-microphone phone) are omitted from
/// the verdict entirely; `Skipped` records only stages the executor
/// *would* have run but cut off under
/// [`ExecutionPolicy::ShortCircuit`](crate::cascade::ExecutionPolicy).
#[derive(Debug, Clone, PartialEq)]
pub enum StageOutcome {
    /// The stage ran and produced a result.
    Ran(ComponentResult),
    /// The stage was skipped by the short-circuiting executor.
    Skipped(SkippedStage),
}

impl StageOutcome {
    /// The stage's identity, whether it ran or not.
    pub fn component(&self) -> Component {
        match self {
            StageOutcome::Ran(r) => r.component,
            StageOutcome::Skipped(s) => s.component,
        }
    }

    /// The result, if the stage ran.
    pub fn result(&self) -> Option<&ComponentResult> {
        match self {
            StageOutcome::Ran(r) => Some(r),
            StageOutcome::Skipped(_) => None,
        }
    }
}

/// Final decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Session verified as the genuine user speaking live.
    Accept,
    /// Session rejected.
    Reject,
}

/// The cascade verdict with per-stage evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseVerdict {
    /// Per-stage outcomes, cascade order. Masked-out and inapplicable
    /// stages are omitted; short-circuited stages appear as
    /// [`StageOutcome::Skipped`].
    pub stages: Vec<StageOutcome>,
    /// Decision at the nominal boundary (t = 1).
    pub decision: Decision,
    /// `Some(reason)` when the session failed validation before any
    /// stage ran. Distinct from per-component evidence so ablation
    /// tables and traces never misattribute malformed sessions to a
    /// detector.
    pub invalid: Option<String>,
    /// The model-registry generation this session was scored against
    /// (`None` for verdicts built outside a registry-backed system).
    /// Stamped by the pinned [`Cascade`](crate::cascade::Cascade): every
    /// verdict — including each member of a batch — is attributable to
    /// exactly one generation, even when an enrollment or bundle hot-swap
    /// lands mid-flight.
    pub generation: Option<u64>,
}

impl DefenseVerdict {
    /// Builds a verdict from component results (decision at t = 1).
    pub fn from_results(results: Vec<ComponentResult>) -> Self {
        let decision = if results.iter().all(|r| r.passes_at(1.0)) {
            Decision::Accept
        } else {
            Decision::Reject
        };
        Self {
            stages: results.into_iter().map(StageOutcome::Ran).collect(),
            decision,
            invalid: None,
            generation: None,
        }
    }

    /// Builds a verdict from per-stage outcomes (decision at t = 1 over
    /// the stages that ran).
    pub fn from_stages(stages: Vec<StageOutcome>) -> Self {
        let decision = if stages
            .iter()
            .filter_map(StageOutcome::result)
            .all(|r| r.passes_at(1.0))
        {
            Decision::Accept
        } else {
            Decision::Reject
        };
        Self {
            stages,
            decision,
            invalid: None,
            generation: None,
        }
    }

    /// A rejection produced before any component ran (malformed session).
    pub fn rejected_invalid(reason: String) -> Self {
        Self {
            stages: Vec::new(),
            decision: Decision::Reject,
            invalid: Some(reason),
            generation: None,
        }
    }

    /// Returns the verdict attributed to a registry generation.
    #[must_use]
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = Some(generation);
        self
    }

    /// Whether the session was accepted at the nominal boundary.
    pub fn accepted(&self) -> bool {
        self.decision == Decision::Accept
    }

    /// Results of the stages that ran, cascade order.
    pub fn results(&self) -> impl Iterator<Item = &ComponentResult> {
        self.stages.iter().filter_map(StageOutcome::result)
    }

    /// Stages the executor short-circuited past, cascade order.
    pub fn skipped(&self) -> impl Iterator<Item = &SkippedStage> {
        self.stages.iter().filter_map(|s| match s {
            StageOutcome::Skipped(sk) => Some(sk),
            StageOutcome::Ran(_) => None,
        })
    }

    /// The worst (largest) attack score — the cascade's combined score.
    /// Invalid sessions score `+∞` (rejected at every boundary).
    pub fn combined_score(&self) -> f64 {
        if self.invalid.is_some() {
            return f64::INFINITY;
        }
        self.results()
            .map(|r| r.attack_score)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Decision at boundary multiplier `t` (sweeping `t` traces FAR/FRR).
    ///
    /// Only meaningful for verdicts produced under
    /// [`ExecutionPolicy::FullEvaluation`](crate::cascade::ExecutionPolicy):
    /// a short-circuited verdict has no scores for its skipped stages, so
    /// raising `t` could flip a decision a skipped stage would have held.
    pub fn decision_at(&self, t: f64) -> Decision {
        if self.invalid.is_some() {
            return Decision::Reject;
        }
        if self.results().all(|r| r.passes_at(t)) {
            Decision::Accept
        } else {
            Decision::Reject
        }
    }

    /// The result of a specific component, if that stage ran.
    pub fn result_of(&self, c: Component) -> Option<&ComponentResult> {
        self.results().find(|r| r.component == c)
    }

    /// The skip record of a specific component, if it was short-circuited.
    pub fn skipped_of(&self, c: Component) -> Option<&SkippedStage> {
        self.skipped().find(|s| s.component == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(c: Component, s: f64) -> ComponentResult {
        ComponentResult {
            component: c,
            attack_score: s,
            detail: String::new(),
        }
    }

    #[test]
    fn accepts_when_all_pass() {
        let v = DefenseVerdict::from_results(vec![
            result(Component::Distance, 0.5),
            result(Component::Loudspeaker, 0.2),
        ]);
        assert!(v.accepted());
        assert_eq!(v.combined_score(), 0.5);
        assert!(v.invalid.is_none());
    }

    #[test]
    fn rejects_when_any_fails() {
        let v = DefenseVerdict::from_results(vec![
            result(Component::Distance, 0.5),
            result(Component::Loudspeaker, 3.0),
        ]);
        assert!(!v.accepted());
        assert_eq!(v.combined_score(), 3.0);
    }

    #[test]
    fn threshold_sweep_flips_decision() {
        let v = DefenseVerdict::from_results(vec![result(Component::SoundField, 1.5)]);
        assert_eq!(v.decision_at(1.0), Decision::Reject);
        assert_eq!(v.decision_at(2.0), Decision::Accept);
    }

    #[test]
    fn boundary_is_rejecting() {
        let v = DefenseVerdict::from_results(vec![result(Component::Distance, 1.0)]);
        assert!(!v.accepted(), "score exactly at the boundary rejects");
    }

    #[test]
    fn invalid_session_rejects_without_blaming_a_component() {
        let v = DefenseVerdict::rejected_invalid("empty audio".into());
        assert!(!v.accepted());
        assert_eq!(v.decision_at(1e9), Decision::Reject);
        assert_eq!(v.combined_score(), f64::INFINITY);
        // No component carries the blame — the session never reached one.
        for c in Component::all() {
            assert!(v.result_of(c).is_none());
        }
        assert_eq!(v.invalid.as_deref(), Some("empty audio"));
    }

    #[test]
    fn component_names_are_unique_snake_case() {
        let names: Vec<_> = Component::all().iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn component_indices_are_dense_cascade_order() {
        for (i, c) in Component::all().iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn result_lookup() {
        let v = DefenseVerdict::from_results(vec![result(Component::SpeakerIdentity, 0.3)]);
        assert!(v.result_of(Component::SpeakerIdentity).is_some());
        assert!(v.result_of(Component::Loudspeaker).is_none());
    }

    #[test]
    fn skipped_stages_carry_no_score_but_are_discoverable() {
        let v = DefenseVerdict::from_stages(vec![
            StageOutcome::Ran(result(Component::Loudspeaker, 2.0)),
            StageOutcome::Skipped(SkippedStage {
                component: Component::SpeakerIdentity,
                cause: Component::Loudspeaker,
            }),
        ]);
        assert!(!v.accepted());
        assert_eq!(v.combined_score(), 2.0);
        assert!(v.result_of(Component::SpeakerIdentity).is_none());
        let sk = v.skipped_of(Component::SpeakerIdentity).unwrap();
        assert_eq!(sk.cause, Component::Loudspeaker);
        assert_eq!(v.skipped().count(), 1);
    }

    #[test]
    fn empty_stage_list_accepts_vacuously() {
        let v = DefenseVerdict::from_stages(Vec::new());
        assert!(v.accepted(), "no evidence against the session");
        assert!(v.invalid.is_none());
    }
}

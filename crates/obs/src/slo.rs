//! Declarative SLOs evaluated with multi-window burn rates, driving a
//! hysteretic health state machine.
//!
//! An [`SloSpec`] names an objective (availability of a counter family,
//! or a latency threshold on a histogram family, summed over every label
//! set of the family). The [`SloEngine`] ingests periodic
//! [`MetricsSnapshot`]s, keeps a short ring of cumulative samples per
//! spec, and computes the **burn rate** — error rate divided by the
//! error budget `1 − objective` — over a short and a long window. Burn
//! ≥ 1 means the budget is being spent exactly as fast as it accrues;
//! the classic multi-window thresholds (page at 14.4×, ticket at 6×)
//! follow the SRE-workbook alerting model: both windows must agree, so
//! a brief spike (short high, long low) and a stale incident (long
//! high, short recovered) neither page.
//!
//! The engine also ingests one built-in guard, [`PANIC_COUNTER`], so a
//! panicking worker pool is visible as [`HealthState::Degraded`] (or
//! worse) without any spec.
//! Time is passed in explicitly (`now_s`), which makes the math
//! deterministic and directly property-testable.

use crate::metrics::MetricsSnapshot;
use std::collections::VecDeque;

/// Short burn window, seconds.
pub const SHORT_WINDOW_S: f64 = 300.0;
/// Long burn window, seconds.
pub const LONG_WINDOW_S: f64 = 3600.0;
/// Burn rate (on both windows) that makes a spec `Unhealthy` (page
/// severity).
pub const PAGE_BURN: f64 = 14.4;
/// Burn rate (on both windows) that makes a spec `Degraded` (ticket
/// severity).
pub const TICKET_BURN: f64 = 6.0;
/// Consecutive cleaner evaluations required before health improves
/// (escalation is always immediate).
pub const RECOVERY_EVALS: u32 = 3;
/// Counter family of contained worker panics, the built-in guard's
/// source: any panic within [`PANIC_WINDOW_S`] degrades health.
pub const PANIC_COUNTER: &str = "server.worker.panics";
/// The panic guard's window, seconds.
pub const PANIC_WINDOW_S: f64 = SHORT_WINDOW_S;

/// Overall health, ordered from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// All objectives within budget.
    Healthy,
    /// An objective is burning budget at ticket rate, or workers have
    /// panicked recently.
    Degraded,
    /// An objective is burning budget at page rate.
    Unhealthy,
}

impl HealthState {
    /// Stable wire/text encoding.
    pub fn code(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Unhealthy => 2,
        }
    }

    /// Inverse of [`HealthState::code`]; unknown codes are treated as
    /// `Unhealthy` (fail toward alerting, never toward silence).
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::Unhealthy,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Unhealthy => "unhealthy",
        }
    }
}

/// What an [`SloSpec`] measures.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Good = `total − errors` over the `total` and `errors` counter
    /// families (base names; labeled series are summed).
    Availability {
        /// Counter family counting all events.
        total: String,
        /// Counter family counting failed events.
        errors: String,
    },
    /// Good = samples at or under `threshold_s` in the histogram
    /// family (bucket-resolution, conservative).
    Latency {
        /// Histogram family of observed latencies.
        histogram: String,
        /// The latency objective threshold, seconds.
        threshold_s: f64,
    },
}

/// A declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Report name, e.g. `verify-availability`.
    pub name: String,
    /// Success objective in `(0, 1)`, e.g. `0.999`.
    pub objective: f64,
    /// What is measured.
    pub source: Objective,
}

impl SloSpec {
    /// An availability objective.
    ///
    /// # Panics
    ///
    /// Panics unless `objective ∈ (0, 1)`.
    pub fn availability(name: &str, total: &str, errors: &str, objective: f64) -> Self {
        assert!(
            objective > 0.0 && objective < 1.0,
            "objective must be in (0,1), got {objective}"
        );
        SloSpec {
            name: name.to_string(),
            objective,
            source: Objective::Availability {
                total: total.to_string(),
                errors: errors.to_string(),
            },
        }
    }

    /// A latency objective: `objective` of samples at or under
    /// `threshold_s`.
    ///
    /// # Panics
    ///
    /// Panics unless `objective ∈ (0, 1)` and `threshold_s > 0`.
    pub fn latency(name: &str, histogram: &str, threshold_s: f64, objective: f64) -> Self {
        assert!(
            objective > 0.0 && objective < 1.0,
            "objective must be in (0,1), got {objective}"
        );
        assert!(threshold_s > 0.0, "latency threshold must be positive");
        SloSpec {
            name: name.to_string(),
            objective,
            source: Objective::Latency {
                histogram: histogram.to_string(),
                threshold_s,
            },
        }
    }

    /// The error budget `1 − objective`.
    pub fn budget(&self) -> f64 {
        1.0 - self.objective
    }

    /// Cumulative `(total, errors)` for this spec from a snapshot.
    pub fn totals(&self, snap: &MetricsSnapshot) -> (u64, u64) {
        match &self.source {
            Objective::Availability { total, errors } => (
                snap.counter_family_total(total),
                snap.counter_family_total(errors),
            ),
            Objective::Latency {
                histogram,
                threshold_s,
            } => {
                let h = snap.histogram_family_merged(histogram);
                (h.count, h.count - h.count_under(*threshold_s))
            }
        }
    }
}

/// Burn rates over the two windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRate {
    /// Burn over the short window.
    pub short: f64,
    /// Burn over the long window.
    pub long: f64,
}

/// Pure multi-window burn math: `(errors/total)/budget` per window.
/// Zero-traffic windows burn nothing.
pub fn burn_rate(total_delta: u64, error_delta: u64, budget: f64) -> f64 {
    if total_delta == 0 {
        return 0.0;
    }
    let rate = error_delta.min(total_delta) as f64 / total_delta as f64;
    rate / budget.max(f64::EPSILON)
}

/// Maps a spec's two-window burn to its health contribution.
pub fn classify_burn(burn: BurnRate, ticket: f64, page: f64) -> HealthState {
    if burn.short >= page && burn.long >= page {
        HealthState::Unhealthy
    } else if burn.short >= ticket && burn.long >= ticket {
        HealthState::Degraded
    } else {
        HealthState::Healthy
    }
}

/// A ring of cumulative `(t, total, errors)` samples.
#[derive(Debug, Default, Clone)]
struct Ring {
    samples: VecDeque<(f64, u64, u64)>,
}

impl Ring {
    fn push(&mut self, now_s: f64, total: u64, errors: u64, keep_s: f64) {
        // Monotonic time: a rewound clock drops the stale future.
        while self.samples.back().is_some_and(|&(t, _, _)| t >= now_s) {
            self.samples.pop_back();
        }
        self.samples.push_back((now_s, total, errors));
        // Keep one sample at or before the window start so deltas over
        // the full window stay computable.
        while self.samples.len() > 2 && self.samples[1].0 <= now_s - keep_s {
            self.samples.pop_front();
        }
    }

    /// Cumulative deltas over the trailing `window_s`. The baseline is
    /// the newest sample at or before the window start, or the oldest
    /// sample while the ring is still filling (partial window).
    fn delta_over(&self, now_s: f64, window_s: f64) -> (u64, u64) {
        let Some(&(_, latest_total, latest_err)) = self.samples.back() else {
            return (0, 0);
        };
        let start = now_s - window_s;
        let mut base: Option<(u64, u64)> = None;
        for &(t, total, err) in self.samples.iter().rev().skip(1) {
            base = Some((total, err));
            if t <= start {
                break;
            }
        }
        let Some((base_total, base_err)) = base else {
            // A single sample carries no rate information yet.
            return (0, 0);
        };
        (
            latest_total.saturating_sub(base_total),
            latest_err.saturating_sub(base_err),
        )
    }
}

/// Per-spec evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Spec name.
    pub name: String,
    /// Burn rates at evaluation time.
    pub burn: BurnRate,
    /// This spec's health contribution.
    pub state: HealthState,
}

/// The engine's answer: overall state plus per-spec evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Overall state (worst contribution, with recovery hysteresis).
    pub state: HealthState,
    /// Per-spec statuses, spec order.
    pub statuses: Vec<SloStatus>,
    /// Human-readable notes from the built-in guard.
    pub notes: Vec<String>,
}

/// Evaluates [`SloSpec`]s and the panic guard against ingested
/// snapshots.
#[derive(Debug, Clone)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    rings: Vec<Ring>,
    panic_ring: Ring,
    state: HealthState,
    candidate: HealthState,
    streak: u32,
}

impl SloEngine {
    /// An engine over `specs` plus the panic guard.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let rings = vec![Ring::default(); specs.len()];
        SloEngine {
            specs,
            rings,
            panic_ring: Ring::default(),
            state: HealthState::Healthy,
            candidate: HealthState::Healthy,
            streak: 0,
        }
    }

    /// The configured specs.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Records one cumulative sample per spec and for the guard from
    /// `snap`.
    pub fn ingest(&mut self, now_s: f64, snap: &MetricsSnapshot) {
        for (spec, ring) in self.specs.iter().zip(&mut self.rings) {
            let (total, errors) = spec.totals(snap);
            ring.push(now_s, total, errors, LONG_WINDOW_S);
        }
        let panics = snap.counter_family_total(PANIC_COUNTER);
        self.panic_ring.push(now_s, panics, 0, PANIC_WINDOW_S);
    }

    /// Evaluates all specs and the guard at `now_s`, advancing the state
    /// machine. Escalation is immediate; recovery requires
    /// [`RECOVERY_EVALS`] consecutive cleaner evaluations so a
    /// flapping objective cannot oscillate the reported state.
    pub fn evaluate(&mut self, now_s: f64) -> HealthReport {
        let mut statuses = Vec::with_capacity(self.specs.len());
        let mut notes = Vec::new();
        let mut worst = HealthState::Healthy;

        for (spec, ring) in self.specs.iter().zip(&self.rings) {
            let (st, se) = ring.delta_over(now_s, SHORT_WINDOW_S);
            let (lt, le) = ring.delta_over(now_s, LONG_WINDOW_S);
            let burn = BurnRate {
                short: burn_rate(st, se, spec.budget()),
                long: burn_rate(lt, le, spec.budget()),
            };
            let state = classify_burn(burn, TICKET_BURN, PAGE_BURN);
            worst = worst.max(state);
            statuses.push(SloStatus {
                name: spec.name.clone(),
                burn,
                state,
            });
        }

        let (panics, _) = self.panic_ring.delta_over(now_s, PANIC_WINDOW_S);
        if panics > 0 {
            worst = worst.max(HealthState::Degraded);
            notes.push(format!(
                "{panics} worker panic(s) in the last {PANIC_WINDOW_S:.0}s"
            ));
        }

        // Hysteresis: up immediately, down only on a sustained streak.
        if worst >= self.state {
            self.state = worst;
            self.candidate = worst;
            self.streak = 0;
        } else if worst == self.candidate {
            self.streak += 1;
            if self.streak >= RECOVERY_EVALS {
                self.state = worst;
                self.streak = 0;
            }
        } else {
            self.candidate = worst;
            self.streak = 1;
        }

        HealthReport {
            state: self.state,
            statuses,
            notes,
        }
    }

    /// [`SloEngine::ingest`] followed by [`SloEngine::evaluate`].
    pub fn observe(&mut self, now_s: f64, snap: &MetricsSnapshot) -> HealthReport {
        self.ingest(now_s, snap);
        self.evaluate(now_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn snap_with(total: u64, errors: u64) -> MetricsSnapshot {
        let r = Registry::default();
        r.counter("req.total").add(total);
        r.counter("req.errors").add(errors);
        r.snapshot()
    }

    fn spec() -> SloSpec {
        SloSpec::availability("avail", "req.total", "req.errors", 0.99)
    }

    #[test]
    fn healthy_under_budget() {
        let mut eng = SloEngine::new(vec![spec()]);
        for i in 0..100u64 {
            // 1000 req per tick, none failing.
            let report = eng.observe(i as f64 * 60.0, &snap_with(i * 1000, 0));
            assert_eq!(report.state, HealthState::Healthy, "tick {i}");
        }
    }

    #[test]
    fn sustained_burn_pages_and_recovery_is_hysteretic() {
        let mut eng = SloEngine::new(vec![spec()]);
        // Budget 1%; 30% errors = burn 30 ≥ 14.4 on both windows.
        let mut t = 0.0;
        let mut report = None;
        for i in 0..80u64 {
            t = i as f64 * 60.0;
            report = Some(eng.observe(t, &snap_with(i * 1000, i * 300)));
        }
        assert_eq!(report.unwrap().state, HealthState::Unhealthy);
        // Stop the bleeding: totals keep growing, errors freeze. The
        // state must not flap back in one clean evaluation.
        let (frozen_total, frozen_err) = (80_000u64, 24_000u64);
        let mut clean = 0;
        let mut states = Vec::new();
        for i in 1..=130u64 {
            let s = snap_with(frozen_total + i * 1000, frozen_err);
            let r = eng.observe(t + i as f64 * 60.0, &s);
            states.push(r.state);
            if r.state == HealthState::Healthy {
                clean += 1;
            }
        }
        assert_eq!(
            *states.last().unwrap(),
            HealthState::Healthy,
            "must eventually recover: {states:?}"
        );
        assert!(clean > 0);
        // The first post-incident evaluations stay non-healthy even
        // though the short window clears quickly.
        assert_ne!(states[0], HealthState::Healthy, "no instant recovery");
    }

    #[test]
    fn short_spike_alone_does_not_page() {
        let mut eng = SloEngine::new(vec![spec()]);
        // One hour of clean traffic...
        for i in 0..60u64 {
            eng.observe(i as f64 * 60.0, &snap_with(i * 1000, 0));
        }
        // ...then five bad minutes: the long window stays under page.
        let mut worst = HealthState::Healthy;
        for i in 60..65u64 {
            let r = eng.observe(i as f64 * 60.0, &snap_with(i * 1000, (i - 59) * 300));
            worst = worst.max(r.state);
        }
        assert!(
            worst < HealthState::Unhealthy,
            "short spike must not page (got {worst:?})"
        );
    }

    #[test]
    fn latency_objective_counts_slow_samples() {
        let r = Registry::default();
        let h = r.histogram("verify.seconds");
        let mut eng = SloEngine::new(vec![SloSpec::latency(
            "verify-latency",
            "verify.seconds",
            0.050,
            0.99,
        )]);
        for i in 1..=70u64 {
            // Half the traffic is 10× over the 50 ms objective, against
            // a 1% slow-budget: burn rate 50×, far past the page line.
            for _ in 0..10 {
                h.record_secs(0.005);
                h.record_secs(0.500);
            }
            let report = eng.observe(i as f64 * 60.0, &r.snapshot());
            if i > 65 {
                assert_eq!(
                    report.state,
                    HealthState::Unhealthy,
                    "50% slow vs 1% budget must page"
                );
            }
        }
    }

    #[test]
    fn worker_panics_degrade() {
        let r = Registry::default();
        let mut eng = SloEngine::new(vec![]);
        let mut report = eng.observe(0.0, &r.snapshot());
        assert_eq!(report.state, HealthState::Healthy);
        r.counter(PANIC_COUNTER).inc();
        report = eng.observe(60.0, &r.snapshot());
        assert_eq!(report.state, HealthState::Degraded);
        assert!(report.notes.iter().any(|n| n.contains("panic")));
    }

    #[test]
    fn zero_traffic_is_healthy() {
        let mut eng = SloEngine::new(vec![spec()]);
        for i in 0..10 {
            let report = eng.observe(i as f64 * 60.0, &snap_with(0, 0));
            assert_eq!(report.state, HealthState::Healthy);
        }
    }

    #[test]
    fn burn_rate_math_edges() {
        assert_eq!(burn_rate(0, 0, 0.01), 0.0);
        assert!((burn_rate(1000, 10, 0.01) - 1.0).abs() < 1e-12);
        assert!((burn_rate(1000, 1000, 0.01) - 100.0).abs() < 1e-9);
        // Errors clamp to total: merged rings can momentarily over-read.
        assert!((burn_rate(10, 20, 0.5) - 2.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use magshield_simkit::prop::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Burn rate is monotone in errors and antitone in budget.
        #[test]
        fn burn_rate_monotone(total in 1u64..100_000, e1 in 0u64..100_000, e2 in 0u64..100_000) {
            let (lo, hi) = (e1.min(e2), e1.max(e2));
            prop_assert!(burn_rate(total, hi, 0.01) >= burn_rate(total, lo, 0.01));
            prop_assert!(burn_rate(total, lo, 0.001) >= burn_rate(total, lo, 0.01));
        }

        /// classify_burn is monotone: more burn never reports healthier.
        #[test]
        fn classify_monotone(s1 in 0.0f64..40.0, l1 in 0.0f64..40.0, ds in 0.0f64..40.0, dl in 0.0f64..40.0) {
            let a = classify_burn(BurnRate { short: s1, long: l1 }, 6.0, 14.4);
            let b = classify_burn(
                BurnRate { short: s1 + ds, long: l1 + dl },
                6.0,
                14.4,
            );
            prop_assert!(b >= a);
        }

        /// No false-healthy: sustained error traffic at ≥ PAGE_BURN ×
        /// budget over the whole long window must evaluate Unhealthy.
        #[test]
        fn sustained_burn_never_reports_healthy(
            err_permille in 200u64..1000,
            per_tick in 100u64..5000,
            ticks in 70u64..200,
        ) {
            // budget 1% and page 14.4 → any error rate ≥ 14.4% pages;
            // 20%+ sustained is well past it.
            let spec = SloSpec::availability("a", "t", "e", 0.99);
            let mut eng = SloEngine::new(vec![spec]);
            let mut report = None;
            for i in 0..ticks {
                let total = i * per_tick;
                let errors = total * err_permille / 1000;
                let mut snap = MetricsSnapshot::default();
                snap.counters.insert("t".to_string(), total);
                snap.counters.insert("e".to_string(), errors);
                report = Some(eng.observe(i as f64 * 60.0, &snap));
            }
            prop_assert_eq!(report.unwrap().state, HealthState::Unhealthy);
        }

        /// Windows see through ring pruning: the long-window delta never
        /// exceeds the true cumulative total.
        #[test]
        fn window_delta_bounded(per_tick in 1u64..1000, ticks in 2u64..120) {
            let spec = SloSpec::availability("a", "t", "e", 0.99);
            let mut eng = SloEngine::new(vec![spec]);
            for i in 0..ticks {
                let mut snap = MetricsSnapshot::default();
                snap.counters.insert("t".to_string(), i * per_tick);
                snap.counters.insert("e".to_string(), 0);
                let report = eng.observe(i as f64 * 60.0, &snap);
                prop_assert_eq!(report.state, HealthState::Healthy);
                prop_assert!(report.statuses[0].burn.short <= 0.0 + 1e-12);
            }
        }
    }
}

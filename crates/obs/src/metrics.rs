//! Lock-cheap metrics: counters, gauges and log-scale latency histograms.
//!
//! A [`Registry`] maps dot-separated names to handles. Registration takes
//! a short std lock; every handle is an `Arc`-backed atomic, so
//! the hot path (increment, record) is a relaxed atomic op with no lock
//! and no allocation. Handles are cheap to clone and remain connected to
//! the registry: workers keep their own clones, snapshots see every
//! update.

use crate::labels::{Labels, MAX_CARDINALITY};
use crate::sync::{lock, read, write};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Number of histogram buckets.
pub const BUCKETS: usize = 64;
/// Lower bound of bucket 1 (seconds). Bucket 0 catches everything below.
pub const MIN_BUCKET_S: f64 = 1e-6;
/// Geometric growth factor between bucket boundaries (√2 per bucket, i.e.
/// two buckets per octave). 64 buckets span 1 µs … ≈ 4800 s.
pub const GROWTH: f64 = std::f64::consts::SQRT_2;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, in-flight requests, …).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Replaces the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log-scale latency histogram.
///
/// Buckets are geometric: bucket `i ≥ 1` covers
/// `[MIN_BUCKET_S·GROWTH^(i-1)·GROWTH, …)` — equivalently, boundaries at
/// `MIN_BUCKET_S · GROWTH^i`. Bucket 0 catches every value below
/// [`MIN_BUCKET_S`]; the last bucket absorbs overflow (the true maximum is
/// tracked exactly on the side). Recording is three relaxed atomic ops.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

/// Exemplars retained per histogram window (the N slowest samples).
pub const MAX_EXEMPLARS: usize = 8;

/// A slow sample annotated with the trace it came from.
///
/// Exemplars link a histogram's tail to per-session evidence: the
/// `trace_id` is the session label stamped on the matching
/// [`crate::PipelineTrace`] JSONL record, so a p99 spike can be chased
/// to the exact session that caused it. The value is kept in integer
/// nanoseconds so snapshots stay `Eq` and merges stay exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Session / trace identifier of the slow sample.
    pub trace_id: String,
    /// Observed value, nanoseconds.
    pub value_ns: u64,
    /// Histogram bucket the sample landed in.
    pub bucket: u32,
}

impl Exemplar {
    /// Observed value in seconds.
    pub fn value_s(&self) -> f64 {
        self.value_ns as f64 / 1e9
    }
}

/// Keeps the [`MAX_EXEMPLARS`] slowest samples of the current window.
#[derive(Debug, Default)]
struct ExemplarWindow {
    slots: Vec<Exemplar>,
}

impl ExemplarWindow {
    /// Inserts if the sample belongs in the top set; returns the new
    /// admission floor (the smallest retained value once full).
    fn offer(&mut self, ex: Exemplar) -> u64 {
        if self.slots.len() < MAX_EXEMPLARS {
            self.slots.push(ex);
        } else if let Some(min_at) = (0..self.slots.len())
            .min_by_key(|&i| self.slots[i].value_ns)
            .filter(|&i| self.slots[i].value_ns < ex.value_ns)
        {
            self.slots[min_at] = ex;
        }
        if self.slots.len() < MAX_EXEMPLARS {
            0
        } else {
            self.slots.iter().map(|e| e.value_ns).min().unwrap_or(0)
        }
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    /// Lock-free admission gate: samples below this value cannot enter
    /// the exemplar window, so the common case costs one relaxed load.
    exemplar_floor_ns: AtomicU64,
    exemplars: Mutex<ExemplarWindow>,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            exemplar_floor_ns: AtomicU64::new(0),
            exemplars: Mutex::new(ExemplarWindow::default()),
        }
    }
}

/// Bucket index for a value in seconds.
fn bucket_index(secs: f64) -> usize {
    // NaN, negatives and underflow all land in bucket 0.
    if secs.is_nan() || secs <= MIN_BUCKET_S {
        return 0;
    }
    // log_GROWTH(secs / MIN) = 2·log2(secs / MIN) for GROWTH = √2.
    let idx = (2.0 * (secs / MIN_BUCKET_S).log2()).floor();
    // +1: bucket 0 is reserved for values below MIN_BUCKET_S.
    ((idx as usize).saturating_add(1)).min(BUCKETS - 1)
}

/// Lower boundary (seconds) of bucket `i` (0 for bucket 0).
fn bucket_lower(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        MIN_BUCKET_S * GROWTH.powi(i as i32 - 1)
    }
}

/// Upper boundary (seconds) of bucket `i`.
fn bucket_upper(i: usize) -> f64 {
    MIN_BUCKET_S * GROWTH.powi(i as i32)
}

impl Histogram {
    /// Records a duration.
    pub fn record(&self, d: Duration) {
        self.record_secs(d.as_secs_f64());
    }

    /// Records a value in seconds. Negative and non-finite values are
    /// clamped to zero (they land in bucket 0 and do not poison the sum).
    pub fn record_secs(&self, secs: f64) {
        let secs = if secs.is_finite() && secs > 0.0 {
            secs
        } else {
            0.0
        };
        let ns = (secs * 1e9).round() as u64; // saturating float→int cast
        let core = &*self.0;
        core.buckets[bucket_index(secs)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum_ns.fetch_add(ns, Ordering::Relaxed);
        core.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records a value in seconds and offers it to the exemplar window.
    ///
    /// Only samples at least as slow as the current window floor pay for
    /// the exemplar lock; everything else adds a single relaxed load on
    /// top of [`Histogram::record_secs`]. The window keeps the
    /// [`MAX_EXEMPLARS`] slowest samples seen since the last
    /// [`Histogram::scrape`].
    pub fn record_secs_with_exemplar(&self, secs: f64, trace_id: &str) {
        self.record_secs(secs);
        let secs = if secs.is_finite() && secs > 0.0 {
            secs
        } else {
            0.0
        };
        let ns = (secs * 1e9).round() as u64;
        let core = &*self.0;
        if ns >= core.exemplar_floor_ns.load(Ordering::Relaxed) {
            let mut window = lock(&core.exemplars);
            let floor = window.offer(Exemplar {
                trace_id: trace_id.to_string(),
                value_ns: ns,
                bucket: bucket_index(secs) as u32,
            });
            core.exemplar_floor_ns.store(floor, Ordering::Relaxed);
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting. (Buckets are read one by
    /// one without a global lock; concurrent recording may skew a bucket
    /// by the few events that land mid-read, which reporting tolerates.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.copy(false)
    }

    /// [`Histogram::snapshot`] that also drains the exemplar window,
    /// starting a fresh one, so each window's slowest samples are
    /// reported by exactly one scrape. The counts are left as they are.
    pub fn scrape(&self) -> HistogramSnapshot {
        self.copy(true)
    }

    fn copy(&self, drain: bool) -> HistogramSnapshot {
        let core = &*self.0;
        let mut exemplars = {
            let mut window = lock(&core.exemplars);
            if drain {
                core.exemplar_floor_ns.store(0, Ordering::Relaxed);
                std::mem::take(&mut window.slots)
            } else {
                window.slots.clone()
            }
        };
        sort_exemplars(&mut exemplars);
        HistogramSnapshot {
            buckets: core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: core.count.load(Ordering::Relaxed),
            sum_ns: core.sum_ns.load(Ordering::Relaxed),
            max_ns: core.max_ns.load(Ordering::Relaxed),
            exemplars,
        }
    }
}

/// Slowest first; ties broken by trace id so ordering is deterministic.
fn sort_exemplars(exemplars: &mut [Exemplar]) {
    exemplars.sort_by(|a, b| {
        b.value_ns
            .cmp(&a.value_ns)
            .then_with(|| a.trace_id.cmp(&b.trace_id))
    });
}

/// An owned, serializable copy of a [`Histogram`].
///
/// The sum and max are kept in integer nanoseconds so that
/// [`HistogramSnapshot::merge`] is exactly associative (floating-point
/// addition is not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total recorded values (= sum of `buckets`).
    pub count: u64,
    /// Sum of recorded values, nanoseconds.
    pub sum_ns: u64,
    /// Largest recorded value, nanoseconds (exact, not bucketed).
    pub max_ns: u64,
    /// Slowest samples of the current exemplar window, slowest first
    /// (at most [`MAX_EXEMPLARS`]). Absent in pre-exemplar snapshots.
    pub exemplars: Vec<Exemplar>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            exemplars: Vec::new(),
        }
    }
}

impl HistogramSnapshot {
    /// Estimated quantile `q ∈ [0, 1]` in seconds: walk the cumulative
    /// bucket counts to the target rank, interpolate linearly within the
    /// bucket, clamp to the exact observed maximum. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= target {
                let lo = bucket_lower(i);
                let hi = bucket_upper(i);
                let frac = (target - cum) as f64 / n as f64;
                return (lo + (hi - lo) * frac).min(self.max_s());
            }
            cum += n;
        }
        self.max_s()
    }

    /// Median (seconds).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile (seconds).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile (seconds).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Exact maximum (seconds).
    pub fn max_s(&self) -> f64 {
        self.max_ns as f64 / 1e9
    }

    /// Samples known to be at or under `threshold_s`, at bucket
    /// resolution: only buckets entirely below the threshold count, so
    /// the straddling bucket's samples are treated as over — a
    /// conservative bound for latency objectives (never reports a
    /// violating distribution as compliant).
    pub fn count_under(&self, threshold_s: f64) -> u64 {
        let mut under = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if bucket_upper(i) <= threshold_s {
                under += n;
            } else {
                break;
            }
        }
        under
    }

    /// Mean (seconds); 0 when empty.
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / 1e9 / self.count as f64
        }
    }

    /// Merges another snapshot into this one (bucket-wise addition).
    /// Exactly associative and commutative.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ (cannot happen for snapshots
    /// produced by this crate, which all use [`BUCKETS`] buckets).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket layouts differ"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        // Top-N of a union is associative, so merged exemplar sets are
        // order-independent like the numeric fields.
        self.exemplars.extend(other.exemplars.iter().cloned());
        sort_exemplars(&mut self.exemplars);
        self.exemplars.truncate(MAX_EXEMPLARS);
    }

    /// `merge` as a pure function.
    #[must_use]
    pub fn merged(mut self, other: &HistogramSnapshot) -> HistogramSnapshot {
        self.merge(other);
        self
    }
}

/// A named collection of metrics. Cloning is shallow: clones share the
/// same underlying metrics (the registry is an `Arc`).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    /// Distinct label sets admitted per family name, across every vec
    /// handle, so the cardinality cap is global and exact.
    families: Mutex<HashMap<String, HashSet<Labels>>>,
    label_overflows: Counter,
}

impl Registry {
    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = read(&self.inner.counters).get(name) {
            return c.clone();
        }
        write(&self.inner.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = read(&self.inner.gauges).get(name) {
            return g.clone();
        }
        write(&self.inner.gauges)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = read(&self.inner.histograms).get(name) {
            return h.clone();
        }
        write(&self.inner.histograms)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The labeled counter family `name`: call
    /// [`CounterVec::with`] to resolve one series. Series registrations
    /// land in this registry under the canonical `name{k="v"}` key.
    pub fn counter_vec(&self, name: &str) -> CounterVec {
        CounterVec {
            name: name.to_string(),
            registry: self.clone(),
            cache: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// The labeled histogram family `name`.
    pub fn histogram_vec(&self, name: &str) -> HistogramVec {
        HistogramVec {
            name: name.to_string(),
            registry: self.clone(),
            cache: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// One-shot resolution of a labeled counter (registers on first
    /// use). Hot paths should hold a [`CounterVec`] — or the resolved
    /// [`Counter`] itself — instead of calling this per event.
    pub fn counter_with(&self, name: &str, labels: &Labels) -> Counter {
        let admitted = self.admit_labels(name, labels);
        self.counter(&admitted.key_for(name))
    }

    /// One-shot resolution of a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &Labels) -> Gauge {
        let admitted = self.admit_labels(name, labels);
        self.gauge(&admitted.key_for(name))
    }

    /// One-shot resolution of a labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &Labels) -> Histogram {
        let admitted = self.admit_labels(name, labels);
        self.histogram(&admitted.key_for(name))
    }

    /// How many label sets were routed to the overflow series because a
    /// family hit [`MAX_CARDINALITY`].
    pub fn label_overflows(&self) -> u64 {
        self.inner.label_overflows.get()
    }

    /// Admits a label set into `name`'s family, returning the set the
    /// series is actually stored under (the overflow set once the
    /// family is at [`MAX_CARDINALITY`]).
    fn admit_labels(&self, name: &str, labels: &Labels) -> Labels {
        if labels.is_empty() {
            return labels.clone();
        }
        let mut families = lock(&self.inner.families);
        let seen = families.entry(name.to_string()).or_default();
        if seen.contains(labels) {
            return labels.clone();
        }
        if seen.len() < MAX_CARDINALITY {
            seen.insert(labels.clone());
            return labels.clone();
        }
        self.inner.label_overflows.inc();
        let overflow = labels.to_overflow();
        seen.insert(overflow.clone());
        overflow
    }

    /// A serializable snapshot of every registered metric. Non-draining:
    /// every exemplar window is left as it is.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.copy(Histogram::snapshot)
    }

    /// [`Registry::snapshot`] that drains each histogram's exemplar
    /// window after copying it ([`Histogram::scrape`]): what a metrics
    /// scrape reports, so each scrape's exemplars are the slowest
    /// samples since the previous scrape.
    pub fn scrape(&self) -> MetricsSnapshot {
        self.copy(Histogram::scrape)
    }

    fn copy(&self, histogram: fn(&Histogram) -> HistogramSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: read(&self.inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: read(&self.inner.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), histogram(v)))
                .collect(),
        }
    }
}

/// A labeled counter family, interning one [`Counter`] handle per label
/// set.
///
/// The fast path for a previously seen label set is a shared-lock hash
/// lookup plus a handle clone (two atomic ops); no strings are built
/// and the registry lock is untouched. First use of a label set takes
/// the family's write lock once to register `name{k="v",…}`.
#[derive(Debug, Clone)]
pub struct CounterVec {
    name: String,
    registry: Registry,
    cache: Arc<RwLock<HashMap<Labels, Counter>>>,
}

/// A labeled histogram family; see [`CounterVec`].
#[derive(Debug, Clone)]
pub struct HistogramVec {
    name: String,
    registry: Registry,
    cache: Arc<RwLock<HashMap<Labels, Histogram>>>,
}

macro_rules! impl_vec_with {
    ($vec:ident, $handle:ident, $resolve:ident) => {
        impl $vec {
            /// The series for `labels`, interned after first use.
            pub fn with(&self, labels: &Labels) -> $handle {
                if let Some(h) = read(&self.cache).get(labels) {
                    return h.clone();
                }
                let mut cache = write(&self.cache);
                if let Some(h) = cache.get(labels) {
                    return h.clone();
                }
                let handle = self.registry.$resolve(&self.name, labels);
                cache.insert(labels.clone(), handle.clone());
                handle
            }

            /// The family name.
            pub fn name(&self) -> &str {
                &self.name
            }
        }
    };
}

impl_vec_with!(CounterVec, Counter, counter_with);
impl_vec_with!(HistogramVec, Histogram, histogram_with);

/// A point-in-time, serializable copy of a [`Registry`].
///
/// Labeled series appear under their canonical `name{k="v",…}` keys
/// next to flat metrics; [`crate::labels::parse_metric_key`] splits a
/// key back into name and pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Sum of a counter family across all label sets (including the
    /// flat series of the same name, if registered).
    pub fn counter_family_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| crate::labels::parse_metric_key(k).0 == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Bucket-wise merge of a histogram family across all label sets.
    pub fn histogram_family_merged(&self, name: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for (k, h) in &self.histograms {
            if crate::labels::parse_metric_key(k).0 == name {
                out.merge(h);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::default();
        let c = r.counter("hits");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("hits").get(), 5, "handles share state by name");
        let g = r.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(r.gauge("depth").get(), -3);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut prev = 0;
        for e in -80..60 {
            let v = 10f64.powf(e as f64 / 8.0);
            let i = bucket_index(v);
            assert!(i >= prev, "index must be monotone in the value");
            assert!(i < BUCKETS);
            prev = i;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e12), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_contiguous() {
        for i in 0..BUCKETS - 1 {
            let hi = bucket_upper(i);
            let lo_next = bucket_lower(i + 1);
            assert!(
                (hi - lo_next).abs() < 1e-12 * hi.max(1e-12),
                "bucket {i} upper {hi} != bucket {} lower {lo_next}",
                i + 1
            );
        }
    }

    #[test]
    fn values_land_inside_their_bucket() {
        for e in -70..50 {
            let v = 2f64.powf(e as f64 / 4.0) * 1e-6;
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i) * (1.0 + 1e-12), "{v} above bucket {i}");
            if i > 0 {
                assert!(v >= bucket_lower(i) * (1.0 - 1e-12), "{v} below bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_percentiles_on_known_distribution() {
        let h = Histogram::default();
        // 1..=100 ms: p50 ≈ 50 ms, p99 ≈ 99 ms, max = 100 ms exactly.
        for ms in 1..=100 {
            h.record_secs(ms as f64 / 1e3);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.buckets.iter().sum::<u64>(), 100);
        let p50 = s.p50();
        assert!((0.035..=0.075).contains(&p50), "p50 {p50}");
        let p99 = s.p99();
        assert!((0.07..=0.1).contains(&p99), "p99 {p99}");
        assert!((s.max_s() - 0.1).abs() < 1e-9);
        assert!((s.mean_s() - 0.0505).abs() < 1e-6, "mean {}", s.mean_s());
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.max_s(), 0.0);
        assert_eq!(s.mean_s(), 0.0);
    }

    #[test]
    fn single_value_quantiles_clamp_to_max() {
        let h = Histogram::default();
        h.record_secs(0.0123);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = s.quantile(q);
            assert!(v <= 0.0123 + 1e-12, "q{q} = {v}");
            assert!(v > 0.008, "q{q} = {v} too far below the one sample");
        }
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record_secs(0.001);
        b.record_secs(0.004);
        b.record_secs(2.0);
        let merged = a.snapshot().merged(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.buckets.iter().sum::<u64>(), 3);
        assert!((merged.max_s() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn registry_snapshot_lists_everything() {
        let r = Registry::default();
        r.counter("a").inc();
        r.gauge("b").set(2);
        r.histogram("c").record_secs(0.5);
        let s = r.snapshot();
        assert_eq!(s.counters["a"], 1);
        assert_eq!(s.gauges["b"], 2);
        assert_eq!(s.histograms["c"].count, 1);
    }

    #[test]
    fn labeled_series_share_state_across_handles() {
        let r = Registry::default();
        let vec_a = r.counter_vec("req.total");
        let vec_b = r.counter_vec("req.total");
        let l = Labels::new().policy("full").stage("sld");
        vec_a.with(&l).add(3);
        vec_b.with(&l).add(4);
        assert_eq!(
            r.snapshot().counters[&l.key_for("req.total")],
            7,
            "two vec handles for the same family must resolve to one series"
        );
        assert_eq!(r.snapshot().counter_family_total("req.total"), 7);
    }

    #[test]
    fn label_cardinality_overflow_routes_to_overflow_series() {
        let r = Registry::default();
        let vec = r.counter_vec("cardinality.bomb");
        for i in 0..(MAX_CARDINALITY + 10) {
            vec.with(&Labels::new().generation(i as u64)).inc();
        }
        let snap = r.snapshot();
        assert_eq!(
            snap.counter_family_total("cardinality.bomb"),
            (MAX_CARDINALITY + 10) as u64,
            "overflow must reroute, not drop"
        );
        let overflow_key = Labels::new()
            .generation(0)
            .to_overflow()
            .key_for("cardinality.bomb");
        assert_eq!(snap.counters[&overflow_key], 10);
        assert_eq!(r.label_overflows(), 10);
        // The family never exceeds the cap plus the overflow series.
        let series = snap
            .counters
            .keys()
            .filter(|k| crate::labels::parse_metric_key(k).0 == "cardinality.bomb")
            .count();
        assert!(series <= MAX_CARDINALITY + 1, "{series} series");
    }

    #[test]
    fn concurrent_labeled_increments_merge_exactly() {
        let r = Registry::default();
        let vec = r.counter_vec("conc.total");
        let hist = r.histogram_vec("conc.seconds");
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let vec = vec.clone();
                let hist = hist.clone();
                std::thread::spawn(move || {
                    let labels = Labels::new()
                        .policy(if t % 2 == 0 { "full" } else { "short_circuit" })
                        .stage(&format!("s{}", t / 2));
                    let c = vec.with(&labels);
                    let h = hist.with(&labels);
                    for i in 0..1000 {
                        c.inc();
                        h.record_secs(1e-4 * (i % 7 + 1) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter_family_total("conc.total"), 8_000);
        assert_eq!(snap.histogram_family_merged("conc.seconds").count, 8_000);
        // 8 threads over 2 policies × 4 stages = exactly 8 distinct series.
        let series = snap
            .counters
            .keys()
            .filter(|k| crate::labels::parse_metric_key(k).0 == "conc.total")
            .count();
        assert_eq!(series, 8);
    }

    #[test]
    fn exemplars_keep_slowest_samples_and_drain() {
        let h = Histogram::default();
        for i in 1..=40u64 {
            h.record_secs_with_exemplar(i as f64 * 1e-3, &format!("sess-{i}"));
        }
        let snap = h.snapshot();
        assert_eq!(snap.exemplars.len(), MAX_EXEMPLARS);
        assert_eq!(snap.exemplars[0].trace_id, "sess-40");
        assert_eq!(snap.exemplars[0].value_ns, 40_000_000);
        let slowest: Vec<u64> = snap.exemplars.iter().map(|e| e.value_ns).collect();
        assert!(
            slowest.windows(2).all(|w| w[0] >= w[1]),
            "exemplars must be sorted slowest first: {slowest:?}"
        );
        assert!(slowest.iter().all(|&ns| ns >= 33_000_000));
        // A scrape drains the window after copying it; the histogram
        // itself is untouched.
        assert_eq!(h.scrape(), snap);
        assert!(h.snapshot().exemplars.is_empty());
        assert_eq!(h.count(), 40);
        // The next window admits fast samples again after the drain.
        h.record_secs_with_exemplar(1e-6, "after-drain");
        assert_eq!(h.snapshot().exemplars[0].trace_id, "after-drain");
    }

    #[test]
    fn exemplar_merge_is_associative_top_n() {
        let mk = |id: &str, ns: u64| HistogramSnapshot {
            exemplars: vec![Exemplar {
                trace_id: id.to_string(),
                value_ns: ns,
                bucket: 3,
            }],
            ..Default::default()
        };
        let parts: Vec<HistogramSnapshot> =
            (0..20).map(|i| mk(&format!("t{i}"), i * 100)).collect();
        let left = parts
            .iter()
            .fold(HistogramSnapshot::default(), |acc, p| acc.merged(p));
        let right = parts
            .iter()
            .rev()
            .fold(HistogramSnapshot::default(), |acc, p| acc.merged(p));
        assert_eq!(left.exemplars, right.exemplars);
        assert_eq!(left.exemplars.len(), MAX_EXEMPLARS);
        assert_eq!(left.exemplars[0].trace_id, "t19");
    }
}

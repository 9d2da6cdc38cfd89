#![warn(missing_docs)]

//! # magshield-obs
//!
//! The observability substrate for the magshield workspace: where a
//! verdict's milliseconds go, how deep the server queue runs, and what
//! each cascade component decided — as data, not log lines.
//!
//! Six pillars, all on std alone:
//!
//! 1. [`metrics`] — a lock-cheap [`metrics::Registry`] of named
//!    [`metrics::Counter`]s, [`metrics::Gauge`]s and fixed-bucket
//!    log-scale [`metrics::Histogram`]s with p50/p95/p99/max quantile
//!    estimation. Handles are `Arc`-backed atomics: registration takes a
//!    short lock once, the hot path is a relaxed atomic op. Histograms
//!    additionally retain [`metrics::Exemplar`]s — the trace IDs of the
//!    slowest samples per scrape window.
//! 2. [`labels`] — low-cardinality [`labels::Labels`] sets from a fixed
//!    key vocabulary, with `CounterVec`/`HistogramVec`
//!    interned fast paths and a per-family cardinality cap.
//! 3. [`slo`] — declarative [`slo::SloSpec`] objectives evaluated by a
//!    multi-window burn-rate [`slo::SloEngine`] driving a
//!    [`slo::HealthState`] machine.
//! 4. [`export`] — text exposition and JSONL rendering of snapshots,
//!    with size-capped rotation and a background flusher; its
//!    [`export::JsonWriter`] writes every JSON line the workspace emits.
//! 5. [`span`] — an RAII [`span::Span`] timing API
//!    (`Span::enter(collector, name) … drop`) with a bounded, thread-safe
//!    [`span::TraceCollector`] recording nested stage timings and
//!    structured key–value events, exportable as JSONL.
//! 6. [`trace`] — the [`trace::PipelineTrace`] pipeline-event type:
//!    per session, each cascade component's decision, attack score,
//!    threshold margin and duration.
//!
//! [`sync`] holds the poison-recovering lock accessors every crate's
//! shared state goes through.
//!
//! # Naming scheme
//!
//! Metric names are dot-separated `subsystem.object.unit` strings, e.g.
//! `pipeline.distance.seconds`, `server.queue.depth`,
//! `server.worker.3.processed`. Span names follow the cascade component
//! identifiers: `verify` is the root, `distance`, `sld`, `sound_field`,
//! `loudspeaker`, `speaker_id` its children. See DESIGN.md §7.
//!
//! # Example
//!
//! ```
//! use magshield_obs::metrics::Registry;
//! use magshield_obs::span::{Span, TraceCollector};
//!
//! let registry = Registry::default();
//! let collector = TraceCollector::default();
//!
//! let hist = registry.histogram("pipeline.session.seconds");
//! {
//!     let mut span = Span::enter(&collector, "verify");
//!     let mut child = span.child("distance");
//!     child.event("attack_score", "0.42");
//!     drop(child);
//!     hist.record_secs(span.elapsed().as_secs_f64());
//! }
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.histograms["pipeline.session.seconds"].count, 1);
//! assert_eq!(collector.records().len(), 2);
//! ```

pub mod export;
pub mod labels;
pub mod metrics;
pub mod slo;
pub mod span;
pub mod sync;
pub mod trace;

pub use export::{
    render_jsonl_record, render_text, JsonWriter, MetricsFlusher, RotatingJsonlWriter,
    DEFAULT_MAX_JSONL_BYTES,
};
pub use labels::{parse_metric_key, Labels, LABEL_KEYS, MAX_CARDINALITY};
pub use metrics::{
    Counter, CounterVec, Exemplar, Gauge, Histogram, HistogramSnapshot, HistogramVec,
    MetricsSnapshot, Registry, MAX_EXEMPLARS,
};
pub use slo::{BurnRate, HealthReport, HealthState, Objective, SloEngine, SloSpec, SloStatus};
pub use span::{Span, SpanEvent, SpanRecord, TraceCollector};
pub use trace::{ComponentTrace, PipelineTrace};

#![warn(missing_docs)]

//! # magshield-obs
//!
//! The observability substrate for the magshield workspace: where a
//! verdict's milliseconds go, how deep the server queue runs, and what
//! each cascade component decided — as data, not log lines.
//!
//! Five pillars, all on std alone:
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
//! 4. [`export`] — the text exposition of snapshots, size-capped JSONL
//!    rotation, and [`export::JsonWriter`], which writes every JSON line
//!    the workspace emits.
//! 5. [`trace`] — the [`trace::PipelineTrace`] trace line: per session,
//!    each cascade component's decision, attack score, threshold margin
//!    and duration.
//!
//! [`sync`] holds the poison-recovering lock accessors every crate's
//! shared state goes through.
//!
//! What a served verification records is its metric samples (with the
//! session's trace id as the exemplar of a slow one) and its verdict;
//! a trace line is built only where a caller asks for it.
//!
//! # Naming scheme
//!
//! Metric names are dot-separated `subsystem.object.unit` strings, e.g.
//! `pipeline.session.seconds`, `server.queue.depth`,
//! `server.worker.3.processed`; per-stage series carry the cascade
//! component identifier (`distance`, `sld`, `sound_field`,
//! `loudspeaker`, `speaker_id`) as their `stage` label. See DESIGN.md §7.
//!
//! # Example
//!
//! ```
//! use magshield_obs::labels::Labels;
//! use magshield_obs::metrics::Registry;
//!
//! let registry = Registry::default();
//! let stage_seconds = registry.histogram_vec("pipeline.stage.seconds");
//! stage_seconds
//!     .with(&Labels::new().stage("distance").policy("full"))
//!     .record_secs_with_exemplar(0.004, "speaker-1");
//!
//! let snap = registry.snapshot();
//! let merged = snap.histogram_family_merged("pipeline.stage.seconds");
//! assert_eq!(merged.count, 1);
//! assert_eq!(merged.exemplars[0].trace_id, "speaker-1");
//! ```

pub mod export;
pub mod labels;
pub mod metrics;
pub mod slo;
pub mod sync;
pub mod trace;

pub use export::{render_text, JsonWriter, RotatingJsonlWriter, DEFAULT_MAX_JSONL_BYTES};
pub use labels::{parse_metric_key, Labels, LABEL_KEYS, MAX_CARDINALITY};
pub use metrics::{
    Counter, CounterVec, Exemplar, Gauge, Histogram, HistogramSnapshot, HistogramVec,
    MetricsSnapshot, Registry, MAX_EXEMPLARS,
};
pub use slo::{BurnRate, HealthReport, HealthState, Objective, SloEngine, SloSpec, SloStatus};
pub use trace::{ComponentTrace, PipelineTrace};

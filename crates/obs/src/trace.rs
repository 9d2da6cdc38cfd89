//! Per-session pipeline event traces.
//!
//! A [`PipelineTrace`] is the structured answer to "what did the cascade
//! decide, and where did the milliseconds go" for one verification
//! session: one [`ComponentTrace`] per cascade stage with its decision,
//! attack score, threshold margin and duration. Traces serialize to JSON
//! (one line per session → JSONL files under `results/logs/`), the format
//! the paper-style latency experiments and MagLive-class liveness systems
//! report as first-class output. The serving path never builds one: a
//! trace line is a view of a verdict plus the cascade's per-stage
//! timings, assembled only by `DefenseSystem::verify_traced`.

use crate::export::JsonWriter;
use std::path::Path;

/// One cascade component's contribution to a session trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentTrace {
    /// Component name: `distance`, `sld`, `sound_field`, `loudspeaker`
    /// or `speaker_id`.
    pub component: String,
    /// Whether the component passed at the nominal boundary.
    pub passed: bool,
    /// Normalized attack score (1.0 = decision boundary, < 1 passes).
    pub attack_score: f64,
    /// Distance to the boundary, `1.0 − attack_score`. Positive margins
    /// pass; the smallest margin is the session's weakest link.
    pub threshold_margin: f64,
    /// Wall-clock compute time of the component, seconds (clamped to be
    /// strictly positive).
    pub duration_s: f64,
    /// Human-readable detail from the component.
    pub detail: String,
    /// Whether the executor short-circuited past this stage instead of
    /// running it (score, margin and duration are then all zero and
    /// `detail` names the stage whose rejection caused the skip).
    pub skipped: bool,
}

/// A complete per-session pipeline trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineTrace {
    /// Session label (e.g. the claimed speaker id or an experiment tag).
    pub session: String,
    /// Final cascade decision at the nominal boundary.
    pub accepted: bool,
    /// End-to-end pipeline wall-clock time, seconds.
    pub total_s: f64,
    /// Per-component traces, cascade order.
    pub components: Vec<ComponentTrace>,
}

impl PipelineTrace {
    /// The trace of a specific component, if that stage ran.
    pub fn component(&self, name: &str) -> Option<&ComponentTrace> {
        self.components.iter().find(|c| c.component == name)
    }

    /// Serializes the trace as a single JSON line: the fields in
    /// declaration order, components as an array of objects.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object()
            .key("session")
            .str(&self.session)
            .key("accepted")
            .bool(self.accepted)
            .key("total_s")
            .f64(self.total_s)
            .key("components")
            .begin_array();
        for c in &self.components {
            w.begin_object()
                .key("component")
                .str(&c.component)
                .key("passed")
                .bool(c.passed)
                .key("attack_score")
                .f64(c.attack_score)
                .key("threshold_margin")
                .f64(c.threshold_margin)
                .key("duration_s")
                .f64(c.duration_s)
                .key("detail")
                .str(&c.detail)
                .key("skipped")
                .bool(c.skipped)
                .end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Appends traces to a size-capped JSONL log: once `path` would
    /// exceed `max_bytes` it is rotated to `<path>.1` (replacing any
    /// previous rotation) and a fresh file is started — a long campaign
    /// keeps at most `2 × max_bytes` of the newest traces on disk
    /// instead of growing without bound. Existing content is appended
    /// to, not truncated.
    pub fn append_jsonl_rotating(
        path: &Path,
        traces: &[PipelineTrace],
        max_bytes: u64,
    ) -> std::io::Result<()> {
        let writer = crate::export::RotatingJsonlWriter::new(path, max_bytes);
        for t in traces {
            writer.append_line(&t.to_json())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineTrace {
        PipelineTrace {
            session: "speaker-7".into(),
            accepted: true,
            total_s: 0.012,
            components: vec![
                ComponentTrace {
                    component: "distance".into(),
                    passed: true,
                    attack_score: 0.4,
                    threshold_margin: 0.6,
                    duration_s: 0.004,
                    detail: "d=5cm".into(),
                    skipped: false,
                },
                ComponentTrace {
                    component: "loudspeaker".into(),
                    passed: true,
                    attack_score: 0.9,
                    threshold_margin: 0.1,
                    duration_s: 0.006,
                    detail: "deviation ok".into(),
                    skipped: false,
                },
            ],
        }
    }

    #[test]
    fn component_lookup() {
        let t = sample();
        assert!(t.component("distance").is_some());
        assert!(t.component("sld").is_none());
    }

    #[test]
    fn json_golden_with_a_skipped_stage() {
        let mut t = sample();
        t.session = "tab\there \"quoted\" back\\slash".into();
        t.total_s = 2.0;
        t.components[1].attack_score = f64::NAN;
        t.components[1].duration_s = f64::INFINITY;
        t.components.push(ComponentTrace {
            component: "speaker_id".into(),
            passed: false,
            attack_score: 0.0,
            threshold_margin: -0.0,
            duration_s: f64::NEG_INFINITY,
            detail: "short-circuited by loudspeaker\n\u{1}".into(),
            skipped: true,
        });
        assert_eq!(
            t.to_json(),
            concat!(
                r#"{"session":"tab\there \"quoted\" back\\slash","accepted":true,"total_s":2.0,"#,
                r#""components":[{"component":"distance","passed":true,"attack_score":0.4,"#,
                r#""threshold_margin":0.6,"duration_s":0.004,"detail":"d=5cm","skipped":false},"#,
                r#"{"component":"loudspeaker","passed":true,"attack_score":null,"#,
                r#""threshold_margin":0.1,"duration_s":null,"detail":"deviation ok","skipped":false},"#,
                r#"{"component":"speaker_id","passed":false,"attack_score":0.0,"#,
                r#""threshold_margin":-0.0,"duration_s":null,"#,
                r#""detail":"short-circuited by loudspeaker\n\u0001","skipped":true}]}"#,
            )
        );
    }

    #[test]
    fn rotating_append_caps_disk() {
        let dir = std::env::temp_dir().join("magshield-obs-trace-rotate-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("traces.jsonl");
        let traces = vec![sample(); 64];
        // A cap far below the total payload: the log must rotate instead
        // of growing unboundedly (assertions are byte-based, so they
        // hold for any serialized line length).
        PipelineTrace::append_jsonl_rotating(&path, &traces, 16).unwrap();
        let current = std::fs::read_to_string(&path).unwrap();
        assert!(current.ends_with('\n'), "only whole lines on disk");
        let rotated_path = dir.join("traces.jsonl.1");
        assert!(
            rotated_path.exists(),
            "64 lines against a 16-byte cap must rotate"
        );
        let rotated = std::fs::read_to_string(&rotated_path).unwrap();
        assert!(rotated.ends_with('\n'), "rotation keeps whole lines");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            2,
            "exactly current + one rotation, never an unbounded family"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

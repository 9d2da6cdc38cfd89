//! Metrics export: text exposition, the workspace's JSON writer and
//! size-capped JSONL rotation.
//!
//! * [`render_text`] — a flat, grep-able exposition format (one sample
//!   per line, exemplars as annotated comment lines) built on a
//!   [`MetricsSnapshot`] and served over the wire by `MetricsResponse`.
//! * [`JsonWriter`] — the one JSON writer every JSONL artifact of the
//!   workspace goes through.
//! * [`RotatingJsonlWriter`] — appends JSONL under a max-file-size cap
//!   (rotating `file` → `file.1`).

use crate::metrics::MetricsSnapshot;
use std::io::Write;
use std::path::PathBuf;

/// Default size cap for rotated JSONL exports (bytes).
pub const DEFAULT_MAX_JSONL_BYTES: u64 = 8 * 1024 * 1024;

/// Renders a snapshot in the text exposition format:
///
/// ```text
/// # magshield metrics v1
/// batch.shed{shed_reason="shutdown"} 17
/// server.queue.depth 3
/// pipeline.verify.seconds_count 5120
/// pipeline.verify.seconds_sum 12.75
/// pipeline.verify.seconds{quantile="0.99"} 0.0041
/// # exemplar pipeline.verify.seconds trace="sess-41" value=0.0113 bucket=28
/// ```
///
/// Counters and gauges are one line each under their canonical labeled
/// key. Histograms expand to `_count`, `_sum` (seconds) and quantile
/// series, followed by one exemplar comment per retained slow sample.
pub fn render_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("# magshield metrics v1\n");
    for (k, v) in &snap.counters {
        out.push_str(&format!("{k} {v}\n"));
    }
    for (k, v) in &snap.gauges {
        out.push_str(&format!("{k} {v}\n"));
    }
    for (k, h) in &snap.histograms {
        let (name, suffix) = split_key_braces(k);
        out.push_str(&format!("{name}_count{suffix} {}\n", h.count));
        out.push_str(&format!("{name}_sum{suffix} {}\n", h.sum_ns as f64 / 1e9));
        for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            out.push_str(&format!(
                "{} {}\n",
                inject_label(k, "quantile", label),
                h.quantile(q)
            ));
        }
        for e in &h.exemplars {
            out.push_str(&format!(
                "# exemplar {k} trace=\"{}\" value={} bucket={}\n",
                e.trace_id,
                e.value_s(),
                e.bucket
            ));
        }
    }
    out
}

/// Splits `name{labels}` into `("name", "{labels}")` (suffix empty for
/// flat keys) so derived series like `name_count{labels}` keep the
/// suffix attached to the derived name.
fn split_key_braces(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) if key.ends_with('}') => (&key[..i], &key[i..]),
        _ => (key, ""),
    }
}

/// Adds one `key="value"` pair to a canonical metric key, merging into
/// an existing label block if present.
fn inject_label(metric_key: &str, key: &str, value: &str) -> String {
    let (name, braces) = split_key_braces(metric_key);
    if braces.is_empty() {
        format!("{name}{{{key}=\"{value}\"}}")
    } else {
        let body = &braces[1..braces.len() - 1];
        format!("{name}{{{body},{key}=\"{value}\"}}")
    }
}

/// The workspace's one JSON writer. Pipeline traces and the experiment
/// result rows are all emitted through it, in the shapes `serde_json`
/// gives the same data:
///
/// * floats print as the shortest decimal that round-trips (positional,
///   never an exponent), with `.0` appended to integral values (`5.0`,
///   not `5`), and non-finite values as `null`;
/// * strings escape `"` and `\`, the control characters `\b \f \n \r \t`
///   by name, and every other control character as `\u00xx`.
///
/// Calls chain; commas are placed automatically:
///
/// ```
/// use magshield_obs::export::JsonWriter;
///
/// let mut w = JsonWriter::default();
/// w.begin_object().key("n").f64(2.0).key("tags").begin_array();
/// w.str("a\"b").bool(true).end_array().end_object();
/// assert_eq!(w.finish(), r#"{"n":2.0,"tags":["a\"b",true]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value follows a sibling (needs a comma).
    comma: bool,
}

impl JsonWriter {
    /// Opens an object (`{`).
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.str(k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                '\u{8}' => self.out.push_str("\\b"),
                '\u{c}' => self.out.push_str("\\f"),
                c if (c as u32) < 0x20 => self.out.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    /// A float value (`null` when not finite).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.separate();
        if v.is_finite() {
            let start = self.out.len();
            self.out.push_str(&v.to_string());
            if !self.out[start..].contains('.') {
                self.out.push_str(".0");
            }
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// An unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_string())
    }

    /// A boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(if v { "true" } else { "false" })
    }

    /// The JSON text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn raw(&mut self, token: &str) -> &mut Self {
        self.separate();
        self.out.push_str(token);
        self
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Writes the comma a sibling needs; whatever follows is a sibling
    /// of the next value.
    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }
}

/// Appends lines to a JSONL file under a size cap. When an append
/// would push the file past `max_bytes`, the file is renamed to
/// `<path>.1` (replacing any previous `.1`) and a fresh file is
/// started — so the pair never holds more than `2 × max_bytes` and a
/// long bench run cannot grow `results/logs/` without bound.
#[derive(Debug)]
pub struct RotatingJsonlWriter {
    path: PathBuf,
    max_bytes: u64,
}

impl RotatingJsonlWriter {
    /// A writer for `path` capped at `max_bytes` per file.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes == 0`.
    pub fn new(path: impl Into<PathBuf>, max_bytes: u64) -> Self {
        assert!(max_bytes > 0, "rotation cap must be positive");
        RotatingJsonlWriter {
            path: path.into(),
            max_bytes,
        }
    }

    /// The rotated (previous) file path.
    pub fn rotated_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_owned();
        os.push(".1");
        PathBuf::from(os)
    }

    /// Appends one line (newline added), rotating first if the append
    /// would exceed the cap. Creates parent directories as needed.
    pub fn append_line(&self, line: &str) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let incoming = line.len() as u64 + 1;
        let current = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        if current > 0 && current + incoming > self.max_bytes {
            std::fs::rename(&self.path, self.rotated_path())?;
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::Labels;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("magshield-obs-export-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let r = Registry::default();
        r.counter_vec("batch.shed")
            .with(&Labels::new().shed_reason("shutdown"))
            .add(17);
        r.gauge("server.queue.depth").set(3);
        let h = r.histogram("pipeline.verify.seconds");
        h.record_secs_with_exemplar(0.004, "sess-1");
        h.record_secs_with_exemplar(0.0113, "sess-41");
        r.snapshot()
    }

    #[test]
    fn text_exposition_lists_everything() {
        let text = render_text(&sample_snapshot());
        assert!(text.starts_with("# magshield metrics v1\n"));
        assert!(text.contains("batch.shed{shed_reason=\"shutdown\"} 17\n"));
        assert!(text.contains("server.queue.depth 3\n"));
        assert!(text.contains("pipeline.verify.seconds_count 2\n"));
        assert!(text.contains("pipeline.verify.seconds{quantile=\"0.99\"}"));
        assert!(
            text.contains("# exemplar pipeline.verify.seconds trace=\"sess-41\""),
            "{text}"
        );
    }

    #[test]
    fn labeled_histogram_quantile_injection_merges_braces() {
        let r = Registry::default();
        r.histogram_vec("lat.seconds")
            .with(&Labels::new().stage("sld"))
            .record_secs(0.01);
        let text = render_text(&r.snapshot());
        assert!(text.contains("lat.seconds_count{stage=\"sld\"} 1"));
        assert!(
            text.contains("lat.seconds{stage=\"sld\",quantile=\"0.5\"}"),
            "{text}"
        );
    }

    fn json_of(f: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::default();
        f(&mut w);
        w.finish()
    }

    #[test]
    fn json_strings_escape_like_serde_json() {
        let hostile = "q\"b\\s/\n\r\t\u{8}\u{c}\u{1}\u{1f}\u{7f}é";
        let out = json_of(|w| {
            w.str(hostile);
        });
        // DEL and non-ASCII pass through unescaped, as in serde_json.
        assert_eq!(out, "\"q\\\"b\\\\s/\\n\\r\\t\\b\\f\\u0001\\u001f\u{7f}é\"");
    }

    #[test]
    fn json_numbers_take_serde_json_shapes() {
        let out = json_of(|w| {
            w.begin_array();
            for v in [
                5.0,
                -0.0,
                0.1,
                16.666666666666664,
                1e-7,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                w.f64(v);
            }
            w.u64(u64::MAX).bool(true).bool(false).end_array();
        });
        assert_eq!(
            out,
            "[5.0,-0.0,0.1,16.666666666666664,0.0000001,null,null,null,\
             18446744073709551615,true,false]"
        );
    }

    #[test]
    fn json_nesting_places_commas() {
        let out = json_of(|w| {
            w.begin_object().key("a").begin_array().end_array();
            w.key("b").begin_object().end_object();
            w.key("c").begin_array().begin_array().u64(1).end_array();
            w.begin_object().key("d").u64(2).end_object().end_array();
            w.end_object();
        });
        assert_eq!(out, r#"{"a":[],"b":{},"c":[[1],{"d":2}]}"#);
    }

    #[test]
    fn rotation_caps_file_size() {
        let dir = test_dir("rotate");
        let path = dir.join("metrics.jsonl");
        let w = RotatingJsonlWriter::new(&path, 256);
        let line = "x".repeat(63); // 64 bytes with newline
        for _ in 0..20 {
            w.append_line(&line).unwrap();
        }
        let active = std::fs::metadata(&path).unwrap().len();
        let rotated = std::fs::metadata(w.rotated_path()).unwrap().len();
        assert!(active <= 256, "active file exceeded the cap: {active}");
        assert!(rotated <= 256, "rotated file exceeded the cap: {rotated}");
        // Nothing beyond the pair exists, so disk use is bounded.
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_single_line_still_lands() {
        let dir = test_dir("oversize");
        let path = dir.join("metrics.jsonl");
        let w = RotatingJsonlWriter::new(&path, 64);
        w.append_line(&"y".repeat(500)).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 501);
        // The next line rotates the oversized file out.
        w.append_line("z").unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

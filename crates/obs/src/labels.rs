//! Low-cardinality metric labels with a canonical encoded form.
//!
//! A [`Labels`] value is a small, sorted set of `key="value"` pairs
//! drawn from a fixed key vocabulary ([`LABEL_KEYS`]): `stage`,
//! `generation`, `policy` and `shed_reason`. Restricting the
//! keys keeps the metric space enumerable; restricting per-family
//! cardinality (see [`MAX_CARDINALITY`]) keeps it bounded even when a
//! label value is derived from runtime data (e.g. a generation number
//! that grows forever). Labeled series are stored in the registry under
//! the canonical encoded key `name{k1="v1",k2="v2"}`, which is also the
//! wire and text-exposition spelling, so a labeled snapshot needs no
//! schema beyond the flat one.

/// The allowed label keys, sorted. Anything else is a programming error:
/// label keys are part of the telemetry schema, not free-form data.
pub const LABEL_KEYS: [&str; 4] = ["generation", "policy", "shed_reason", "stage"];

/// Maximum distinct label sets a single metric family will create.
/// Beyond this, samples are routed to the [`OVERFLOW_VALUE`] series so
/// a cardinality bug degrades precision, never memory.
pub const MAX_CARDINALITY: usize = 64;

/// Label value used for series beyond the cardinality cap.
pub const OVERFLOW_VALUE: &str = "overflow";

/// A sorted, validated set of label pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Labels {
    pairs: Vec<(&'static str, String)>,
}

fn assert_known_key(key: &'static str) {
    assert!(
        LABEL_KEYS.contains(&key),
        "unknown label key {key:?}: allowed keys are {LABEL_KEYS:?}"
    );
}

/// Keeps label values inside the charset that needs no escaping in the
/// canonical encoding: anything else becomes `_`.
fn sanitize(value: &str) -> String {
    value
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '/') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Labels {
    /// The empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-pair label set.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not one of [`LABEL_KEYS`].
    pub fn of(key: &'static str, value: &str) -> Self {
        Self::new().and(key, value)
    }

    /// Adds (or replaces) a pair, keeping pairs sorted by key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not one of [`LABEL_KEYS`].
    #[must_use]
    pub fn and(mut self, key: &'static str, value: &str) -> Self {
        assert_known_key(key);
        let value = sanitize(value);
        match self.pairs.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.pairs[i].1 = value,
            Err(i) => self.pairs.insert(i, (key, value)),
        }
        self
    }

    /// Shorthand for the `stage` label.
    #[must_use]
    pub fn stage(self, value: &str) -> Self {
        self.and("stage", value)
    }

    /// Shorthand for the `generation` label.
    #[must_use]
    pub fn generation(self, generation: u64) -> Self {
        self.and("generation", &generation.to_string())
    }

    /// Shorthand for the `policy` label.
    #[must_use]
    pub fn policy(self, value: &str) -> Self {
        self.and("policy", value)
    }

    /// Shorthand for the `shed_reason` label.
    #[must_use]
    pub fn shed_reason(self, value: &str) -> Self {
        self.and("shed_reason", value)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The pairs, sorted by key.
    pub fn pairs(&self) -> &[(&'static str, String)] {
        &self.pairs
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// This set with every value replaced by [`OVERFLOW_VALUE`] — the
    /// series a family routes to past its cardinality cap.
    #[must_use]
    pub fn to_overflow(&self) -> Self {
        Self {
            pairs: self
                .pairs
                .iter()
                .map(|(k, _)| (*k, OVERFLOW_VALUE.to_string()))
                .collect(),
        }
    }

    /// Canonical `{k1="v1",k2="v2"}` rendering; empty string when empty.
    pub fn render(&self) -> String {
        if self.pairs.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
        out
    }

    /// The canonical registry key for `name` with these labels:
    /// `name{k="v",…}`, or just `name` when empty.
    pub fn key_for(&self, name: &str) -> String {
        let mut out = String::with_capacity(name.len() + 16 * self.pairs.len());
        out.push_str(name);
        out.push_str(&self.render());
        out
    }
}

/// Splits a canonical metric key back into its base name and label
/// pairs. Keys without labels return an empty pair list; malformed
/// braces are treated as part of the name (flat metrics never contain
/// `{`, so this cannot misfire on registry-produced keys).
pub fn parse_metric_key(key: &str) -> (&str, Vec<(String, String)>) {
    let Some(open) = key.find('{') else {
        return (key, Vec::new());
    };
    if !key.ends_with('}') {
        return (key, Vec::new());
    }
    let name = &key[..open];
    let body = &key[open + 1..key.len() - 1];
    let mut pairs = Vec::new();
    for part in body.split(',') {
        let Some((k, v)) = part.split_once('=') else {
            return (key, Vec::new());
        };
        let v = v.trim_matches('"');
        pairs.push((k.to_string(), v.to_string()));
    }
    (name, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sort_dedupe_and_render() {
        let l = Labels::new().stage("sld").policy("full").stage("asv");
        assert_eq!(l.len(), 2);
        assert_eq!(l.get("stage"), Some("asv"));
        assert_eq!(l.render(), r#"{policy="full",stage="asv"}"#);
        assert_eq!(
            l.key_for("pipeline.stage.seconds"),
            r#"pipeline.stage.seconds{policy="full",stage="asv"}"#
        );
        assert_eq!(Labels::new().render(), "");
        assert_eq!(Labels::new().key_for("x"), "x");
    }

    #[test]
    fn values_are_sanitized() {
        let l = Labels::of("stage", "we\"ird té{na}nt");
        assert_eq!(l.get("stage"), Some("we_ird_t__na_nt"));
        assert!(!l.render().contains('{') || l.render().starts_with('{'));
    }

    #[test]
    #[should_panic(expected = "unknown label key")]
    fn unknown_keys_panic() {
        let _ = Labels::of("user_id", "42");
    }

    #[test]
    fn overflow_set_replaces_values() {
        let l = Labels::new().stage("sld").generation(17);
        let o = l.to_overflow();
        assert_eq!(o.get("stage"), Some(OVERFLOW_VALUE));
        assert_eq!(o.get("generation"), Some(OVERFLOW_VALUE));
    }

    #[test]
    fn metric_key_round_trips() {
        let l = Labels::new().stage("distance").policy("short_circuit");
        let key = l.key_for("pipeline.stage.seconds");
        let (name, pairs) = parse_metric_key(&key);
        assert_eq!(name, "pipeline.stage.seconds");
        assert_eq!(
            pairs,
            vec![
                ("policy".to_string(), "short_circuit".to_string()),
                ("stage".to_string(), "distance".to_string()),
            ]
        );
        let (flat, none) = parse_metric_key("plain.name");
        assert_eq!(flat, "plain.name");
        assert!(none.is_empty());
    }
}

//! Committed benchmark anchors — `BENCH_<scenario>.json`.
//!
//! One anchor per matrix scenario: a schema-versioned JSON document holding
//! the scenario's metric vector plus a provenance stamp (git revision,
//! device, worker config, seed, pre-touch policy, tier). Anchors are committed
//! to the repository root and compared by `repro gate` (see [`crate::gate`])
//! so a PR cannot silently change what the matrix reproduces. Every metric
//! is a count or a model output that reproduces bit for bit, and every one
//! is compared: an anchor holds no clock reading.
//!
//! Anchors are read with [`gpumem_core::json`] and rendered here, metrics in
//! insertion order so regenerated anchors diff cleanly.
//! `Anchor::parse(anchor.render())` round-trips exactly (Rust's float
//! formatting is shortest-round-trip).

use std::fmt;
use std::path::{Path, PathBuf};

use gpumem_core::json::{quote, Json};

/// Current anchor schema version. Version 1 was the ad-hoc
/// `BENCH_exec.json` layout (no provenance, no metric classes); version 2
/// was the matrix layout; version 3 added the latency sweep over every
/// default family and the cached twin scenarios; version 4 classed each
/// metric `exact` or `info` (compared, or recorded but never compared).
/// Version 5 drops the classes: a metric is a key and a value, and every
/// one is compared, so a v4 document, whose `info` timings do not
/// reproduce, must not be read as one. The gate refuses to compare across
/// versions.
pub const SCHEMA_VERSION: u32 = 5;

/// One anchored quantity: a key like `ScatterAlloc/s16/failures` and its
/// value. Every metric is compared bit for bit by the gate, so only a
/// quantity that reproduces at a fixed tier and seed may become one.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub key: String,
    pub value: f64,
}

impl Metric {
    pub fn exact(key: impl Into<String>, value: f64) -> Metric {
        Metric { key: key.into(), value }
    }
}

/// A parsed (or about-to-be-written) anchor document.
#[derive(Clone, Debug, PartialEq)]
pub struct Anchor {
    pub schema: u32,
    /// Scenario name — also names the file (`BENCH_<scenario>.json`).
    pub scenario: String,
    /// `tiny`, `smoke` or `full`; the gate refuses cross-tier comparisons.
    pub tier: String,
    /// Stamp describing the run: git revision, device, workers, seed,
    /// pre-touch policy. Insertion-ordered.
    pub provenance: Vec<(String, String)>,
    pub metrics: Vec<Metric>,
}

/// Typed anchor failures — parse errors, schema drift, malformed metrics.
#[derive(Clone, Debug, PartialEq)]
pub enum AnchorError {
    Json { offset: usize, reason: String },
    MissingField(&'static str),
    BadField { field: &'static str, reason: String },
    SchemaMismatch { found: u32, expected: u32 },
}

impl fmt::Display for AnchorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnchorError::Json { offset, reason } => {
                write!(f, "invalid JSON at byte {offset}: {reason}")
            }
            AnchorError::MissingField(field) => write!(f, "anchor is missing field {field:?}"),
            AnchorError::BadField { field, reason } => {
                write!(f, "anchor field {field:?} is malformed: {reason}")
            }
            AnchorError::SchemaMismatch { found, expected } => write!(
                f,
                "anchor schema version {found} does not match this binary's version {expected} \
                 — regenerate with `repro matrix`"
            ),
        }
    }
}

impl std::error::Error for AnchorError {}

impl Anchor {
    /// The file an anchor for `scenario` lives in, under `dir`.
    pub fn path_for(dir: &Path, scenario: &str) -> PathBuf {
        dir.join(format!("BENCH_{scenario}.json"))
    }

    /// Looks a metric up by key.
    pub fn metric(&self, key: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.key == key)
    }

    /// One provenance value by key.
    pub fn provenance_value(&self, key: &str) -> Option<&str> {
        self.provenance.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Renders the anchor as pretty JSON, metrics in insertion order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", self.schema));
        out.push_str(&format!("  \"scenario\": {},\n", quote(&self.scenario)));
        out.push_str(&format!("  \"tier\": {},\n", quote(&self.tier)));
        out.push_str("  \"provenance\": {\n");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let sep = if i + 1 == self.provenance.len() { "" } else { "," };
            out.push_str(&format!("    {}: {}{sep}\n", quote(k), quote(v)));
        }
        out.push_str("  },\n");
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i + 1 == self.metrics.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{ \"key\": {}, \"value\": {} }}{sep}\n",
                quote(&m.key),
                render_number(m.value),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses an anchor document, validating the schema version.
    pub fn parse(text: &str) -> Result<Anchor, AnchorError> {
        let value =
            Json::parse(text).map_err(|(offset, reason)| AnchorError::Json { offset, reason })?;
        let obj = value.as_object().ok_or(AnchorError::MissingField("<root object>"))?;
        let schema = field(obj, "schema")?
            .as_number()
            .ok_or(AnchorError::BadField { field: "schema", reason: "not a number".into() })?
            as u32;
        if schema != SCHEMA_VERSION {
            return Err(AnchorError::SchemaMismatch { found: schema, expected: SCHEMA_VERSION });
        }
        let scenario = string_field(obj, "scenario")?;
        let tier = string_field(obj, "tier")?;
        let provenance = field(obj, "provenance")?
            .as_object()
            .ok_or(AnchorError::BadField { field: "provenance", reason: "not an object".into() })?
            .iter()
            .map(|(k, v)| {
                v.as_string().map(|s| (k.clone(), s.to_string())).ok_or(AnchorError::BadField {
                    field: "provenance",
                    reason: format!("value of {k:?} is not a string"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let raw_metrics = field(obj, "metrics")?
            .as_array()
            .ok_or(AnchorError::BadField { field: "metrics", reason: "not an array".into() })?;
        let mut metrics = Vec::with_capacity(raw_metrics.len());
        for m in raw_metrics {
            let mo = m.as_object().ok_or(AnchorError::BadField {
                field: "metrics",
                reason: "entry is not an object".into(),
            })?;
            let key = string_field(mo, "key").map_err(|_| AnchorError::BadField {
                field: "metrics",
                reason: "entry lacks a string \"key\"".into(),
            })?;
            let value = field(mo, "value")?.as_number().ok_or_else(|| AnchorError::BadField {
                field: "metrics",
                reason: format!("{key:?} has a non-numeric value"),
            })?;
            metrics.push(Metric { key, value });
        }
        Ok(Anchor { schema, scenario, tier, provenance, metrics })
    }
}

fn field<'a>(obj: &'a [(String, Json)], name: &'static str) -> Result<&'a Json, AnchorError> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v).ok_or(AnchorError::MissingField(name))
}

fn string_field(obj: &[(String, Json)], name: &'static str) -> Result<String, AnchorError> {
    field(obj, name)?
        .as_string()
        .map(str::to_string)
        .ok_or(AnchorError::BadField { field: name, reason: "not a string".into() })
}

/// Formats a metric value so `parse(render(v)) == v` bit-exactly: Rust's
/// `{}` float formatting is shortest-round-trip; non-finite values render as
/// the lenient tokens the parser also accepts (they never come out of
/// `repro matrix`, which rejects non-finite metrics, but a hand-edited
/// anchor must survive the round trip so the gate can flag it).
fn render_number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Anchor {
        Anchor {
            schema: SCHEMA_VERSION,
            scenario: "perf_thread".into(),
            tier: "smoke".into(),
            provenance: vec![
                ("git".into(), "abc123".into()),
                ("device".into(), "TITANV".into()),
                ("seed".into(), "0x5eed".into()),
            ],
            metrics: vec![
                Metric::exact("ScatterAlloc/s16/cycle_growth", 1.25),
                Metric::exact("ScatterAlloc/s16/failures", 0.0),
                Metric::exact("ScatterAlloc/s16/expansion", 1.0),
            ],
        }
    }

    #[test]
    fn render_parse_round_trip_is_exact() {
        let a = sample();
        let text = a.render();
        let b = Anchor::parse(&text).unwrap();
        assert_eq!(a, b);
        // Text-level stability: render(parse(render(x))) == render(x).
        assert_eq!(b.render(), text);
    }

    /// A v4 document classes its metrics and holds `info` timings the gate
    /// must never compare, so it is refused by version before any of its
    /// metrics is read.
    #[test]
    fn parse_rejects_schema_drift() {
        let text =
            sample().render().replace(&format!("\"schema\": {SCHEMA_VERSION}"), "\"schema\": 4");
        match Anchor::parse(&text) {
            Err(AnchorError::SchemaMismatch { found: 4, expected }) => {
                assert_eq!(expected, SCHEMA_VERSION)
            }
            other => panic!("expected schema mismatch, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_missing_fields_and_bad_values() {
        assert!(matches!(Anchor::parse("{}"), Err(AnchorError::MissingField("schema"))));
        let text = sample().render();
        let no_value = text.replacen("\"value\": 1.25", "\"v\": 1.25", 1);
        assert!(matches!(Anchor::parse(&no_value), Err(AnchorError::MissingField("value"))));
        let bad_value = text.replacen("\"value\": 1.25", "\"value\": \"1.25\"", 1);
        assert!(matches!(Anchor::parse(&bad_value), Err(AnchorError::BadField { .. })));
        assert!(matches!(Anchor::parse("not json"), Err(AnchorError::Json { .. })));
    }

    #[test]
    fn non_finite_values_survive_the_round_trip() {
        let mut a = sample();
        a.metrics[0].value = f64::NAN;
        a.metrics[2].value = f64::INFINITY;
        let b = Anchor::parse(&a.render()).unwrap();
        assert!(b.metrics[0].value.is_nan());
        assert_eq!(b.metrics[2].value, f64::INFINITY);
    }

    #[test]
    fn integral_values_render_with_a_decimal_point() {
        let mut a = sample();
        a.metrics[0].value = 7_643_670.0;
        assert!(a.render().contains("\"value\": 7643670.0"));
        assert_eq!(Anchor::parse(&a.render()).unwrap().metrics[0].value, 7_643_670.0);
    }

    #[test]
    fn metric_lookup_by_key() {
        let a = sample();
        assert_eq!(a.metric("ScatterAlloc/s16/cycle_growth").unwrap().value, 1.25);
        assert!(a.metric("nope").is_none());
        assert_eq!(a.provenance_value("git"), Some("abc123"));
    }
}

//! The regression gate — compares a fresh matrix run against committed
//! `BENCH_<scenario>.json` anchors.
//!
//! One rule: every anchored metric must equal the current run's bit for bit
//! (an anchor holds only values that reproduce; see [`crate::anchor`]). A
//! scenario or tier mismatch fails, a metric the anchor has and the run
//! lacks fails, a metric only the run has is informational, and a
//! non-finite anchor value fails as [`FindingKind::InvalidAnchor`], so a
//! damaged anchor cannot pass vacuously. The run side needs no such guard:
//! `matrix::run_scenario` refuses non-finite metrics before they get here.

use std::fmt;

use crate::anchor::Anchor;

/// Why one comparison failed (or is worth a note).
#[derive(Clone, Debug, PartialEq)]
pub enum FindingKind {
    /// A metric differs from its anchor.
    ExactMismatch,
    /// Metric present in the anchor but absent from the current run.
    MissingMetric,
    /// Anchor value is NaN or infinite.
    InvalidAnchor,
    /// Scenario names differ between the two documents.
    ScenarioMismatch,
    /// Tier (tiny/smoke/full) differs — parameters are not comparable.
    TierMismatch,
    /// Metric present in the current run but not the anchor (informational).
    NewMetric,
}

impl FindingKind {
    /// Whether this finding fails the gate.
    pub fn is_failure(&self) -> bool {
        *self != FindingKind::NewMetric
    }
}

/// One comparison outcome.
#[derive(Clone, Debug)]
pub struct Finding {
    pub kind: FindingKind,
    pub key: String,
    pub anchor: f64,
    pub current: f64,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `{}` prints an f64's shortest round-trip form, so values one ulp
        // apart print differently.
        match self.kind {
            FindingKind::ExactMismatch => write!(
                f,
                "EXACT MISMATCH {}: anchor {} != current {}",
                self.key, self.anchor, self.current
            ),
            FindingKind::MissingMetric => {
                write!(f, "MISSING {}: in anchor but not in the current run", self.key)
            }
            FindingKind::InvalidAnchor => {
                write!(f, "INVALID ANCHOR {}: value {} is not finite", self.key, self.anchor)
            }
            FindingKind::ScenarioMismatch => {
                write!(f, "SCENARIO MISMATCH: comparing against anchor {:?}", self.key)
            }
            FindingKind::TierMismatch => {
                write!(f, "TIER MISMATCH {}: anchors from one tier cannot gate another", self.key)
            }
            FindingKind::NewMetric => {
                write!(f, "new metric {} = {} (not in anchor)", self.key, self.current)
            }
        }
    }
}

/// Result of gating one scenario.
#[derive(Clone, Debug)]
pub struct GateReport {
    pub scenario: String,
    pub findings: Vec<Finding>,
    /// Metrics compared.
    pub exact: usize,
}

impl GateReport {
    pub fn failures(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.kind.is_failure())
    }

    pub fn passed(&self) -> bool {
        self.failures().next().is_none()
    }
}

/// Compares a current run against its committed anchor.
pub fn compare(anchor: &Anchor, current: &Anchor) -> GateReport {
    let finding =
        |kind, key: &str, anchor, current| Finding { kind, key: key.to_string(), anchor, current };
    let mut report =
        GateReport { scenario: anchor.scenario.clone(), findings: Vec::new(), exact: 0 };
    if anchor.scenario != current.scenario {
        report.findings.push(finding(
            FindingKind::ScenarioMismatch,
            &anchor.scenario,
            f64::NAN,
            f64::NAN,
        ));
    }
    if anchor.tier != current.tier {
        let tiers = format!("{} (anchor) vs {} (current)", anchor.tier, current.tier);
        report.findings.push(finding(FindingKind::TierMismatch, &tiers, f64::NAN, f64::NAN));
    }
    for am in &anchor.metrics {
        let Some(cm) = current.metric(&am.key) else {
            report.findings.push(finding(FindingKind::MissingMetric, &am.key, am.value, f64::NAN));
            continue;
        };
        if !am.value.is_finite() {
            report.findings.push(finding(FindingKind::InvalidAnchor, &am.key, am.value, cm.value));
            continue;
        }
        report.exact += 1;
        if am.value != cm.value {
            report.findings.push(finding(FindingKind::ExactMismatch, &am.key, am.value, cm.value));
        }
    }
    for cm in &current.metrics {
        if anchor.metric(&cm.key).is_none() {
            report.findings.push(finding(FindingKind::NewMetric, &cm.key, f64::NAN, cm.value));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::{Metric, SCHEMA_VERSION};

    fn anchor_with(metrics: Vec<Metric>) -> Anchor {
        Anchor {
            schema: SCHEMA_VERSION,
            scenario: "t".into(),
            tier: "smoke".into(),
            provenance: vec![("git".into(), "x".into())],
            metrics,
        }
    }

    fn first_failure(r: &GateReport) -> Option<FindingKind> {
        r.failures().next().map(|f| f.kind.clone())
    }

    #[test]
    fn exact_metrics_fail_on_any_difference() {
        let a = anchor_with(vec![Metric::exact("m/expansion", 1.0186)]);
        assert!(compare(&a, &a).passed());
        let ulp = f64::from_bits(1.0186f64.to_bits() + 1);
        let r = compare(&a, &anchor_with(vec![Metric::exact("m/expansion", ulp)]));
        assert_eq!(first_failure(&r), Some(FindingKind::ExactMismatch));
        assert_eq!(r.exact, 1);
    }

    #[test]
    fn missing_metric_in_current_run_fails() {
        let a = anchor_with(vec![Metric::exact("m/hops", 100.0), Metric::exact("m/extra", 1.0)]);
        let c = anchor_with(vec![Metric::exact("m/hops", 100.0)]);
        let r = compare(&a, &c);
        assert!(!r.passed());
        assert!(r.failures().any(|f| f.kind == FindingKind::MissingMetric && f.key == "m/extra"));
    }

    #[test]
    fn scenario_and_tier_mismatches_fail() {
        let a = anchor_with(vec![]);
        let mut c = anchor_with(vec![]);
        c.scenario = "other".into();
        assert_eq!(first_failure(&compare(&a, &c)), Some(FindingKind::ScenarioMismatch));
        let mut full = anchor_with(vec![]);
        full.tier = "full".into();
        assert_eq!(first_failure(&compare(&a, &full)), Some(FindingKind::TierMismatch));
    }

    #[test]
    fn non_finite_anchors_fail() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let a = anchor_with(vec![Metric::exact("m/x", bad)]);
            let c = anchor_with(vec![Metric::exact("m/x", 1.0)]);
            assert_eq!(
                first_failure(&compare(&a, &c)),
                Some(FindingKind::InvalidAnchor),
                "anchor value {bad} must be rejected"
            );
        }
    }

    #[test]
    fn new_metrics_are_informational_only() {
        let a = anchor_with(vec![]);
        let c = anchor_with(vec![Metric::exact("m/new", 5.0)]);
        let r = compare(&a, &c);
        assert!(r.passed());
        assert_eq!(r.findings[0].kind, FindingKind::NewMetric);
    }
}

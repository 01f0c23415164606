//! Golden-file tests for the repro matrix: committed anchors must parse,
//! an anchor must be a pure function of its configuration, and the gate
//! must fail when a metric moves — also when `-t`/`-m` restrict the run.

use std::path::Path;

use gpumem_bench::anchor::{Anchor, Metric, SCHEMA_VERSION};
use gpumem_bench::gate::{compare, FindingKind};
use gpumem_bench::matrix::{run_scenario, MatrixCfg, Tier, SCENARIOS};
use gpumem_bench::registry::ManagerKind;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

fn committed(name: &str) -> Anchor {
    let path = Anchor::path_for(repo_root(), name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must be committed: {e}", path.display()));
    Anchor::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every committed `BENCH_<scenario>.json` parses at schema 5, is smoke
/// tier, names no metric class, and round-trips byte-identically through
/// render() — the golden-file half of the round-trip guarantee.
#[test]
fn committed_anchors_parse_and_round_trip() {
    let root = repo_root();
    let mut found = 0;
    for spec in SCENARIOS {
        let path = Anchor::path_for(root, spec.name);
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // anchor not committed yet (pre-generation builds)
        };
        found += 1;
        let a = Anchor::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!((a.schema, SCHEMA_VERSION), (5, 5), "{}", path.display());
        assert_eq!(a.scenario, spec.name, "{}", path.display());
        assert_eq!(a.tier, "smoke", "committed anchors are smoke tier");
        assert!(!a.metrics.is_empty(), "{}", path.display());
        assert!(a.provenance_value("seed").is_some(), "{}", path.display());
        // Byte-identical round trip: render(parse(text)) == text.
        assert_eq!(a.render(), text, "{} drifted from canonical rendering", path.display());
        // Read off the text rather than the parser, which ignores fields.
        assert!(!text.contains("\"class\""), "{}: a metric names a class", path.display());
        assert!(a.provenance_value("iterations").is_none(), "{}", path.display());
        for m in &a.metrics {
            assert!(m.value.is_finite(), "{}: {}", path.display(), m.key);
        }
    }
    assert!(found >= 8, "expected >= 8 committed anchors, found {found}");
}

/// An anchor is a pure function of its configuration: every scenario, run
/// twice at the tiny tier, renders the same document byte for byte — same
/// keys in the same order, bit-equal values — and that document
/// round-trips through the parser. A clock reading in any metric fails
/// here.
#[test]
fn every_anchor_is_a_pure_function_of_its_config() {
    let cfg = MatrixCfg::new(Tier::Tiny);
    for spec in SCENARIOS {
        let a = run_scenario(&cfg, spec).unwrap();
        let b = run_scenario(&cfg, spec).unwrap();
        assert!(!a.metrics.is_empty(), "{}", spec.name);
        assert_eq!(a.render(), b.render(), "{} drifted between two runs", spec.name);
        let parsed = Anchor::parse(&a.render()).unwrap();
        assert_eq!(parsed, a, "{}", spec.name);
    }
}

/// A run restricted to one manager (`-m scatter`) produces that manager's
/// part of the unrestricted anchor, in every scenario: the gate compares
/// that part, passes it, and fails it on a one-ulp change to one of its
/// keys. The whole anchor would fail on the other managers' keys alone.
#[test]
fn a_restricted_run_gates_its_own_managers() {
    let full = MatrixCfg::new(Tier::Tiny);
    let mut scatter = MatrixCfg::new(Tier::Tiny);
    scatter.kinds = Some(vec![ManagerKind::ScatterAlloc]);
    for spec in SCENARIOS {
        let anchor = run_scenario(&full, spec).unwrap();
        let current = run_scenario(&scatter, spec).unwrap();
        let own = scatter.restrict_anchor(&anchor);
        assert!(own.metrics.iter().all(|m| m.key.starts_with("ScatterAlloc/")), "{}", spec.name);
        let report = compare(&own, &current);
        assert!(report.passed(), "{}: {:?}", spec.name, report.findings);
        assert_eq!(report.exact, current.metrics.len(), "{}", spec.name);
        assert!(report.exact > 0, "{}: ScatterAlloc runs in every scenario", spec.name);
        let whole = compare(&anchor, &current);
        assert!(!whole.passed(), "{}", spec.name);
        assert!(whole.failures().all(|f| f.kind == FindingKind::MissingMetric), "{}", spec.name);

        let mut moved = own.clone();
        let m = &mut moved.metrics[0];
        m.value = f64::from_bits(m.value.to_bits() + 1);
        let key = m.key.clone();
        let report = compare(&moved, &current);
        assert!(
            report.failures().any(|f| f.kind == FindingKind::ExactMismatch && f.key == key),
            "{}: {key}",
            spec.name
        );
    }
}

/// Gate semantics end-to-end on committed anchors: an anchor compared with
/// itself passes, a value one ulp away fails, and a vanished metric fails.
#[test]
fn gate_passes_self_and_fails_perturbed() {
    let frag = committed("frag");
    let self_report = compare(&frag, &frag);
    assert!(self_report.passed(), "identical anchors must pass: {:?}", self_report.findings);

    let key = "Reg-Eff-CM/s4096/expansion";
    let mut moved = frag.clone();
    let m = moved.metrics.iter_mut().find(|m| m.key == key).unwrap();
    m.value = f64::from_bits(m.value.to_bits() + 1);
    let report = compare(&frag, &moved);
    assert!(report.failures().any(|f| f.kind == FindingKind::ExactMismatch && f.key == key));

    let mut missing = frag.clone();
    missing.metrics.retain(|m| m.key != key);
    assert!(compare(&frag, &missing)
        .failures()
        .any(|f| f.kind == FindingKind::MissingMetric && f.key == key));
}

/// A damaged committed anchor (NaN where a count belongs) parses — the
/// format is lenient so damage is diagnosable — but cannot gate.
#[test]
fn damaged_anchor_parses_then_fails_gate() {
    let a = Anchor {
        schema: SCHEMA_VERSION,
        scenario: "churn".into(),
        tier: "smoke".into(),
        provenance: vec![("git".into(), "test".into())],
        metrics: vec![Metric::exact("Ouro-S-P/failures", f64::NAN)],
    };
    let reparsed = Anchor::parse(&a.render()).unwrap();
    assert!(reparsed.metrics[0].value.is_nan());
    let current = Anchor { metrics: vec![Metric::exact("Ouro-S-P/failures", 0.0)], ..a.clone() };
    let report = compare(&reparsed, &current);
    assert!(report.failures().any(|f| f.kind == FindingKind::InvalidAnchor));
}

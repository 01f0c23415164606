//! Golden-file tests for the repro matrix: committed anchors must parse,
//! matrix output must round-trip through the anchor parser, the gated
//! metrics must reproduce bit for bit, and the gate must fail when an exact
//! metric moves.

use std::path::Path;

use gpumem_bench::anchor::{Anchor, Metric, MetricClass, SCHEMA_VERSION};
use gpumem_bench::gate::{compare, FindingKind};
use gpumem_bench::matrix::{run_scenario, scenario, MatrixCfg, Tier, SCENARIOS};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

fn committed(name: &str) -> Anchor {
    let path = Anchor::path_for(repo_root(), name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must be committed: {e}", path.display()));
    Anchor::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every committed `BENCH_<scenario>.json` parses at schema 4, is smoke
/// tier, carries only the `exact` and `info` classes, and round-trips
/// byte-identically through render() — the golden-file half of the
/// round-trip guarantee.
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
        assert_eq!((a.schema, SCHEMA_VERSION), (4, 4), "{}", path.display());
        assert_eq!(a.scenario, spec.name, "{}", path.display());
        assert_eq!(a.tier, "smoke", "committed anchors are smoke tier");
        assert!(!a.metrics.is_empty(), "{}", path.display());
        assert!(a.provenance_value("seed").is_some(), "{}", path.display());
        // Byte-identical round trip: render(parse(text)) == text.
        assert_eq!(a.render(), text, "{} drifted from canonical rendering", path.display());
        // The class vocabulary, read off the text rather than the parser.
        for class in text.split("\"class\": ").skip(1) {
            assert!(
                class.starts_with("\"exact\"") || class.starts_with("\"info\""),
                "{}: class {}",
                path.display(),
                class.split_whitespace().next().unwrap_or("")
            );
        }
        for m in &a.metrics {
            assert!(m.value.is_finite(), "{}: {}", path.display(), m.key);
        }
    }
    assert!(found >= 8, "expected >= 8 committed anchors, found {found}");
}

/// `repro matrix` output is deterministic where it promises to be: two runs
/// of the same scenario at the same tier and seed emit the same metric keys
/// in the same order, identical exact-class values, and anchors that
/// round-trip through the parser.
#[test]
fn matrix_output_deterministic_under_fixed_seed() {
    let mut cfg = MatrixCfg::new(Tier::Tiny);
    cfg.seed = 0x5eed;
    let spec = scenario("perf_thread").unwrap();
    let a = run_scenario(&cfg, spec).unwrap();
    let b = run_scenario(&cfg, spec).unwrap();

    let keys = |x: &Anchor| x.metrics.iter().map(|m| m.key.clone()).collect::<Vec<_>>();
    assert_eq!(keys(&a), keys(&b), "metric keys must be run-to-run stable");
    for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
        assert_eq!(ma.class, mb.class, "{}", ma.key);
        if ma.class == MetricClass::Exact {
            assert_eq!(ma.value, mb.value, "exact metric {} drifted between runs", ma.key);
        }
    }
    // Round trip through the parser reproduces the anchor exactly.
    let parsed = Anchor::parse(&a.render()).unwrap();
    assert_eq!(parsed, a);
    // And the rendering itself is canonical (render-parse-render fixpoint).
    assert_eq!(parsed.render(), a.render());
}

/// The scenarios whose values come from models (fragmentation, OOM
/// utilization, write coalescing) or from the sanitizer's shadow heap
/// reproduce bit for bit at a reduced tier, so every one of their metrics is
/// gated exactly.
#[test]
fn gated_scenarios_reproduce_bit_for_bit() {
    let cfg = MatrixCfg::new(Tier::Tiny);
    for name in ["frag", "oom", "coalescing", "sanitize"] {
        let spec = scenario(name).unwrap();
        let a = run_scenario(&cfg, spec).unwrap();
        let b = run_scenario(&cfg, spec).unwrap();
        assert_eq!(a.metrics.len(), b.metrics.len(), "{name}");
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(ma.class, MetricClass::Exact, "{name}: {}", ma.key);
            assert_eq!(ma.key, mb.key, "{name}");
            assert_eq!(
                ma.value.to_bits(),
                mb.value.to_bits(),
                "{name}: {} = {} then {}",
                ma.key,
                ma.value,
                mb.value
            );
        }
    }
}

/// Gate semantics end-to-end on committed anchors: an anchor compared with
/// itself passes, an exact value one ulp away fails, a 100× info change
/// passes, and a vanished metric fails.
#[test]
fn gate_passes_self_and_fails_perturbed() {
    let frag = committed("frag");
    let self_report = compare(&frag, &frag);
    assert!(self_report.passed(), "identical anchors must pass: {:?}", self_report.findings);

    let key = "Reg-Eff-CM/s4096/expansion";
    let mut moved = frag.clone();
    let m = moved.metrics.iter_mut().find(|m| m.key == key).unwrap();
    assert_eq!(m.class, MetricClass::Exact);
    m.value = f64::from_bits(m.value.to_bits() + 1);
    let report = compare(&frag, &moved);
    assert!(report.failures().any(|f| f.kind == FindingKind::ExactMismatch && f.key == key));

    let churn = committed("churn");
    let mut slower = churn.clone();
    let m = slower.metrics.iter_mut().find(|m| m.key == "Ouro-S-P/slowdown").unwrap();
    assert_eq!(m.class, MetricClass::Info);
    m.value *= 100.0;
    let report = compare(&churn, &slower);
    assert!(report.passed(), "info metrics are not compared: {:?}", report.findings);

    let mut missing = frag.clone();
    missing.metrics.retain(|m| m.key != key);
    assert!(compare(&frag, &missing)
        .failures()
        .any(|f| f.kind == FindingKind::MissingMetric && f.key == key));
}

/// A damaged committed anchor (NaN where a timing ratio belongs) parses —
/// the format is lenient so damage is diagnosable — but cannot gate.
#[test]
fn damaged_anchor_parses_then_fails_gate() {
    let a = Anchor {
        schema: SCHEMA_VERSION,
        scenario: "churn".into(),
        tier: "smoke".into(),
        provenance: vec![("git".into(), "test".into())],
        metrics: vec![Metric::info("Ouro-S-P/slowdown", f64::NAN)],
    };
    let reparsed = Anchor::parse(&a.render()).unwrap();
    assert!(reparsed.metrics[0].value.is_nan());
    let current = Anchor { metrics: vec![Metric::info("Ouro-S-P/slowdown", 0.8)], ..a.clone() };
    let report = compare(&reparsed, &current);
    assert!(report.failures().any(|f| f.kind == FindingKind::InvalidAnchor));
}

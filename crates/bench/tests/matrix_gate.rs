//! Golden-file tests for the repro matrix: committed anchors must parse,
//! matrix output must round-trip through the anchor parser, deterministic
//! metrics must be stable under a fixed seed, and the gate must fail when
//! an anchor is perturbed beyond its tolerance.

use std::path::Path;

use gpumem_bench::anchor::{Anchor, Metric, MetricClass, SCHEMA_VERSION};
use gpumem_bench::gate::{compare, FindingKind, Gates};
use gpumem_bench::matrix::{run_scenario, scenario, MatrixCfg, Tier, SCENARIOS};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

/// Every committed `BENCH_<scenario>.json` parses at the current schema
/// version, is smoke tier, and round-trips byte-identically through
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
        assert_eq!(a.schema, SCHEMA_VERSION, "{}", path.display());
        assert_eq!(a.scenario, spec.name, "{}", path.display());
        assert_eq!(a.tier, "smoke", "committed anchors are smoke tier");
        assert!(!a.metrics.is_empty(), "{}", path.display());
        assert!(a.provenance_value("seed").is_some(), "{}", path.display());
        // Byte-identical round trip: render(parse(text)) == text.
        assert_eq!(a.render(), text, "{} drifted from canonical rendering", path.display());
        // Every non-exact metric is a usable gate base.
        for m in &a.metrics {
            if m.class != MetricClass::Exact {
                assert!(m.value.is_finite() && m.value > 0.0, "{}: {}", path.display(), m.key);
            }
        }
    }
    assert!(found >= 8, "expected >= 8 committed anchors, found {found}");
}

/// The committed gates.toml parses and covers every scenario (via the
/// default section when no override exists).
#[test]
fn committed_gates_toml_parses() {
    let text = std::fs::read_to_string(repo_root().join("gates.toml")).unwrap();
    let gates = Gates::parse(&text).unwrap();
    for spec in SCENARIOS {
        let tol = gates.tolerances(spec.name);
        assert!(tol.time_pct > 0.0 && tol.model_pct > 0.0, "{}", spec.name);
    }
    // Every section (including `[scenario.family]` overrides) must name a
    // real scenario, so a typo'd section cannot sit there gating nothing.
    for (name, tol) in &gates.per_scenario {
        assert!(tol.time_pct > 0.0 && tol.model_pct > 0.0, "{name}");
        let scenario_name = name.split('.').next().unwrap();
        assert!(
            scenario(scenario_name).is_some(),
            "gates.toml section [{name}] names unknown scenario {scenario_name:?}"
        );
    }
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

/// Gate semantics end-to-end: an anchor compared against itself passes, and
/// perturbing one throughput metric beyond its tolerance fails.
#[test]
fn gate_passes_self_and_fails_perturbed() {
    let cfg = MatrixCfg::new(Tier::Tiny);
    let spec = scenario("exec").unwrap();
    let a = run_scenario(&cfg, spec).unwrap();
    let gates =
        Gates::parse(&std::fs::read_to_string(repo_root().join("gates.toml")).unwrap()).unwrap();
    let tol = gates.tolerances("exec");

    let self_report = compare(&a, &a, &tol);
    assert!(self_report.passed(), "identical anchors must pass: {:?}", self_report.findings);

    // Perturb the warp throughput far past the tolerance.
    let mut hurt = a.clone();
    let m = hurt.metrics.iter_mut().find(|m| m.key == "pooled_warps_per_sec").unwrap();
    m.value /= 100.0;
    let report = compare(&a, &hurt, &tol);
    assert!(!report.passed());
    assert!(report
        .failures()
        .any(|f| f.kind == FindingKind::Regression && f.key == "pooled_warps_per_sec"));

    // A vanished metric fails too.
    let mut missing = a.clone();
    missing.metrics.retain(|m| m.key != "pooled_warps_per_sec");
    assert!(compare(&a, &missing, &tol).failures().any(|f| f.kind == FindingKind::MissingMetric));
}

/// A damaged committed anchor (NaN where a throughput belongs) parses — the
/// format is lenient so damage is diagnosable — but cannot gate.
#[test]
fn damaged_anchor_parses_then_fails_gate() {
    let a = Anchor {
        schema: SCHEMA_VERSION,
        scenario: "exec".into(),
        tier: "smoke".into(),
        provenance: vec![("git".into(), "test".into())],
        metrics: vec![Metric::time_hi("pooled_warps_per_sec", f64::NAN)],
    };
    let reparsed = Anchor::parse(&a.render()).unwrap();
    assert!(reparsed.metrics[0].value.is_nan());
    let current =
        Anchor { metrics: vec![Metric::time_hi("pooled_warps_per_sec", 50.0)], ..a.clone() };
    let report = compare(&reparsed, &current, &Gates::default().default);
    assert!(report.failures().any(|f| f.kind == FindingKind::InvalidAnchor));
}

/// ROADMAP item-1 leftover, closed: p99 malloc latency is anchored — and
/// therefore regression-gated by `repro gate` — for every default manager
/// family, not just a favoured few. A family silently dropping out of the
/// committed latency anchor (e.g. a registry edit that narrows the sweep)
/// fails here, and the perturbation check proves the gate actually bites
/// on a per-family p99 key.
#[test]
fn latency_anchor_gates_p99_for_every_family() {
    let root = repo_root();
    let path = Anchor::path_for(root, "latency");
    let text = std::fs::read_to_string(&path).expect("latency anchor must be committed");
    let a = Anchor::parse(&text).unwrap();

    for kind in gpumem_bench::registry::DEFAULT_KINDS {
        let key = format!("{}/malloc_p99_ns", kind.label());
        let m = a
            .metrics
            .iter()
            .find(|m| m.key == key)
            .unwrap_or_else(|| panic!("latency anchor misses {key}"));
        assert!(m.class != MetricClass::Exact, "{key} must carry a tolerance class");
        assert!(m.value.is_finite() && m.value > 0.0, "{key} must be a usable gate base");
    }

    // And the gate genuinely bites on a per-family p99: blow one reading
    // past the (already generous) latency tolerance and expect a failure.
    let gates = Gates::parse(&std::fs::read_to_string(root.join("gates.toml")).unwrap()).unwrap();
    let tol = gates.tolerances("latency");
    let key = "Reg-Eff-C/malloc_p99_ns";
    let mut hurt = a.clone();
    hurt.metrics.iter_mut().find(|m| m.key == key).unwrap().value *= 1000.0;
    let report = compare(&a, &hurt, &tol);
    assert!(
        report.failures().any(|f| f.kind == FindingKind::Regression && f.key == key),
        "a 1000x p99 regression on {key} must fail the latency gate"
    );
}

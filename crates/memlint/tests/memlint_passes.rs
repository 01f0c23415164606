//! Fixture batteries and workspace-clean gates for the analysis passes
//! layered on top of the original atomics scanner: offset arithmetic,
//! hot-path panics/allocation and lock ordering.
//!
//! Each pass has a known-bad fixture (every rule must fire, on the exact
//! expected line) and a known-good fixture (the checked/waived/unreachable
//! shapes must stay silent). The final gate re-scans the live workspace
//! and requires zero *standing* findings per pass — the same bar
//! `memlint --deny` and CI enforce.

use std::path::Path;

use memlint::{scan_source, scan_workspace, Diagnostic, Pass, Rule};

const OFFSETS_BAD: &str = include_str!("fixtures/offsets_bad.rs");
const OFFSETS_GOOD: &str = include_str!("fixtures/offsets_good.rs");
const HOTPATH_BAD: &str = include_str!("fixtures/hotpath_bad.rs");
const HOTPATH_GOOD: &str = include_str!("fixtures/hotpath_good.rs");
const LOCKS_BAD: &str = include_str!("fixtures/locks_bad.rs");
const LOCKS_GOOD: &str = include_str!("fixtures/locks_good.rs");

fn scan(name: &str, src: &str) -> Vec<Diagnostic> {
    scan_source(Path::new(name), src)
}

/// Standing (non-waived) findings of one pass as `(rule, line)` pairs.
fn standing(hits: &[Diagnostic], pass: Pass) -> Vec<(Rule, usize)> {
    hits.iter()
        .filter(|d| d.allowed.is_none() && d.pass() == pass)
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn offsets_bad_fires_on_every_taint_shape() {
    let hits = scan("offsets_bad.rs", OFFSETS_BAD);
    let got = standing(&hits, Pass::OffsetArithmetic);
    for line in [6, 10, 14, 18] {
        assert!(
            got.contains(&(Rule::UncheckedOffsetArithmetic, line)),
            "expected unchecked-offset-arithmetic at offsets_bad.rs:{line}; got {got:?}"
        );
    }
}

#[test]
fn offsets_good_stays_silent() {
    let hits = scan("offsets_good.rs", OFFSETS_GOOD);
    assert!(
        standing(&hits, Pass::OffsetArithmetic).is_empty(),
        "false positives on offsets_good.rs: {hits:?}"
    );
    // The deliberately-waived raw `+` is recorded with its reason intact.
    assert!(hits.iter().any(|d| d.rule == Rule::UncheckedOffsetArithmetic && d.allowed.is_some()));
}

#[test]
fn hotpath_bad_fires_both_rules_through_the_call_graph() {
    let hits = scan("hotpath_bad.rs", HOTPATH_BAD);
    let got = standing(&hits, Pass::HotPath);
    // In `malloc` directly: host allocation and an assert.
    assert!(got.contains(&(Rule::HotPathHostAlloc, 10)), "to_string: {got:?}");
    assert!(got.contains(&(Rule::HotPathPanic, 11)), "assert!: {got:?}");
    // In `reserve`, reached only through the in-crate call graph.
    assert!(got.contains(&(Rule::HotPathHostAlloc, 16)), "Vec::push: {got:?}");
    assert!(got.contains(&(Rule::HotPathPanic, 17)), "unwrap: {got:?}");
}

#[test]
fn hotpath_good_stays_silent() {
    let hits = scan("hotpath_good.rs", HOTPATH_GOOD);
    // debug_assert! compiles out, `.push(` resolves to the in-crate `fn
    // push`, and `build_harness` is unreachable from the hot roots.
    assert!(
        standing(&hits, Pass::HotPath).is_empty(),
        "false positives on hotpath_good.rs: {hits:?}"
    );
}

#[test]
fn locks_bad_reports_cycle_and_gate_nesting() {
    let hits = scan("locks_bad.rs", LOCKS_BAD);
    let got = standing(&hits, Pass::LockOrder);
    assert!(
        got.iter().any(|&(r, _)| r == Rule::LockOrderCycle),
        "opposite-order alpha/beta must form a cycle: {got:?}"
    );
    assert!(
        got.iter().any(|&(r, line)| r == Rule::LockAcrossLaunchGate && line == 34),
        "state acquired under launch_gate must fire at line 34: {got:?}"
    );
}

#[test]
fn locks_good_stays_silent() {
    let hits = scan("locks_good.rs", LOCKS_GOOD);
    // Consistent order is not a cycle; the block-scoped guard is released
    // before the next acquisition.
    assert!(
        standing(&hits, Pass::LockOrder).is_empty(),
        "false positives on locks_good.rs: {hits:?}"
    );
}

/// Union of the bad fixtures exercises every analysis rule outside the
/// atomics pass (which has its own battery in `rules.rs`).
#[test]
fn bad_fixtures_cover_every_new_rule() {
    let mut fired: Vec<Rule> = [
        scan("offsets_bad.rs", OFFSETS_BAD),
        scan("hotpath_bad.rs", HOTPATH_BAD),
        scan("locks_bad.rs", LOCKS_BAD),
    ]
    .iter()
    .flatten()
    .map(|d| d.rule)
    .collect();
    fired.sort_by_key(|r| r.name());
    fired.dedup();
    for pass in [Pass::OffsetArithmetic, Pass::HotPath, Pass::LockOrder] {
        for rule in pass.rules() {
            assert!(fired.contains(&rule), "no bad fixture fires {rule}");
        }
    }
}

/// The acceptance gate: every analysis pass runs clean over the live
/// workspace — findings are either fixed or carry a reasoned waiver.
#[test]
fn workspace_is_clean_per_pass() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_workspace(&root).expect("workspace scan");
    for pass in Pass::ANALYSIS {
        let (standing, _allowed) = report.pass_counts(pass);
        let details: Vec<String> =
            report.denied().filter(|d| d.pass() == pass).map(|d| d.to_string()).collect();
        assert_eq!(standing, 0, "pass {pass} has standing findings:\n{}", details.join("\n"));
    }
    // The audit must have real breadth: waivers exist in multiple passes.
    for pass in [Pass::OffsetArithmetic, Pass::HotPath, Pass::LockOrder] {
        let (_s, allowed) = report.pass_counts(pass);
        assert!(allowed > 0, "pass {pass} recorded no waivers — scope regressed?");
    }
}

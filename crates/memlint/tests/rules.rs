//! Rule battery over the known-bad / known-good fixtures, plus the
//! workspace-clean gate.
//!
//! Each bad fixture must fire its rules on the exact expected lines; each
//! good fixture (the checked, waived and masked shapes) must stay silent.
//! The final gate re-scans the live workspace and requires zero *standing*
//! findings per rule — the same bar `memlint --deny` and CI enforce.

use std::path::Path;

use memlint::{scan_source, scan_workspace, Diagnostic, Rule};

const KNOWN_BAD: &str = include_str!("fixtures/known_bad.rs");
const KNOWN_GOOD: &str = include_str!("fixtures/known_good.rs");
const OFFSETS_BAD: &str = include_str!("fixtures/offsets_bad.rs");
const OFFSETS_GOOD: &str = include_str!("fixtures/offsets_good.rs");

/// Every finding as `(rule, line, waived)`.
fn scan(name: &str, src: &str) -> Vec<(Rule, usize, bool)> {
    scan_source(Path::new(name), src)
        .iter()
        .map(|d: &Diagnostic| (d.rule, d.line, d.allowed.is_some()))
        .collect()
}

#[test]
fn known_bad_lines_are_exact() {
    // The only allow directive in the bad fixture is reasonless: it waives
    // nothing (its CAS still stands) and is itself a finding.
    let got = scan("known_bad.rs", KNOWN_BAD);
    let want = [
        (Rule::RawAtomicImport, 5, false),
        (Rule::RelaxedCasSuccess, 9, false),
        (Rule::RelaxedCasSuccess, 14, false),
        (Rule::AllowMissingReason, 23, false),
        (Rule::RelaxedCasSuccess, 25, false),
    ];
    assert_eq!(got, want);
}

#[test]
fn known_good_is_clean() {
    // The deliberate showcase entry is waived with its reason intact.
    assert_eq!(scan("known_good.rs", KNOWN_GOOD), [(Rule::RelaxedCasSuccess, 16, true)]);
}

#[test]
fn offsets_bad_fires_on_every_taint_shape() {
    let got = scan("offsets_bad.rs", OFFSETS_BAD);
    let want: Vec<_> =
        [6, 10, 14, 18].map(|line| (Rule::UncheckedOffsetArithmetic, line, false)).into();
    assert_eq!(got, want);
}

#[test]
fn offsets_good_stays_silent() {
    // Only the deliberately waived raw `+` is recorded.
    assert_eq!(
        scan("offsets_good.rs", OFFSETS_GOOD),
        [(Rule::UncheckedOffsetArithmetic, 26, true)]
    );
}

/// The acceptance gate: every rule runs clean over the live workspace —
/// findings are either fixed or carry a reasoned waiver — and the audit
/// actually covered the allocator crates.
#[test]
fn workspace_is_clean_per_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_workspace(&root).expect("workspace scan");
    assert!(report.files > 30, "suspiciously few files scanned: {}", report.files);
    for rule in Rule::ALL {
        let details: Vec<String> =
            report.denied().filter(|d| d.rule == rule).map(|d| d.to_string()).collect();
        assert!(details.is_empty(), "rule {rule} has standing findings:\n{}", details.join("\n"));
    }
    for d in report.allowlisted() {
        let reason = d.allowed.as_deref().unwrap();
        assert!(reason.len() >= 10, "threadbare reason at {}:{}", d.file.display(), d.line);
    }
    // The waiver inventory is pinned: a site that drops out of scope or stops
    // parsing changes these counts, and so does a new waiver.
    assert_eq!(report.counts(Rule::RelaxedCasSuccess), (0, 4));
    assert_eq!(report.counts(Rule::UncheckedOffsetArithmetic), (0, 11));
    // The Vyukov ticket-ring CASes are present as *allowlisted* findings.
    let cas_waived_in = |suffix: &str| {
        report.allowlisted().any(|d| {
            d.rule == Rule::RelaxedCasSuccess && d.file.to_string_lossy().ends_with(suffix)
        })
    };
    assert!(cas_waived_in("alloc-ouroboros/src/queues.rs"));
    assert!(cas_waived_in("alloc-xmalloc/src/fifo.rs"));
}

//! # memlint — multi-pass heap-safety static analyzer
//!
//! The model checker (`gpumem_core::sync` under `--cfg loom`) explores
//! *sequentially consistent* interleavings at tiny bounds; the sanitizer
//! and Probe audits catch bugs only when a test tier happens to drive the
//! broken path. memlint covers the static half of the audit: it parses the
//! workspace source once (masked text + function/struct/impl extents — see
//! [`substrate`]) and runs a registry of analysis **passes** over it, each
//! with its own rule catalog, reporting `file:line` diagnostics.
//!
//! ## Passes
//!
//! | pass | rules | smell |
//! |------|-------|-------|
//! | `atomics` | `relaxed-cas-success`, `relaxed-store-after-claim`, `raw-atomic-import`, `atomic-transmute`, `shared-unsafe-cell` | ordering smells: patterns correct under SC but broken (or unreviewable) under the real memory model |
//! | `offset-arithmetic` | `unchecked-offset-arithmetic` | raw `+`/`*`/`<<` on heap offsets, byte counts and page indices outside the checked helpers (`checked_add`, `checked_next_pow2`, the `SizingError` paths) — the overflow class PRs 2 and 7 fixed by hand |
//! | `hot-path` | `hot-path-panic`, `hot-path-host-alloc` | `panic!`/`unwrap`/`expect`/`assert!` and host allocation (`Vec::push`, `Box::new`, `format!`…) inside `malloc`/`free`/`malloc_warp`/`free_warp` implementations and the in-crate functions they call: simulated device kernels must never host-allocate or unwind mid-protocol |
//! | `lock-order` | `lock-order-cycle`, `lock-across-launch-gate` | per-function lock-acquisition graph over `gpu-sim` and the allocator crates: ordering cycles deadlock, and any lock taken under the executor's `launch_gate` repeats the PR 5 hazard |
//! | `decorator-forwarding` | `decorator-missing-forward` | a `DeviceAllocator` decorator (`impl<A: DeviceAllocator> DeviceAllocator for X<A>`) that fails to override a defaulted trait method silently drops the inner manager's specialised behaviour — the bug class PR 8's runtime Probe audit checked dynamically |
//!
//! The waiver audit (`allow-missing-reason`) rides along as a framework
//! rule: a directive without a written reason, or naming an unknown rule,
//! is itself a standing finding.
//!
//! ## Waivers
//!
//! A diagnostic is waived by a directive on the same line or the line
//! directly above. One directive may name several rules:
//!
//! ```text
//! // memlint: allow(hot-path-panic) — poison propagation of the simulated device lock
//! // memlint: allow(unchecked-offset-arithmetic, hot-path-host-alloc) — reason text
//! ```
//!
//! The reason text after the dash is mandatory: an allow without one still
//! fails `--deny` (rule `allow-missing-reason`), so every waived smell in
//! the tree carries a written justification.
//!
//! ## Scope and shape
//!
//! The scanner is a hand-rolled lexical pass (the container has no `syn`):
//! it masks comments, strings and `#[cfg(test)]` regions, then does
//! paren/brace-matched extraction of call sites, function extents and
//! struct/impl extents. That is deliberately dumb — it reads the code the
//! way a reviewer skims it — and errs on the side of flagging: anything it
//! cannot prove boring needs either a fix or a written reason.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod passes;
pub mod substrate;

use substrate::Workspace;

// ---------------------------------------------------------------- passes

/// The analysis passes, in reporting order. `Waivers` is the framework's
/// own audit of the allow directives rather than a source analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Atomics-ordering smells (the original memlint).
    Atomics,
    /// Unchecked offset/byte/page arithmetic.
    OffsetArithmetic,
    /// Panics and host allocation inside device hot paths.
    HotPath,
    /// Lock-acquisition ordering across the executor and allocators.
    LockOrder,
    /// DeviceAllocator decorator forwarding completeness.
    DecoratorForwarding,
    /// Waiver-directive hygiene (framework rule).
    Waivers,
}

impl Pass {
    /// Every pass, in reporting order.
    pub const ALL: [Pass; 6] = [
        Pass::Atomics,
        Pass::OffsetArithmetic,
        Pass::HotPath,
        Pass::LockOrder,
        Pass::DecoratorForwarding,
        Pass::Waivers,
    ];

    /// The five source-analysis passes (everything but the waiver audit).
    pub const ANALYSIS: [Pass; 5] = [
        Pass::Atomics,
        Pass::OffsetArithmetic,
        Pass::HotPath,
        Pass::LockOrder,
        Pass::DecoratorForwarding,
    ];

    /// Kebab-case name used in reports, CSV/JSON records and docs.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Atomics => "atomics",
            Pass::OffsetArithmetic => "offset-arithmetic",
            Pass::HotPath => "hot-path",
            Pass::LockOrder => "lock-order",
            Pass::DecoratorForwarding => "decorator-forwarding",
            Pass::Waivers => "waivers",
        }
    }

    /// The pass's rule catalog.
    pub fn rules(self) -> Vec<Rule> {
        Rule::ALL.into_iter().filter(|r| r.pass() == self).collect()
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------- rules

/// The rule catalog, across every pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `compare_exchange*` with `Relaxed` success ordering.
    RelaxedCasSuccess,
    /// `Relaxed` store after an acquiring CAS, never published.
    RelaxedStoreAfterClaim,
    /// `std::sync::atomic` used outside the facade.
    RawAtomicImport,
    /// `transmute` involving atomic types.
    AtomicTransmute,
    /// `UnsafeCell` field in a (shared) struct.
    SharedUnsafeCell,
    /// Raw `+`/`*`/`<<` on offset/byte/page quantities outside the checked
    /// helpers.
    UncheckedOffsetArithmetic,
    /// Panic/unwind machinery inside a device hot path.
    HotPathPanic,
    /// Host allocation inside a device hot path.
    HotPathHostAlloc,
    /// Lock acquisition completing an ordering cycle.
    LockOrderCycle,
    /// Lock acquired while the executor's launch gate is held.
    LockAcrossLaunchGate,
    /// Decorator impl missing an override of a defaulted trait method.
    DecoratorMissingForward,
    /// Allowlist directive without a reason (or with an unknown rule).
    AllowMissingReason,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 12] = [
        Rule::RelaxedCasSuccess,
        Rule::RelaxedStoreAfterClaim,
        Rule::RawAtomicImport,
        Rule::AtomicTransmute,
        Rule::SharedUnsafeCell,
        Rule::UncheckedOffsetArithmetic,
        Rule::HotPathPanic,
        Rule::HotPathHostAlloc,
        Rule::LockOrderCycle,
        Rule::LockAcrossLaunchGate,
        Rule::DecoratorMissingForward,
        Rule::AllowMissingReason,
    ];

    /// Kebab-case name used in diagnostics and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::RelaxedCasSuccess => "relaxed-cas-success",
            Rule::RelaxedStoreAfterClaim => "relaxed-store-after-claim",
            Rule::RawAtomicImport => "raw-atomic-import",
            Rule::AtomicTransmute => "atomic-transmute",
            Rule::SharedUnsafeCell => "shared-unsafe-cell",
            Rule::UncheckedOffsetArithmetic => "unchecked-offset-arithmetic",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::HotPathHostAlloc => "hot-path-host-alloc",
            Rule::LockOrderCycle => "lock-order-cycle",
            Rule::LockAcrossLaunchGate => "lock-across-launch-gate",
            Rule::DecoratorMissingForward => "decorator-missing-forward",
            Rule::AllowMissingReason => "allow-missing-reason",
        }
    }

    /// The pass this rule belongs to.
    pub fn pass(self) -> Pass {
        match self {
            Rule::RelaxedCasSuccess
            | Rule::RelaxedStoreAfterClaim
            | Rule::RawAtomicImport
            | Rule::AtomicTransmute
            | Rule::SharedUnsafeCell => Pass::Atomics,
            Rule::UncheckedOffsetArithmetic => Pass::OffsetArithmetic,
            Rule::HotPathPanic | Rule::HotPathHostAlloc => Pass::HotPath,
            Rule::LockOrderCycle | Rule::LockAcrossLaunchGate => Pass::LockOrder,
            Rule::DecoratorMissingForward => Pass::DecoratorForwarding,
            Rule::AllowMissingReason => Pass::Waivers,
        }
    }

    /// Parses an allow-directive rule name.
    pub fn from_name(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// File the smell lives in (workspace-relative when scanned via
    /// [`scan_workspace`]).
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description of the concrete site.
    pub message: String,
    /// `Some(reason)` when an allow directive with a written reason waives
    /// this diagnostic.
    pub allowed: Option<String>,
}

impl Diagnostic {
    /// The pass that produced this diagnostic.
    pub fn pass(&self) -> Pass {
        self.rule.pass()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// Scan result over a file set.
#[derive(Default)]
pub struct Report {
    /// Every finding, allowlisted or not.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files: usize,
}

impl Report {
    /// Findings that stand (not waived): what `--deny` gates on.
    pub fn denied(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.allowed.is_none())
    }

    /// Findings waived by a reasoned allow directive.
    pub fn allowlisted(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.allowed.is_some())
    }

    /// Whether `--deny` would pass.
    pub fn is_clean(&self) -> bool {
        self.denied().next().is_none()
    }

    /// `(standing, allowlisted)` counts for one pass.
    pub fn pass_counts(&self, pass: Pass) -> (usize, usize) {
        let mut standing = 0;
        let mut allowed = 0;
        for d in &self.diagnostics {
            if d.pass() == pass {
                if d.allowed.is_some() {
                    allowed += 1;
                } else {
                    standing += 1;
                }
            }
        }
        (standing, allowed)
    }
}

// -------------------------------------------------------------- allowlist

struct Allow {
    line: usize,
    /// Each named rule: parsed form plus the raw text (for unknown-rule
    /// reporting).
    rules: Vec<(Option<Rule>, String)>,
    reason: Option<String>,
}

/// Extracts `// memlint: allow(rule[, rule…]) — reason` directives from the
/// *unmasked* source (they live in comments).
fn directives(src: &str) -> Vec<Allow> {
    let mut v = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(p) = line.find("memlint: allow(") else {
            continue;
        };
        let rest = &line[p + "memlint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules = rest[..close]
            .split(',')
            .map(|raw| {
                let raw = raw.trim().to_string();
                (Rule::from_name(&raw), raw)
            })
            .collect();
        let after = rest[close + 1..].trim_start();
        // Reason separator: em dash, en dash, hyphen(s) or a colon.
        let reason = ["—", "–", "-", ":"]
            .iter()
            .find_map(|sep| after.strip_prefix(sep))
            .map(|r| r.trim_start_matches(['—', '–', '-', ':', ' ']).trim())
            .filter(|r| !r.is_empty())
            .map(str::to_string);
        v.push(Allow { line: idx + 1, rules, reason });
    }
    v
}

// ------------------------------------------------------------------ scan

/// Scans a set of sources together: workspace-level passes (lock graphs,
/// decorator audits) see the whole set, per-file rules each file. This is
/// the core entry point; [`scan_source`] and [`scan_workspace`] wrap it.
pub fn scan_files(sources: Vec<(PathBuf, String)>) -> Report {
    let ws = Workspace::from_sources(sources);
    let mut out: Vec<Diagnostic> = Vec::new();
    for pass in passes::registry() {
        (pass.run)(&ws, &mut out);
    }

    // Apply the allowlist, then audit the directives themselves.
    for file in &ws.files {
        let allows = directives(&file.src);
        for d in out.iter_mut().filter(|d| d.file == file.rel) {
            let fired = allows.iter().find(|a| {
                (a.line == d.line || a.line + 1 == d.line)
                    && a.rules.iter().any(|(r, _)| *r == Some(d.rule))
            });
            if let Some(a) = fired {
                // A reasonless allow waives nothing: the directive itself
                // becomes the finding (below), keeping --deny red.
                d.allowed = a.reason.clone();
            }
        }
        for a in &allows {
            for (rule, raw) in &a.rules {
                let msg = match (rule, &a.reason) {
                    (None, _) => format!("allow directive names unknown rule `{raw}`"),
                    (Some(_), None) => {
                        format!("allow({raw}) has no reason — write `— <why this site is sound>`")
                    }
                    _ => continue,
                };
                out.push(Diagnostic {
                    file: file.rel.clone(),
                    line: a.line,
                    rule: Rule::AllowMissingReason,
                    message: msg,
                    allowed: None,
                });
            }
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.rule.name()).cmp(&(&b.file, b.line, b.rule.name())));
    // Two edges can land on one site (a lock nested under two held guards);
    // one diagnostic — and one waiver — per (file, line, rule) is enough.
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    Report { files: ws.files.len(), diagnostics: out }
}

/// Scans one file's source text. `file` labels the diagnostics (and
/// exempts the facade itself from `raw-atomic-import`).
pub fn scan_source(file: &Path, src: &str) -> Vec<Diagnostic> {
    scan_files(vec![(file.to_path_buf(), src.to_string())]).diagnostics
}

// -------------------------------------------------------------- workspace

/// Whether a workspace-relative path is audited. Shims are out of scope
/// (the loom shim *implements* the facade's backend), memlint's own
/// sources talk about the smells by name, and only `src/` trees ship. The
/// repo benchmark (`benchmark/`, its own package outside the workspace) is a
/// measuring harness on the inline device, not allocator code: its atomics
/// are counters, and the loom build never sees it.
fn audited(rel: &Path) -> bool {
    let s = rel.to_string_lossy();
    if !s.ends_with(".rs") {
        return false;
    }
    let under_src = s.starts_with("src/") || s.contains("/src/");
    under_src
        && !s.starts_with("shims/")
        && !s.starts_with("crates/memlint/")
        && !s.starts_with("benchmark/")
        && !s.starts_with("target/")
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, files)?;
        } else {
            files.push(path);
        }
    }
    Ok(())
}

/// Scans every audited `.rs` file under `root` (a workspace checkout).
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if !audited(&rel) {
            continue;
        }
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok(scan_files(sources))
}

// ------------------------------------------------------------------ json

/// Renders the report as a JSON document: one record per diagnostic with
/// `file`/`line`/`pass`/`rule`/`allowed`/`reason`/`message` fields, plus
/// summary counts. Hand-rolled (the workspace has no serde); consumed by
/// `memlint --json`, `repro audit`, and downstream CI annotators.
pub fn render_json(report: &Report) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"files\": {},\n", report.files));
    s.push_str(&format!("  \"standing\": {},\n", report.denied().count()));
    s.push_str(&format!("  \"allowlisted\": {},\n", report.allowlisted().count()));
    s.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    { ");
        s.push_str(&format!("\"file\": \"{}\", ", json_escape(&d.file.to_string_lossy())));
        s.push_str(&format!("\"line\": {}, ", d.line));
        s.push_str(&format!("\"pass\": \"{}\", ", d.pass().name()));
        s.push_str(&format!("\"rule\": \"{}\", ", d.rule.name()));
        s.push_str(&format!("\"allowed\": {}, ", d.allowed.is_some()));
        match &d.allowed {
            Some(r) => s.push_str(&format!("\"reason\": \"{}\", ", json_escape(r))),
            None => s.push_str("\"reason\": null, "),
        }
        s.push_str(&format!("\"message\": \"{}\" }}", json_escape(&d.message)));
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Minimal JSON string escaping.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cas_success_ordering_parsed_across_lines() {
        let src = "fn f(a: &AtomicU32) {\n    let _ = a.compare_exchange_weak(\n        0,\n        1,\n        Ordering::Relaxed,\n        Ordering::Relaxed,\n    );\n}\n";
        let d = scan_source(Path::new("x.rs"), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::RelaxedCasSuccess);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn allow_on_previous_line_waives_with_reason() {
        let src = "fn f(a: &AtomicU32) {\n    // memlint: allow(relaxed-cas-success) — ticket ring, seq publishes\n    let _ = a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);\n}\n";
        let d = scan_source(Path::new("x.rs"), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].allowed.as_deref(), Some("ticket ring, seq publishes"));
    }

    #[test]
    fn reasonless_allow_still_fails() {
        let src = "// memlint: allow(atomic-transmute)\nfn f() {}\n";
        let d = scan_source(Path::new("x.rs"), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::AllowMissingReason);
    }

    #[test]
    fn multi_rule_directive_waives_each_named_rule() {
        let src = "fn place(off: u64, size: u64) -> u64 {\n    // memlint: allow(unchecked-offset-arithmetic, relaxed-cas-success) — bounded by construction, test of the comma grammar\n    off + size\n}\n";
        let d = scan_source(Path::new("x.rs"), src);
        assert!(
            d.iter().all(|d| d.rule != Rule::UncheckedOffsetArithmetic || d.allowed.is_some()),
            "comma-listed rule must be waived: {d:?}"
        );
        assert!(d.iter().all(|d| d.rule != Rule::AllowMissingReason));
    }

    #[test]
    fn unknown_rule_in_comma_list_is_flagged() {
        let src = "// memlint: allow(hot-path-panic, no-such-rule) — reason here\nfn f() {}\n";
        let d = scan_source(Path::new("x.rs"), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::AllowMissingReason);
        assert!(d[0].message.contains("no-such-rule"));
    }

    #[test]
    fn test_modules_are_not_audited() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicU32) {\n        let _ = a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);\n    }\n}\n";
        assert!(scan_source(Path::new("x.rs"), src).is_empty());
    }

    #[test]
    fn every_rule_maps_to_a_pass_and_back() {
        for rule in Rule::ALL {
            assert!(rule.pass().rules().contains(&rule), "{rule} missing from its pass catalog");
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        let total: usize = Pass::ALL.iter().map(|p| p.rules().len()).sum();
        assert_eq!(total, Rule::ALL.len(), "every rule belongs to exactly one pass");
    }

    #[test]
    fn json_rendering_escapes_and_counts() {
        let report = Report {
            files: 1,
            diagnostics: vec![Diagnostic {
                file: PathBuf::from("a \"b\".rs"),
                line: 3,
                rule: Rule::HotPathPanic,
                message: "line1\nline2".into(),
                allowed: None,
            }],
        };
        let j = render_json(&report);
        assert!(j.contains("\"pass\": \"hot-path\""));
        assert!(j.contains("\"rule\": \"hot-path-panic\""));
        assert!(j.contains("a \\\"b\\\".rs"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"standing\": 1"));
    }
}

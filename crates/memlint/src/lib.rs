//! # memlint — the workspace's lexical source rules
//!
//! The model checker (`gpumem_core::sync` under `--cfg loom`) explores
//! *sequentially consistent* interleavings at tiny bounds; clippy checks
//! what the type system can see. memlint keeps the three rules that neither
//! does, as one per-file scan over masked source (see [`substrate`]),
//! reporting `file:line` diagnostics:
//!
//! | rule | smell |
//! |------|-------|
//! | `relaxed-cas-success` | `compare_exchange*` whose success ordering is `Relaxed`: correct under SC, publishes nothing under the real memory model |
//! | `raw-atomic-import` | `std::sync::atomic` outside the `gpumem_core::sync` facade, so invisible to loom |
//! | `unchecked-offset-arithmetic` | raw `+`/`*`/`<<` on heap offsets, byte counts and page indices outside a checked helper: wraps silently in release, where a wrapped bounds check passes |
//!
//! The waiver audit (`allow-missing-reason`) rides along: a directive
//! without a written reason, or naming an unknown rule, is itself a
//! standing finding.
//!
//! ## Waivers
//!
//! A diagnostic is waived by a directive on the same line or the line
//! directly above. One directive may name several rules:
//!
//! ```text
//! // memlint: allow(relaxed-cas-success) — ticket claim; the seq word publishes
//! // memlint: allow(unchecked-offset-arithmetic, relaxed-cas-success) — reason text
//! ```
//!
//! The reason text after the dash is mandatory: an allow without one still
//! fails `--deny` (rule `allow-missing-reason`), so every waived smell in
//! the tree carries a written justification.
//!
//! ## Scope and shape
//!
//! The scanner is a hand-rolled lexical pass (the workspace has no `syn`):
//! it masks comments, strings and `#[cfg(test)]` regions, then does
//! paren/brace-matched extraction of call sites and function bodies. That
//! is deliberately dumb — it reads the code the way a person skims it —
//! and errs on the side of flagging: anything it cannot prove boring needs
//! either a fix or a written reason.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

mod rules;
pub mod substrate;

use substrate::SourceFile;

// -------------------------------------------------------------- catalog

/// The rule catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `compare_exchange*` with `Relaxed` success ordering.
    RelaxedCasSuccess,
    /// `std::sync::atomic` used outside the facade.
    RawAtomicImport,
    /// Raw `+`/`*`/`<<` on offset/byte/page quantities outside the checked
    /// helpers.
    UncheckedOffsetArithmetic,
    /// Allowlist directive without a reason (or with an unknown rule).
    AllowMissingReason,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 4] = [
        Rule::RawAtomicImport,
        Rule::RelaxedCasSuccess,
        Rule::UncheckedOffsetArithmetic,
        Rule::AllowMissingReason,
    ];

    /// Kebab-case name used in diagnostics and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::RelaxedCasSuccess => "relaxed-cas-success",
            Rule::RawAtomicImport => "raw-atomic-import",
            Rule::UncheckedOffsetArithmetic => "unchecked-offset-arithmetic",
            Rule::AllowMissingReason => "allow-missing-reason",
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

    /// `(standing, allowlisted)` counts for one rule.
    pub fn counts(&self, rule: Rule) -> (usize, usize) {
        let of_rule = self.diagnostics.iter().filter(|d| d.rule == rule);
        let allowed = of_rule.clone().filter(|d| d.allowed.is_some()).count();
        (of_rule.count() - allowed, allowed)
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

/// Scans one file: runs every rule, applies the file's allowlist, then
/// audits the directives themselves.
fn scan_file(rel: PathBuf, src: String) -> Vec<Diagnostic> {
    let file = SourceFile::new(rel, src);
    let mut out = Vec::new();
    rules::scan(&file, &mut out);
    let allows = directives(&file.src);
    for d in &mut out {
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
    out.sort_by(|a, b| (a.line, a.rule.name()).cmp(&(b.line, b.rule.name())));
    // A nested `fn` body is scanned with its parent, and two CASes can
    // share a line: one diagnostic — and one waiver — per (line, rule).
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

/// Scans one file's source text. `file` labels the diagnostics (and
/// exempts the facade itself from `raw-atomic-import`).
pub fn scan_source(file: &Path, src: &str) -> Vec<Diagnostic> {
    scan_file(file.to_path_buf(), src.to_string())
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
    let mut report = Report::default();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if !audited(&rel) {
            continue;
        }
        let src = fs::read_to_string(&path)?;
        report.diagnostics.extend(scan_file(rel, src));
        report.files += 1;
    }
    Ok(report)
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
        let src = "// memlint: allow(raw-atomic-import)\nfn f() {}\n";
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
        let src = "// memlint: allow(raw-atomic-import, no-such-rule) — reason here\nfn f() {}\n";
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
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("hot-path-panic"), None, "deleted rules are unknown");
    }
}

//! The three source rules, each a scan over one masked file.
//!
//! * `relaxed-cas-success` — the loom shim explores sequentially
//!   consistent interleavings only, so a winning CAS that publishes nothing
//!   under the real memory model is invisible to it.
//! * `raw-atomic-import` — `std::sync::atomic` outside the
//!   `gpumem_core::sync` facade is invisible to the loom build. clippy's
//!   `disallowed-types` cannot do this job: it resolves the facade's
//!   re-exports to the std types they name and flags every facade user.
//! * `unchecked-offset-arithmetic` — raw `+`/`*`/`<<` on heap offsets,
//!   byte counts and page indices. `size + HEADER > self.len` wraps in
//!   release builds when `size` is near `u64::MAX`, so the bounds check
//!   *passes* and the allocator hands out memory it does not own. The taint
//!   set is deliberately tight — `size`, `sz`, `off`, `offset`, `demand`,
//!   `page_idx`, `nbytes`, `byte_len` — so every finding is worth a human
//!   decision: a `checked_*` rewrite or a waiver stating the bound that
//!   makes the raw op safe. Statements that already go through a
//!   `checked_*`/`saturating_*`/`wrapping_*`/`overflowing_*` helper pass.

use crate::substrate::{
    cast_after, chain_tail_ident, find_all, is_ident_byte, match_delim, prev_non_ws, skip_ws,
    stmt_end, stmt_start, SourceFile,
};
use crate::{Diagnostic, Rule};

/// Runs every rule over one file.
pub(crate) fn scan(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    relaxed_cas_success(file, out);
    raw_atomic_import(file, out);
    unchecked_offset_arithmetic(file, out);
}

fn push(out: &mut Vec<Diagnostic>, file: &SourceFile, offset: usize, rule: Rule, message: String) {
    out.push(Diagnostic {
        file: file.rel.clone(),
        line: file.line_of(offset),
        rule,
        message,
        allowed: None,
    });
}

/// `compare_exchange(cur, new, success, failure)` whose success ordering —
/// the second-to-last `Ordering::` token of the call — is `Relaxed`.
fn relaxed_cas_success(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let masked = &file.masked;
    let mut sites = Vec::new();
    for pat in [".compare_exchange(", ".compare_exchange_weak("] {
        for at in find_all(masked, pat) {
            let open = at + pat.len() - 1;
            let Some(close) = match_delim(masked.as_bytes(), open) else { continue };
            let args = &masked[open + 1..close];
            let ords: Vec<&str> = find_all(args, "Ordering::")
                .into_iter()
                .map(|p| {
                    let rest = &args[p + "Ordering::".len()..];
                    &rest[..rest.find(|c: char| !c.is_ascii_alphanumeric()).unwrap_or(rest.len())]
                })
                .filter(|o| ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"].contains(o))
                .collect();
            if ords.len() >= 2 && ords[ords.len() - 2] == "Relaxed" {
                sites.push(at);
            }
        }
    }
    sites.sort_unstable();
    for at in sites {
        push(
            out,
            file,
            at,
            Rule::RelaxedCasSuccess,
            "compare_exchange success ordering is Relaxed — the winning CAS \
             publishes nothing; name the atomic that carries the edge"
                .into(),
        );
    }
}

/// `std::sync::atomic` anywhere but the facade file itself.
fn raw_atomic_import(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.rel.ends_with("core/src/sync.rs") {
        return;
    }
    for at in find_all(&file.masked, "std::sync::atomic") {
        push(
            out,
            file,
            at,
            Rule::RawAtomicImport,
            "raw std::sync::atomic use outside the gpumem_core::sync facade \
             — this code is invisible to the loom model checker"
                .into(),
        );
    }
}

/// Identifiers treated as heap-offset / byte-count / page-index values.
const TAINT: [&str; 8] =
    ["size", "sz", "off", "offset", "demand", "page_idx", "nbytes", "byte_len"];

/// Reads the identifier token starting at or just after `from` (skipping
/// whitespace and any leading `&` / `(`).
fn right_ident(masked: &str, from: usize) -> Option<(usize, String)> {
    let b = masked.as_bytes();
    let mut i = skip_ws(b, from);
    while i < b.len() && (b[i] == b'&' || b[i] == b'(') {
        i = skip_ws(b, i + 1);
    }
    let st = i;
    while i < b.len() && is_ident_byte(b[i]) {
        i += 1;
    }
    (i > st).then(|| (i, masked[st..i].to_string()))
}

/// Binary-operator sites for `+`, `*`, `<<` inside `lo..hi` of the masked
/// text, as `(at, op, end of op)`. Compound assignments (`+=`, `*=`,
/// `<<=`) are a different shape and out of scope; a unary use has no value
/// ending immediately to its left.
fn operator_sites(masked: &str, lo: usize, hi: usize) -> Vec<(usize, &'static str, usize)> {
    let b = masked.as_bytes();
    let mut v = Vec::new();
    let mut i = lo;
    while i < hi {
        let (op, width): (&'static str, usize) = match b[i] {
            b'+' => ("+", 1),
            b'*' => ("*", 1),
            b'<' if i + 1 < hi && b[i + 1] == b'<' => ("<<", 2),
            _ => {
                i += 1;
                continue;
            }
        };
        let after = i + width;
        if after < b.len() && b[after] == b'=' {
            i = after + 1;
            continue;
        }
        let left_ok = prev_non_ws(b, i)
            .map(|p| is_ident_byte(b[p]) || b[p] == b')' || b[p] == b']')
            .unwrap_or(false);
        if left_ok {
            v.push((i, op, after));
        }
        i = after;
    }
    v
}

fn unchecked_offset_arithmetic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let masked = &file.masked;
    for &(body_start, body_end) in &file.fn_bodies {
        for (at, op, after) in operator_sites(masked, body_start, body_end) {
            // Operand taint: the identifier chain ending at the operator
            // (`list.offset() + 16` → `offset`) or the one starting after it.
            let left = chain_tail_ident(masked, at);
            let right = right_ident(masked, after);
            let hit = [left.as_ref(), right.as_ref()]
                .into_iter()
                .flatten()
                .find(|(_, id)| TAINT.contains(&id.as_str()));
            let Some((_, id)) = hit else { continue };
            // Float casts carry no wrap hazard (`size as f64 * 1e-9`).
            if let Some((_, ty)) = right.as_ref().and_then(|&(end, _)| cast_after(masked, end)) {
                if ty == "f64" || ty == "f32" {
                    continue;
                }
            }
            let stmt = &masked[stmt_start(masked, at)..stmt_end(masked, at)];
            if ["checked_", "saturating_", "wrapping_", "overflowing_"]
                .iter()
                .any(|p| stmt.contains(p))
            {
                continue;
            }
            push(
                out,
                file,
                at,
                Rule::UncheckedOffsetArithmetic,
                format!(
                    "raw `{op}` on offset-tainted `{id}` — wraps silently in release \
                     (a wrapped bounds check passes); use checked_add/checked_mul/\
                     checked_shl or waive with the bound that makes this safe"
                ),
            );
        }
    }
}

//! The pass registry: one module per analysis pass, all running over the
//! shared [`substrate`](crate::substrate) workspace.
//!
//! A pass is a plain function `fn(&Workspace, &mut Vec<Diagnostic>)` — it
//! reads the pre-masked sources and item extents and appends diagnostics.
//! [`registry`] returns them in reporting order; `scan_files` runs each in
//! turn and then applies the allowlist uniformly, so passes never think
//! about waivers.

use crate::substrate::Workspace;
use crate::{Diagnostic, Pass};

pub mod atomics;
pub mod hotpath;
pub mod locks;
pub mod offsets;

/// One registered pass.
pub struct PassImpl {
    /// Identity (name, rule catalog).
    pub pass: Pass,
    /// The analysis itself.
    pub run: fn(&Workspace, &mut Vec<Diagnostic>),
}

/// Every source-analysis pass, in reporting order. (The `waivers` pass is
/// the framework's own directive audit and runs inside `scan_files`.)
pub fn registry() -> Vec<PassImpl> {
    vec![
        PassImpl { pass: Pass::Atomics, run: atomics::run },
        PassImpl { pass: Pass::OffsetArithmetic, run: offsets::run },
        PassImpl { pass: Pass::HotPath, run: hotpath::run },
        PassImpl { pass: Pass::LockOrder, run: locks::run },
    ]
}

/// Pushes a diagnostic anchored at `offset` within `file`.
pub(crate) fn push(
    out: &mut Vec<Diagnostic>,
    file: &crate::substrate::SourceFile,
    offset: usize,
    rule: crate::Rule,
    message: String,
) {
    out.push(Diagnostic {
        file: file.rel.clone(),
        line: file.line_of(offset),
        rule,
        message,
        allowed: None,
    });
}

//! # gpumem-bench — the benchmark harness
//!
//! Reproduces every table and figure of the paper's evaluation (Section 4)
//! against the Rust ports of the surveyed managers:
//!
//! * [`registry`] — instantiate any manager by kind or by the artifact's
//!   `o+s+h+c+r+x` selector syntax.
//! * [`runners`] — one runner per test-case family: allocation performance
//!   (thread/warp), mixed sizes, scaling, fragmentation, out-of-memory,
//!   work generation, write/access performance, graph initialisation and
//!   graph updates, the §4.1 init/register measurements and the sanitizer
//!   sweep.
//! * [`matrix`] — the declarative scenario registry behind `repro matrix`,
//!   the one producer of paper-figure results: every figure's grid at
//!   tiny/smoke/full tier, one anchor per scenario.
//! * [`anchor`] — the schema-versioned `BENCH_<scenario>.json` format
//!   (provenance-stamped counts and model outputs, no timings) with a
//!   dependency-free parser.
//! * [`gate`] — the `repro gate` comparator: committed anchors vs a fresh
//!   run, every metric compared bit for bit.
//! * [`csv`] — the tables `table1` and `trace` print and write.
//!
//! The `repro` binary (in `src/bin`) drives everything: `repro matrix`
//! writes the anchors, `repro gate` checks their numbers, `repro trace`
//! writes the one per-run export (a Perfetto trace), and the paper's
//! qualitative shapes are asserted over the same runners by
//! `tests/paper_shapes.rs`.

use std::process::Command;
use std::sync::OnceLock;

pub mod anchor;
pub mod csv;
pub mod gate;
pub mod matrix;
pub mod registry;
pub mod runners;

/// The provenance stamp of the checkout a run came from: the short git
/// revision, with `-dirty` appended when `git status --porcelain` lists
/// anything, or `unknown` outside a checkout. Read once per process, so the
/// anchors of one `repro matrix` run agree even though writing the first of
/// them into the checkout dirties it.
pub fn git_rev() -> &'static str {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        let git = |args: &[&str]| {
            let out = Command::new("git").args(args).output().ok()?;
            out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        match (git(&["rev-parse", "--short", "HEAD"]), git(&["status", "--porcelain"])) {
            (Some(rev), Some(changes)) if changes.is_empty() => rev,
            (Some(rev), _) => format!("{rev}-dirty"),
            (None, _) => "unknown".to_string(),
        }
    })
}

//! Atomics discipline, as a plain-text scan of every `.rs` file under a
//! `src/` directory of the repo (`shims/`, `benchmark/` and `target/` are
//! not scanned; comment lines are skipped):
//!
//! * Every atomic goes through the `gpumem_core::sync` facade, so the loom
//!   build (`--cfg loom`) sees it. A `std::sync::atomic` or
//!   `core::sync::atomic` path anywhere but the facade fails.
//! * A winning compare-exchange publishes something. The loom shim explores
//!   only sequentially consistent schedules, so a `Relaxed` success ordering
//!   is invisible to it, and this scan is the one check on it. The exception
//!   is the four ticket rings: their slot sequence word carries the
//!   Release/Acquire edge, and the ticket CAS only claims the slot.

use std::fs;
use std::path::Path;

const FACADE: &str = "crates/core/src/sync.rs";

/// The CAS sites whose success ordering is `Relaxed`, by file and function.
const TICKET_RINGS: [(&str, &str); 4] = [
    ("crates/alloc-ouroboros/src/queues.rs", "dequeue_with"),
    ("crates/alloc-ouroboros/src/queues.rs", "enqueue_with"),
    ("crates/alloc-xmalloc/src/fifo.rs", "pop_with"),
    ("crates/alloc-xmalloc/src/fifo.rs", "push_with"),
];

/// Every scanned file as (path relative to the repo root, text with each
/// comment line blanked), sorted by path.
fn sources() -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, in_src: bool, out: &mut Vec<(String, String)>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() {
                if !name.starts_with('.') && !["shims", "benchmark", "target"].contains(&&*name) {
                    walk(root, &path, in_src || name == "src", out);
                }
            } else if in_src && name.ends_with(".rs") {
                let text = fs::read_to_string(&path).unwrap();
                let code: Vec<&str> = text
                    .lines()
                    .map(|l| if l.trim_start().starts_with("//") { "" } else { l })
                    .collect();
                let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
                out.push((rel, code.join("\n")));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    walk(root, root, false, &mut out);
    out.sort();
    assert!(out.iter().any(|(f, _)| f == FACADE), "the scan missed {FACADE}");
    out
}

fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

#[test]
fn every_atomic_goes_through_the_sync_facade() {
    let mut raw = Vec::new();
    for (file, text) in sources().iter().filter(|(f, _)| f != FACADE) {
        for path in ["std::sync::atomic", "core::sync::atomic"] {
            raw.extend(
                text.match_indices(path).map(|(at, _)| format!("{file}:{}", line_of(text, at))),
            );
        }
    }
    assert!(raw.is_empty(), "raw atomics outside {FACADE}, invisible to loom: {raw:#?}");
}

/// The name of the last `fn` declared before `at`.
fn enclosing_fn(text: &str, at: usize) -> &str {
    let decl = text[..at]
        .match_indices("fn ")
        .filter(|&(i, _)| i == 0 || text.as_bytes()[i - 1].is_ascii_whitespace())
        .last()
        .map_or(0, |(i, _)| i + 3);
    let name = &text[decl..];
    &name[..name.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(name.len())]
}

#[test]
fn only_the_ticket_rings_win_a_cas_relaxed() {
    let sources = sources();
    let mut relaxed = Vec::new();
    for (file, text) in &sources {
        for call in [".compare_exchange(", ".compare_exchange_weak("] {
            for (at, _) in text.match_indices(call) {
                // The argument list runs to the parenthesis that closes the call.
                let args = &text[at + call.len()..];
                let mut depth = 1;
                let close = args
                    .find(|c| {
                        depth += match c {
                            '(' => 1,
                            ')' => -1,
                            _ => 0,
                        };
                        depth == 0
                    })
                    .unwrap_or_else(|| panic!("{file}:{}: unclosed call", line_of(text, at)));
                let orderings: Vec<&str> = args[..close]
                    .split("Ordering::")
                    .skip(1)
                    .map(|o| o.split(|c: char| !c.is_alphanumeric()).next().unwrap())
                    .collect();
                if orderings.len() >= 2 && orderings[orderings.len() - 2] == "Relaxed" {
                    relaxed.push((file.as_str(), enclosing_fn(text, at)));
                }
            }
        }
    }
    relaxed.sort_unstable();
    assert_eq!(relaxed, TICKET_RINGS, "CAS sites whose success ordering is Relaxed");
}

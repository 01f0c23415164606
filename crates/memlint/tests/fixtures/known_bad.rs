//! Known-bad fixture: both atomics rules and the waiver audit must fire at
//! the annotated lines. Test data, never compiled — line numbers are
//! load-bearing, keep them in sync with `tests/rules.rs`.

use std::sync::atomic::{AtomicU32, Ordering}; // line 5: raw-atomic-import

pub fn publish_without_edge(flag: &AtomicU32) {
    // line 9: relaxed-cas-success (Relaxed success on the winning CAS)
    let _ = flag.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
}

pub fn multiline_relaxed_cas(flag: &AtomicU32) {
    // success ordering split across lines still parses: fires on line 14
    let _ = flag.compare_exchange_weak(
        0,
        1,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
}

// line 23: allow-missing-reason (directive without a reason)
// memlint: allow(relaxed-cas-success)
pub fn reasonless(flag: &AtomicU32) {
    let _ = flag.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
}

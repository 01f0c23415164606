//! Known-good fixture: correct ordering discipline plus a properly reasoned
//! allowlist entry — the scan must report nothing standing.
//! Test data only, never compiled.

use gpumem_core::sync::{AtomicU32, Ordering};

pub fn claim_and_publish(state: &AtomicU32, data: &AtomicU32) {
    if state.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
        data.store(42, Ordering::Relaxed);
        state.store(2, Ordering::Release);
    }
}

pub fn ticket_ring_claim(tail: &AtomicU32) {
    // memlint: allow(relaxed-cas-success) — ticket claim; the slot seq word carries the Release/Acquire edge.
    let _ = tail.compare_exchange_weak(0, 1, Ordering::Relaxed, Ordering::Relaxed);
}

pub fn strings_and_comments_are_not_code() {
    // a comment mentioning std::sync::atomic must not fire
    let _ = "std::sync::atomic::AtomicU32 in a string must not fire";
    let _ = "x.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed)";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smelly_test_code_is_exempt() {
        let a = AtomicU32::new(0);
        let _ = a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
    }
}

//! Atomics facade: `std::sync::atomic` normally, `loom` under `cfg(loom)`.
//!
//! Every crate in the workspace routes its atomics, fences and spin hints
//! through this module instead of importing `std::sync::atomic` directly
//! (`tests/atomics_discipline.rs` enforces this). The payoff: the
//! exact same allocator code compiles in two modes —
//!
//! * **Normal builds** re-export the `std` types; the facade costs nothing.
//! * **`RUSTFLAGS="--cfg loom"` builds** substitute the loom model-checker
//!   types, whose every operation is a scheduling point. Each allocator
//!   crate carries a `#[cfg(all(test, loom))] mod loom_tests` suite that
//!   exhaustively explores thread interleavings of its core protocol at
//!   small bounds (2–3 threads, preemption-bounded).
//!
//! The loom atomics are `repr(transparent)` over the `std` ones, so the
//! in-heap atomic views [`crate::DeviceHeap`] produces by pointer-casting
//! raw memory — and the `Box<[u64]> -> Box<[AtomicU64]>` table transmutes
//! some allocators use — remain sound in both modes, and even heap-resident
//! protocols (header CAS chains, in-heap queues) are model-checkable.
//!
//! What the loom mode explores is the space of *sequentially consistent*
//! interleavings under a preemption bound; it does not model weak-memory
//! reordering. Ordering discipline is checked by a source scan instead:
//! `tests/atomics_discipline.rs` fails on any compare-exchange whose success
//! ordering is `Relaxed` outside the four ticket rings it lists. DESIGN.md §9
//! spells out this division of labor.

#[cfg(not(loom))]
pub use std::sync::atomic::{
    fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};

#[cfg(loom)]
pub use loom::sync::atomic::{
    fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};

/// Spin hints, routed through the model checker under `cfg(loom)` so a
/// spinning thread yields to the peer that can change the awaited state.
pub mod hint {
    #[cfg(not(loom))]
    pub use std::hint::spin_loop;

    #[cfg(loom)]
    pub use loom::hint::spin_loop;
}

/// Thread handling for concurrency tests: model-checked threads under
/// `cfg(loom)`, plain `std` threads otherwise, so the same test body can
/// run as a loom model or as a stress test.
pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    #[cfg(loom)]
    pub use loom::thread::{spawn, yield_now, JoinHandle};
}

/// Runs `f` under the loom model checker when built with `--cfg loom`;
/// otherwise runs it once, directly. Lets a protocol test double as a plain
/// unit test in normal builds.
#[cfg(loom)]
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    loom::model(f);
}

/// See the `cfg(loom)` variant: without loom this simply invokes `f` once.
#[cfg(not(loom))]
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    f();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_atomics_roundtrip() {
        let a = AtomicU64::new(7);
        assert_eq!(a.load(Ordering::Acquire), 7);
        a.store(9, Ordering::Release);
        assert_eq!(a.swap(11, Ordering::AcqRel), 9);
        assert_eq!(a.compare_exchange(11, 13, Ordering::AcqRel, Ordering::Acquire), Ok(11));
        fence(Ordering::SeqCst);
        assert_eq!(a.load(Ordering::Relaxed), 13);
    }

    #[test]
    fn model_runs_closure_in_both_modes() {
        use std::sync::Arc;
        let hits = Arc::new(AtomicU32::new(0));
        let h = hits.clone();
        model(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.load(Ordering::SeqCst) >= 1);
    }
}

//! Offline stand-in for the `loom` model checker.
//!
//! The build container has no network access, so the real `loom` crate is
//! unavailable; this shim covers the subset of its API the workspace uses
//! (`loom::model`, `loom::thread::{spawn, yield_now}`, `loom::sync::Arc`,
//! `loom::sync::atomic::*`, `loom::hint::spin_loop`) with a working
//! model checker:
//!
//! * **Cooperative scheduling.** Model threads run on real OS threads, but a
//!   mutex/condvar baton guarantees exactly one runs at a time. Every atomic
//!   operation, fence, yield, spawn and join is a *scheduling point* where
//!   the scheduler picks which thread runs next.
//! * **Exhaustive DFS over schedules.** Each execution records its sequence
//!   of scheduling decisions; [`model`] replays the prefix and systematically
//!   advances the last unexhausted decision until the (bounded) schedule
//!   space is exhausted. Identical prefixes replay deterministically.
//! * **Preemption bounding.** Involuntary context switches per execution are
//!   capped (`LOOM_MAX_PREEMPTIONS`, default 2) — the CHESS result: almost
//!   all concurrency bugs manifest within two preemptions, and the bound
//!   keeps the schedule space tractable. Voluntary switches (yield/spin
//!   hints, blocking joins, thread exit) are unbounded.
//! * **Sequentially consistent exploration.** Atomics are `repr(transparent)`
//!   wrappers over `std` atomics; with one runnable thread at a time and a
//!   mutex handoff between steps, every interleaving the checker explores is
//!   sequentially consistent. Weak-memory reorderings are *not* modeled —
//!   the workspace's `tests/atomics_discipline.rs` source scan covers
//!   ordering discipline, and DESIGN.md §9 documents the division of labor.
//!
//! Bugs surface as panics inside the model closure (assertion failures,
//! detected deadlocks, livelocks via the per-execution step cap); [`model`]
//! reports the failing iteration and re-raises the original panic payload.
//!
//! Outside [`model`], every operation falls back to the plain `std`
//! behaviour, so code compiled with `--cfg loom` still runs correctly from
//! ordinary threads (e.g. non-model unit tests or helper threads).

mod rt;

pub use rt::model;

/// Scheduling-aware thread handling (`spawn` / `yield_now` / `JoinHandle`).
pub mod thread {
    pub use crate::rt::{spawn, yield_now, JoinHandle};
}

/// Scheduling-aware spin hint.
pub mod hint {
    /// A spin-loop hint that is also a *yield* scheduling point: inside a
    /// model the current thread steps aside so a peer can make the progress
    /// the spin is waiting for (otherwise a spin loop would explore an
    /// infinity of self-schedules).
    pub fn spin_loop() {
        crate::rt::yield_point();
        std::hint::spin_loop();
    }
}

/// Synchronization primitives (`Arc`, `atomic`).
pub mod sync {
    pub use std::sync::Arc;

    /// Model-checked atomic types, mirroring `std::sync::atomic`.
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        use crate::rt::op_point;

        /// An atomic fence; a scheduling point inside a model.
        ///
        /// Under cooperative sequentially-consistent scheduling the fence
        /// itself is a no-op for visibility; it still participates in
        /// schedule exploration so fence-adjacent interleavings are covered.
        pub fn fence(order: Ordering) {
            op_point();
            if order != Ordering::Relaxed {
                std::sync::atomic::fence(order);
            }
        }

        macro_rules! atomic_int {
            ($name:ident, $std:ident, $ty:ty) => {
                /// Model-checked atomic integer. `repr(transparent)` over the
                /// `std` atomic, so in-place views of raw memory (and
                /// `Box<[u64]> -> Box<[Atomic..]>` transmutes) stay sound
                /// under `cfg(loom)`.
                #[repr(transparent)]
                #[derive(Default)]
                pub struct $name(std::sync::atomic::$std);

                impl $name {
                    /// Creates a new atomic (const, unlike real loom).
                    pub const fn new(v: $ty) -> Self {
                        Self(std::sync::atomic::$std::new(v))
                    }

                    pub fn load(&self, order: Ordering) -> $ty {
                        op_point();
                        self.0.load(order)
                    }

                    pub fn store(&self, v: $ty, order: Ordering) {
                        op_point();
                        self.0.store(v, order)
                    }

                    pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                        op_point();
                        self.0.swap(v, order)
                    }

                    pub fn compare_exchange(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        op_point();
                        self.0.compare_exchange(current, new, success, failure)
                    }

                    /// Treated as the strong variant: spurious failure is a
                    /// scheduling artifact this SC checker does not model.
                    pub fn compare_exchange_weak(
                        &self,
                        current: $ty,
                        new: $ty,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$ty, $ty> {
                        self.compare_exchange(current, new, success, failure)
                    }

                    pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                        op_point();
                        self.0.fetch_add(v, order)
                    }

                    pub fn fetch_sub(&self, v: $ty, order: Ordering) -> $ty {
                        op_point();
                        self.0.fetch_sub(v, order)
                    }

                    pub fn fetch_and(&self, v: $ty, order: Ordering) -> $ty {
                        op_point();
                        self.0.fetch_and(v, order)
                    }

                    pub fn fetch_or(&self, v: $ty, order: Ordering) -> $ty {
                        op_point();
                        self.0.fetch_or(v, order)
                    }

                    pub fn fetch_xor(&self, v: $ty, order: Ordering) -> $ty {
                        op_point();
                        self.0.fetch_xor(v, order)
                    }

                    pub fn fetch_max(&self, v: $ty, order: Ordering) -> $ty {
                        op_point();
                        self.0.fetch_max(v, order)
                    }

                    pub fn fetch_min(&self, v: $ty, order: Ordering) -> $ty {
                        op_point();
                        self.0.fetch_min(v, order)
                    }

                    /// Non-atomic read through exclusive access (not a
                    /// scheduling point: `&mut self` proves no concurrency).
                    pub fn get_mut(&mut self) -> &mut $ty {
                        self.0.get_mut()
                    }

                    pub fn into_inner(self) -> $ty {
                        self.0.into_inner()
                    }
                }

                impl std::fmt::Debug for $name {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        // Direct (non-scheduling) read: formatting must not
                        // perturb the explored schedule space.
                        f.debug_tuple(stringify!($name))
                            .field(&self.0.load(Ordering::SeqCst))
                            .finish()
                    }
                }

                impl From<$ty> for $name {
                    fn from(v: $ty) -> Self {
                        Self::new(v)
                    }
                }
            };
        }

        atomic_int!(AtomicU32, AtomicU32, u32);
        atomic_int!(AtomicU64, AtomicU64, u64);
        atomic_int!(AtomicUsize, AtomicUsize, usize);
        atomic_int!(AtomicU8, AtomicU8, u8);
        atomic_int!(AtomicI64, AtomicI64, i64);

        /// Model-checked atomic boolean (see [`AtomicU32`] for semantics).
        #[repr(transparent)]
        #[derive(Default)]
        pub struct AtomicBool(std::sync::atomic::AtomicBool);

        impl AtomicBool {
            pub const fn new(v: bool) -> Self {
                Self(std::sync::atomic::AtomicBool::new(v))
            }

            pub fn load(&self, order: Ordering) -> bool {
                op_point();
                self.0.load(order)
            }

            pub fn store(&self, v: bool, order: Ordering) {
                op_point();
                self.0.store(v, order)
            }

            pub fn swap(&self, v: bool, order: Ordering) -> bool {
                op_point();
                self.0.swap(v, order)
            }

            pub fn compare_exchange(
                &self,
                current: bool,
                new: bool,
                success: Ordering,
                failure: Ordering,
            ) -> Result<bool, bool> {
                op_point();
                self.0.compare_exchange(current, new, success, failure)
            }

            pub fn compare_exchange_weak(
                &self,
                current: bool,
                new: bool,
                success: Ordering,
                failure: Ordering,
            ) -> Result<bool, bool> {
                self.compare_exchange(current, new, success, failure)
            }

            pub fn fetch_and(&self, v: bool, order: Ordering) -> bool {
                op_point();
                self.0.fetch_and(v, order)
            }

            pub fn fetch_or(&self, v: bool, order: Ordering) -> bool {
                op_point();
                self.0.fetch_or(v, order)
            }

            pub fn get_mut(&mut self) -> &mut bool {
                self.0.get_mut()
            }

            pub fn into_inner(self) -> bool {
                self.0.into_inner()
            }
        }

        impl std::fmt::Debug for AtomicBool {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple("AtomicBool").field(&self.0.load(Ordering::SeqCst)).finish()
            }
        }

        impl From<bool> for AtomicBool {
            fn from(v: bool) -> Self {
                Self::new(v)
            }
        }
    }
}

//! Per-thread output slots a kernel writes into.

use std::cell::UnsafeCell;

/// One slot per thread (or per warp), written from inside a kernel.
pub struct Slots<T>(Box<[UnsafeCell<T>]>);

// SAFETY: a kernel writes slot `i` only from the logical thread (or warp)
// with index `i`, the inline device runs every logical thread on the calling
// thread, and the host reads the slots only between launches.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T: Copy> Slots<T> {
    pub fn new(n: usize, v: T) -> Self {
        Slots((0..n).map(|_| UnsafeCell::new(v)).collect())
    }

    #[inline]
    pub fn set(&self, i: usize, v: T) {
        // SAFETY: slot `i` has one writer and no concurrent reader (see the
        // `Sync` impl).
        unsafe { *self.0[i].get() = v }
    }

    #[inline]
    pub fn get(&self, i: usize) -> T {
        // SAFETY: as in `set`; reads happen on the thread that wrote.
        unsafe { *self.0[i].get() }
    }

    /// `len` consecutive slots starting at `first`, for the warp that owns
    /// them.
    #[inline]
    #[allow(clippy::mut_from_ref)] // the kernel-slot contract above, as in gpu-sim's PerThread
    pub fn range_mut(&self, first: usize, len: usize) -> &mut [T] {
        assert!(first + len <= self.0.len());
        // SAFETY: in bounds (asserted); `UnsafeCell<T>` has the layout of
        // `T`; the range belongs to the calling warp alone (see `Sync`).
        unsafe { std::slice::from_raw_parts_mut(self.0[first].get(), len) }
    }
}

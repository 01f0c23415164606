//! The unified memory-manager interface (paper §3).
//!
//! "Each memory manager is instantiated on the host with a configurable size
//! of the manageable memory. This memory manager can then be passed to device
//! kernels and offers the standard malloc/free interface. Using this
//! framework, one can integrate a memory manager into an existing project and
//! simply swap out one declaration to change between memory managers."
//!
//! [`DeviceAllocator`] is that interface. Thread-level entry points take a
//! [`ThreadCtx`]; warp-level entry points take a [`WarpCtx`] plus the 32 lane
//! requests, which lets coalescing designs (XMalloc, Halloc, FDGMalloc) batch
//! them the way their warp-aggregated atomics do on hardware.

use crate::ctx::{ThreadCtx, WarpCtx};
use crate::error::AllocError;
use crate::heap::DeviceHeap;
use crate::info::ManagerInfo;
use crate::metrics::Metrics;
use crate::ptr::DevicePtr;
use crate::regs::RegisterFootprint;

/// The survey's uniform `malloc`/`free` interface.
///
/// All methods take `&self`: a manager is shared across every simulated
/// thread and must synchronise internally (with atomics, as the originals
/// do). Implementations are registered with the benchmark registry in the
/// `gpumem-bench` crate and become selectable in every test case.
pub trait DeviceAllocator: Send + Sync {
    /// Static capability metadata (name, variant, free support, alignment…).
    fn info(&self) -> ManagerInfo;

    /// The managed memory region.
    fn heap(&self) -> &DeviceHeap;

    /// Allocates `size` bytes on behalf of one thread.
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError>;

    /// Frees a pointer previously returned by [`DeviceAllocator::malloc`] (or
    /// a warp-level variant) on this manager.
    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError>;

    /// Warp-collective allocation: all 32 lanes request at once.
    ///
    /// `sizes` and `out` have equal length ≤ 32 (a partially populated tail
    /// warp passes fewer). The default implementation simply loops lanes —
    /// managers with warp aggregation override this to coalesce.
    ///
    /// The call is all-or-nothing: if any lane fails, lanes that were
    /// already granted are rolled back (freed, when the manager supports
    /// free) and every `out` slot is nulled before the error is returned,
    /// so a failed warp call never leaks memory the caller cannot see.
    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        debug_assert_eq!(sizes.len(), out.len());
        for (lane, (&size, slot)) in sizes.iter().zip(out.iter_mut()).enumerate() {
            let ctx = warp.lane(lane as u32);
            match self.malloc(&ctx, size) {
                Ok(ptr) => *slot = ptr,
                Err(e) => {
                    rollback_partial_warp(self, warp, &mut out[..lane]);
                    for slot in out.iter_mut() {
                        *slot = DevicePtr::NULL;
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Warp-collective free of previously returned pointers.
    ///
    /// A lane whose free fails does not abandon the remaining lanes (an
    /// early return would leak every pointer after the failing one); all
    /// lanes are attempted and the first error is reported.
    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        let mut first_err = None;
        for (lane, &ptr) in ptrs.iter().enumerate() {
            if ptr.is_null() {
                continue;
            }
            let ctx = warp.lane(lane as u32);
            if let Err(e) = self.free(&ctx, ptr) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Releases *everything* a warp ever allocated (FDGMalloc's `tidyUp`).
    /// Only warp-level-only managers implement this.
    fn free_warp_all(&self, _warp: &WarpCtx) -> Result<(), AllocError> {
        Err(AllocError::Unsupported("free_warp_all"))
    }

    /// Register-requirement proxy for §4.1 (see [`RegisterFootprint`]).
    fn register_footprint(&self) -> RegisterFootprint;

    /// Grows the manageable memory at runtime by `additional` bytes.
    ///
    /// Per the paper (§6), only ScatterAlloc and Ouroboros support this; the
    /// default rejects it.
    fn grow(&self, _additional: u64) -> Result<(), AllocError> {
        Err(AllocError::Unsupported("grow"))
    }

    /// The contention-observability handle this manager records into
    /// (see [`crate::metrics`]). Cloning is cheap; all clones share one
    /// counter block. The default — for managers without instrumentation —
    /// is a disabled handle whose snapshot is all-zero.
    fn metrics(&self) -> Metrics {
        Metrics::disabled()
    }

    /// Flushes any blocks a decorator is holding back from the underlying
    /// manager (e.g. [`Cached`](crate::cache::Cached) magazine contents),
    /// returning how many were pushed down. Leaf managers hold nothing
    /// back, so the default is a no-op.
    ///
    /// The telemetry sampler's teardown contract depends on this: frees
    /// parked in a magazine are invisible to the counters until the inner
    /// `free` runs, so callers must `drain()` before taking a final
    /// [`crate::telemetry`] sample or the last window under-reports frees.
    fn drain(&self) -> u64 {
        0
    }
}

/// Frees the lanes a partially-failed `malloc_warp` already granted (best
/// effort: managers without free support cannot reclaim, matching their
/// normal leak-on-no-free semantics). Shared by the default warp path and by
/// managers whose coalescing overrides fall back to lane-by-lane service.
pub fn rollback_partial_warp<A: DeviceAllocator + ?Sized>(
    alloc: &A,
    warp: &WarpCtx,
    granted: &mut [DevicePtr],
) {
    if !alloc.info().supports_free {
        return;
    }
    for (lane, slot) in granted.iter_mut().enumerate() {
        if !slot.is_null() {
            let _ = alloc.free(&warp.lane(lane as u32), *slot);
            *slot = DevicePtr::NULL;
        }
    }
}

/// A decorator: a manager that wraps [`Layer::inner`] and is a
/// [`DeviceAllocator`] through the one blanket impl below, which forwards
/// every method the layer does not define to the inner manager. A trait
/// default can therefore never shadow an inner override (the way a missing
/// `drain` forwarder once left `Cached` magazines parked behind `Arc`).
///
/// The four hot entry points are required, so each layer states what it
/// does on the paths the benchmarks time. `heap`, `register_footprint`,
/// `grow` and `metrics` always forward. Implement it by path
/// (`impl crate::traits::Layer for X`), and inside such an impl call the
/// layer's own methods by path too (`Layer::free(self, …)`): with both
/// traits in scope a layer has two `malloc` methods.
pub trait Layer: Send + Sync {
    /// The wrapped manager.
    type Inner: DeviceAllocator + ?Sized;

    /// The wrapped manager.
    fn inner(&self) -> &Self::Inner;

    /// See [`DeviceAllocator::malloc`].
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError>;

    /// See [`DeviceAllocator::free`].
    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError>;

    /// See [`DeviceAllocator::malloc_warp`].
    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError>;

    /// See [`DeviceAllocator::free_warp`].
    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError>;

    /// See [`DeviceAllocator::info`].
    fn info(&self) -> ManagerInfo {
        self.inner().info()
    }

    /// See [`DeviceAllocator::free_warp_all`].
    fn free_warp_all(&self, warp: &WarpCtx) -> Result<(), AllocError> {
        self.inner().free_warp_all(warp)
    }

    /// See [`DeviceAllocator::drain`].
    fn drain(&self) -> u64 {
        self.inner().drain()
    }
}

impl<L: Layer> DeviceAllocator for L {
    fn info(&self) -> ManagerInfo {
        Layer::info(self)
    }
    fn heap(&self) -> &DeviceHeap {
        self.inner().heap()
    }
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        Layer::malloc(self, ctx, size)
    }
    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        Layer::free(self, ctx, ptr)
    }
    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        Layer::malloc_warp(self, warp, sizes, out)
    }
    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        Layer::free_warp(self, warp, ptrs)
    }
    fn free_warp_all(&self, warp: &WarpCtx) -> Result<(), AllocError> {
        Layer::free_warp_all(self, warp)
    }
    fn register_footprint(&self) -> RegisterFootprint {
        self.inner().register_footprint()
    }
    fn grow(&self, additional: u64) -> Result<(), AllocError> {
        self.inner().grow(additional)
    }
    fn metrics(&self) -> Metrics {
        self.inner().metrics()
    }
    fn drain(&self) -> u64 {
        Layer::drain(self)
    }
}

/// Shared ownership is the layer that changes nothing: an `Arc<A>`
/// (including `Arc<dyn DeviceAllocator>`, the form the benchmark registry
/// hands out) is a manager with every override of `A` intact, which is what
/// lets wrappers like `Sanitized` take any built manager by value.
impl<T: DeviceAllocator + ?Sized> Layer for std::sync::Arc<T> {
    type Inner = T;

    fn inner(&self) -> &T {
        self
    }
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        (**self).malloc(ctx, size)
    }
    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        (**self).free(ctx, ptr)
    }
    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        (**self).malloc_warp(warp, sizes, out)
    }
    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        (**self).free_warp(warp, ptrs)
    }
}

/// Blanket helpers layered over the raw trait.
pub trait DeviceAllocatorExt: DeviceAllocator {
    /// `malloc` + panic-free bounds check, for tests: returns the pointer and
    /// asserts it is in-bounds and satisfies the manager's declared
    /// alignment.
    fn checked_malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let info = self.info();
        let ptr = self.malloc(ctx, size)?;
        assert!(
            ptr.offset().checked_add(size).is_some_and(|end| end <= self.heap().len()),
            "{}: returned out-of-bounds allocation {ptr:?} + {size}",
            info.label()
        );
        assert!(
            ptr.is_aligned(info.alignment),
            "{}: pointer {ptr:?} violates declared alignment {}",
            info.label(),
            info.alignment
        );
        Ok(ptr)
    }
}

impl<A: DeviceAllocator + ?Sized> DeviceAllocatorExt for A {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Minimal conforming implementation used to exercise trait defaults.
    struct Bump {
        heap: Arc<DeviceHeap>,
        top: AtomicU64,
    }

    impl Bump {
        fn new(len: u64) -> Self {
            Bump { heap: Arc::new(DeviceHeap::new(len)), top: AtomicU64::new(0) }
        }
    }

    impl DeviceAllocator for Bump {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("Bump").supports_free(false).build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
            let sz = crate::util::align_up(size.max(1), 16);
            let off = self.top.fetch_add(sz, Ordering::Relaxed);
            if off + sz > self.heap.len() {
                return Err(AllocError::OutOfMemory(size));
            }
            Ok(DevicePtr::new(off))
        }
        fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
            Err(AllocError::Unsupported("free"))
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 4, free: 0 }
        }
    }

    #[test]
    fn default_malloc_warp_loops_lanes() {
        let a = Bump::new(1 << 16);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        let sizes = [16u64; 32];
        let mut out = [DevicePtr::NULL; 32];
        a.malloc_warp(&warp, &sizes, &mut out).unwrap();
        // Distinct, consecutive bump allocations.
        for w in out.windows(2) {
            assert_eq!(w[1].offset() - w[0].offset(), 16);
        }
    }

    #[test]
    fn default_free_warp_skips_null() {
        let a = Bump::new(1 << 12);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        // All NULL — free is unsupported but must not be reached.
        a.free_warp(&warp, &[DevicePtr::NULL; 4]).unwrap();
    }

    #[test]
    fn default_free_warp_all_unsupported() {
        let a = Bump::new(1 << 12);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        assert_eq!(a.free_warp_all(&warp), Err(AllocError::Unsupported("free_warp_all")));
    }

    #[test]
    fn default_grow_unsupported() {
        let a = Bump::new(1 << 12);
        assert_eq!(a.grow(4096), Err(AllocError::Unsupported("grow")));
    }

    #[test]
    fn checked_malloc_validates_alignment() {
        let a = Bump::new(1 << 12);
        let p = a.checked_malloc(&ThreadCtx::host(), 24).unwrap();
        assert!(p.is_aligned(16));
    }

    #[test]
    fn object_safety() {
        // The registry stores `Box<dyn DeviceAllocator>`; keep the trait
        // object-safe.
        let a: Box<dyn DeviceAllocator> = Box::new(Bump::new(1 << 12));
        assert_eq!(a.info().family, "Bump");
        let _ = a.malloc(&ThreadCtx::host(), 8).unwrap();
    }

    #[test]
    fn arc_forwards_the_whole_interface() {
        let a: Arc<dyn DeviceAllocator> = Arc::new(Bump::new(1 << 12));
        assert_eq!(DeviceAllocator::info(&a).family, "Bump");
        let p = DeviceAllocator::malloc(&a, &ThreadCtx::host(), 8).unwrap();
        assert!(!p.is_null());
        assert_eq!(a.grow(128), Err(AllocError::Unsupported("grow")));
        assert!(!a.metrics().is_enabled());
    }

    /// A leaf overriding every defaulted cold method, each with a result
    /// the trait default cannot produce.
    struct Leaf(DeviceHeap);

    impl DeviceAllocator for Leaf {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("Leaf").build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.0
        }
        fn malloc(&self, _ctx: &ThreadCtx, _size: u64) -> Result<DevicePtr, AllocError> {
            Ok(DevicePtr::new(0))
        }
        fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
            Ok(())
        }
        fn free_warp_all(&self, _warp: &WarpCtx) -> Result<(), AllocError> {
            Ok(())
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 7, free: 5 }
        }
        fn grow(&self, _additional: u64) -> Result<(), AllocError> {
            Ok(())
        }
        fn metrics(&self) -> Metrics {
            Metrics::enabled(1)
        }
        fn drain(&self) -> u64 {
            42
        }
    }

    /// A layer that writes the four hot paths and nothing else.
    struct Hot<A>(A);

    impl<A: DeviceAllocator> Layer for Hot<A> {
        type Inner = A;

        fn inner(&self) -> &A {
            &self.0
        }
        fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
            self.0.malloc(ctx, size)
        }
        fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
            self.0.free(ctx, ptr)
        }
        fn malloc_warp(
            &self,
            warp: &WarpCtx,
            sizes: &[u64],
            out: &mut [DevicePtr],
        ) -> Result<(), AllocError> {
            self.0.malloc_warp(warp, sizes, out)
        }
        fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
            self.0.free_warp(warp, ptrs)
        }
    }

    #[test]
    fn a_layer_forwards_every_method_it_does_not_write() {
        let a: Arc<dyn DeviceAllocator> = Arc::new(Hot(Leaf(DeviceHeap::new(1 << 12))));
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        assert_eq!(DeviceAllocator::info(&a).family, "Leaf");
        assert_eq!(a.heap().len(), 1 << 12);
        assert_eq!(a.register_footprint(), RegisterFootprint { malloc: 7, free: 5 });
        assert_eq!(DeviceAllocator::free_warp_all(&a, &warp), Ok(()));
        assert_eq!(a.grow(4096), Ok(()));
        assert!(a.metrics().is_enabled());
        assert_eq!(DeviceAllocator::drain(&a), 42);
    }

    /// Free-capable counting allocator whose lane `fail_at` (by allocation
    /// order) fails — the partial-failure scenario for the warp defaults.
    struct FailingLane {
        heap: Arc<DeviceHeap>,
        top: AtomicU64,
        served: AtomicU64,
        fail_at: u64,
        live: AtomicU64,
        /// Pointer whose individual `free` is rejected (exercises the
        /// free_warp continue-past-error path); NULL raw disables it.
        refuse_free: u64,
    }

    impl FailingLane {
        fn new(fail_at: u64) -> Self {
            FailingLane {
                heap: Arc::new(DeviceHeap::new(1 << 16)),
                top: AtomicU64::new(0),
                served: AtomicU64::new(0),
                fail_at,
                live: AtomicU64::new(0),
                refuse_free: u64::MAX,
            }
        }
    }

    impl DeviceAllocator for FailingLane {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("FailingLane").build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
            if self.served.fetch_add(1, Ordering::Relaxed) == self.fail_at {
                return Err(AllocError::OutOfMemory(size));
            }
            let sz = crate::util::align_up(size.max(1), 16);
            let off = self.top.fetch_add(sz, Ordering::Relaxed);
            self.live.fetch_add(1, Ordering::Relaxed);
            Ok(DevicePtr::new(off))
        }
        fn free(&self, _ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
            if ptr.raw() == self.refuse_free {
                return Err(AllocError::InvalidPointer);
            }
            self.live.fetch_sub(1, Ordering::Relaxed);
            Ok(())
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 4, free: 2 }
        }
    }

    #[test]
    fn malloc_warp_partial_failure_rolls_back_granted_lanes() {
        // Lane 5 of 8 fails: the 5 lanes already granted must be freed and
        // every out slot nulled. Against the old early-`?` default this
        // fails with live == 5 and out[0..5] non-null.
        let a = FailingLane::new(5);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        let mut out = [DevicePtr::new(777); 8];
        let r = a.malloc_warp(&warp, &[32; 8], &mut out);
        assert_eq!(r, Err(AllocError::OutOfMemory(32)));
        assert_eq!(a.live.load(Ordering::Relaxed), 0, "granted lanes must be rolled back");
        assert!(out.iter().all(|p| p.is_null()), "all out slots must be nulled: {out:?}");
    }

    #[test]
    fn free_warp_continues_past_failing_lane() {
        // Lane 1's free is rejected; lanes 0 and 2 must still be freed and
        // the error still reported. The old default stopped at lane 1,
        // leaking lane 2.
        let mut a = FailingLane::new(u64::MAX);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        let mut out = [DevicePtr::NULL; 3];
        a.malloc_warp(&warp, &[64; 3], &mut out).unwrap();
        a.refuse_free = out[1].raw();
        assert_eq!(a.free_warp(&warp, &out), Err(AllocError::InvalidPointer));
        assert_eq!(a.live.load(Ordering::Relaxed), 1, "only the refused lane stays live");
    }
}

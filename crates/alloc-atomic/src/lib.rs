//! # alloc-atomic — the `Atomic` baseline
//!
//! "We use as a baseline a simple memory manager built on atomics on a shared
//! offset (referred to as *Atomic*), but this is no true memory manager due
//! to the lack of deallocation." (paper §4)
//!
//! One `fetch_add` on a shared bump offset per allocation; `free` is
//! rejected. This is the fastest possible device-side allocation and anchors
//! the top of every performance plot, as well as the theoretical baseline of
//! the fragmentation test case (Fig. 11a): its address range is exactly the
//! aligned demand.

// Also enforced workspace-wide; restated here so the audit
// guarantee survives if this crate is ever built out of tree.
#![deny(unsafe_op_in_unsafe_fn)]

use gpumem_core::sync::{AtomicU64, Ordering};
use std::sync::Arc;

use gpumem_core::{
    AllocError, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics, RegisterFootprint,
    ThreadCtx,
};

/// Alignment of returned pointers — 16 B, the framework-wide expectation.
pub const ALIGNMENT: u64 = 16;

/// The shared-offset bump allocator.
pub struct AtomicAlloc {
    heap: Arc<DeviceHeap>,
    offset: AtomicU64,
    metrics: Metrics,
}

/// Locals live in `malloc` (register proxy; see `gpumem_core::regs`).
#[repr(C)]
struct MallocFrame {
    size: u64,
    aligned: u64,
    offset: u64,
    end: u64,
}

impl AtomicAlloc {
    /// Creates a baseline manager over the whole `heap`.
    pub fn new(heap: Arc<DeviceHeap>) -> Self {
        AtomicAlloc { heap, offset: AtomicU64::new(0), metrics: Metrics::disabled() }
    }

    /// Attaches a contention-observability handle (builder style). The
    /// bump has no contention of its own to count; the handle is where
    /// [`gpumem_core::metrics::Counted`] counts this manager's calls.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Convenience constructor: makes its own heap of `len` bytes.
    pub fn with_capacity(len: u64) -> Self {
        Self::new(Arc::new(DeviceHeap::new(len)))
    }

    /// Bytes handed out so far (aligned).
    pub fn used(&self) -> u64 {
        self.offset.load(Ordering::Relaxed).min(self.heap.len())
    }
}

impl DeviceAllocator for AtomicAlloc {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("Atomic").supports_free(false).alignment(ALIGNMENT).build()
    }

    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    #[inline]
    fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        if size == 0 {
            return Err(AllocError::UnsupportedSize(0));
        }
        // Checked rounding: near-`u64::MAX` requests must not wrap to a
        // small aligned size (release builds wrap silently).
        let Some(aligned) = size.checked_next_multiple_of(ALIGNMENT) else {
            return Err(AllocError::UnsupportedSize(size));
        };
        // Reject heap-sized requests before the bump: a `fetch_add` of a
        // near-`u64::MAX` aligned size would wrap the shared offset back
        // towards zero and resurrect an exhausted heap with overlapping
        // allocations.
        if aligned > self.heap.len() {
            return Err(AllocError::OutOfMemory(size));
        }
        let offset = self.offset.fetch_add(aligned, Ordering::Relaxed);
        if offset.checked_add(aligned).is_none_or(|end| end > self.heap.len()) {
            // NOTE: like the original baseline, the offset is not rolled
            // back — once exhausted, the manager stays exhausted.
            return Err(AllocError::OutOfMemory(size));
        }
        Ok(DevicePtr::new(offset))
    }

    #[inline]
    fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
        Err(AllocError::Unsupported("Atomic baseline has no deallocation"))
    }

    fn register_footprint(&self) -> RegisterFootprint {
        RegisterFootprint::from_frames(std::mem::size_of::<MallocFrame>(), 0)
    }

    fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_core::WarpCtx;

    fn alloc() -> AtomicAlloc {
        AtomicAlloc::with_capacity(1 << 16)
    }

    #[test]
    fn sequential_bump() {
        let a = alloc();
        let ctx = ThreadCtx::host();
        let p0 = a.malloc(&ctx, 10).unwrap();
        let p1 = a.malloc(&ctx, 10).unwrap();
        assert_eq!(p0.offset(), 0);
        assert_eq!(p1.offset(), 16); // aligned to 16
        assert_eq!(a.used(), 32);
    }

    #[test]
    fn zero_size_rejected() {
        let a = alloc();
        assert_eq!(a.malloc(&ThreadCtx::host(), 0), Err(AllocError::UnsupportedSize(0)));
    }

    #[test]
    fn free_unsupported() {
        let a = alloc();
        let p = a.malloc(&ThreadCtx::host(), 8).unwrap();
        assert!(matches!(a.free(&ThreadCtx::host(), p), Err(AllocError::Unsupported(_))));
    }

    #[test]
    fn exhaustion_reports_oom() {
        let a = AtomicAlloc::with_capacity(128);
        let ctx = ThreadCtx::host();
        assert!(a.malloc(&ctx, 64).is_ok());
        assert!(a.malloc(&ctx, 64).is_ok());
        assert_eq!(a.malloc(&ctx, 16), Err(AllocError::OutOfMemory(16)));
    }

    #[test]
    fn warp_malloc_default_path() {
        let a = alloc();
        let w = WarpCtx { warp: 0, block: 0, sm: 0 };
        let mut out = [DevicePtr::NULL; 32];
        a.malloc_warp(&w, &[32; 32], &mut out).unwrap();
        for (i, p) in out.iter().enumerate() {
            assert_eq!(p.offset(), i as u64 * 32);
        }
    }

    #[test]
    fn concurrent_allocations_never_overlap() {
        let a = Arc::new(AtomicAlloc::with_capacity(1 << 22));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut ptrs = Vec::new();
                for i in 0..1000u32 {
                    let ctx = ThreadCtx::from_linear(t * 1000 + i, 256, 80);
                    ptrs.push(a.malloc(&ctx, 48).unwrap().offset());
                }
                ptrs
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[1] - w[0] >= 48, "overlap: {} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn info_flags() {
        let a = alloc();
        let info = a.info();
        assert_eq!(info.label(), "Atomic");
        assert!(!info.supports_free);
        assert_eq!(info.alignment, 16);
    }

    #[test]
    fn register_footprint_is_small() {
        let fp = alloc().register_footprint();
        assert!(fp.malloc <= 10, "baseline should be near-free: {fp}");
        assert_eq!(fp.free, 0);
    }

    #[test]
    fn near_max_request_fails_instead_of_wrapping() {
        // Regression: both the align rounding and the `offset + aligned`
        // exhaustion check used to wrap for near-u64::MAX requests.
        let a = alloc();
        let ctx = ThreadCtx::host();
        // `u64::MAX` overflows the aligned rounding; `u64::MAX - 15` is
        // already 16-aligned and would wrap the shared offset back towards
        // zero if it reached the `fetch_add` (resurrecting the heap with
        // overlapping allocations). Both are rejected before the bump, so
        // the allocator stays usable.
        for size in [u64::MAX, u64::MAX - ALIGNMENT + 1, u64::MAX / 2] {
            assert!(a.malloc(&ctx, size).is_err(), "size {size:#x} must be rejected");
        }
        assert!(a.malloc(&ctx, 16).is_ok());
        // A genuine capacity miss still leaves the offset past the end —
        // the baseline deliberately never rolls back.
        assert!(a.malloc(&ctx, 1 << 16).is_err());
        assert!(a.malloc(&ctx, 16).is_err(), "exhaustion is sticky by design");
    }
}

/// Model-checked interleaving suite (built with `RUSTFLAGS="--cfg loom"`).
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use gpumem_core::sync::{model, thread};
    use gpumem_core::ThreadCtx;

    /// Concurrent bumps hand out disjoint, in-heap ranges: the single
    /// `fetch_add` is the entire protocol, so the model asserts the ranges
    /// of three racing allocations never overlap and stay inside the heap.
    #[test]
    fn concurrent_bumps_are_disjoint() {
        model(|| {
            let a = Arc::new(AtomicAlloc::with_capacity(4096));
            let spawn_alloc = |sz: u64, tid: u32| {
                let a = a.clone();
                thread::spawn(move || {
                    let ctx = ThreadCtx::from_linear(tid, 32, 1);
                    a.malloc(&ctx, sz).map(|p| (p.offset(), sz))
                })
            };
            let h1 = spawn_alloc(48, 0);
            let h2 = spawn_alloc(80, 1);
            let r1 = h1.join().unwrap();
            let r2 = h2.join().unwrap();
            let mut spans: Vec<(u64, u64)> = Vec::new();
            for r in [r1, r2] {
                if let Ok((off, sz)) = r {
                    assert_eq!(off % ALIGNMENT, 0, "unaligned bump result");
                    assert!(off + sz <= 4096, "allocation escapes the heap");
                    spans.push((off, off + gpumem_core::util::align_up(sz, ALIGNMENT)));
                }
            }
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping allocations: {spans:?}");
            }
        });
    }

    /// OOM stays OOM: once the shared offset passes the heap end, every
    /// racing allocation fails (the paper's Atomic has no rollback, so the
    /// offset only grows — the model checks no schedule resurrects it).
    #[test]
    fn oom_is_sticky_under_races() {
        model(|| {
            let a = Arc::new(AtomicAlloc::with_capacity(128));
            let spawn_alloc = |tid: u32| {
                let a = a.clone();
                thread::spawn(move || {
                    let ctx = ThreadCtx::from_linear(tid, 32, 1);
                    a.malloc(&ctx, 96).is_ok()
                })
            };
            let h1 = spawn_alloc(0);
            let h2 = spawn_alloc(1);
            let ok1 = h1.join().unwrap();
            let ok2 = h2.join().unwrap();
            // 128-byte heap, 96-byte requests: at most one can succeed.
            assert!(!(ok1 && ok2), "two 96B allocations cannot fit in 128B");
        });
    }
}

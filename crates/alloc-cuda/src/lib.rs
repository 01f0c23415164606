//! # alloc-cuda — a behavioural model of the CUDA device allocator
//!
//! The paper (§2.1) notes that NVIDIA publishes essentially nothing about
//! the toolkit allocator's internals: "there is unfortunately very little
//! information available on the implementation, which only allows for
//! speculation as to its internal structure." The survey therefore
//! characterises it *behaviourally* — and this crate is a model of exactly
//! those observed characteristics:
//!
//! * **Reliability over performance** (§2.1): a single global lock
//!   serialises all requests. Every other manager in the survey beats it on
//!   small allocations; nothing corrupts it.
//! * **A divisible unit with a split right before 2048 B** (§4.2.1): sizes
//!   ≤ 2048 B are served from per-power-of-two size classes carved out of
//!   4 KiB units (the staircase in Fig. 9); larger sizes switch to a
//!   next-fit region allocator — a visible regime change at 2048 B.
//! * **Allocates from both ends of its region** (§4.3.1): small units grow
//!   from the bottom, large regions from the top, so the address range
//!   reported by the fragmentation test case spans the whole heap.
//! * **Deallocation is its weak point** (§4.2.1: "the only approach with
//!   deallocation performance consistently above 1 ms") and **performance
//!   degrades with the number of allocations** (§5): `free` performs a
//!   bounded validation scan of the size-class free stack (the model's knob
//!   for the observed cost; a real double-free check), and the large-region
//!   path walks a sorted free list.
//! * **Fixed capacity** (§2.1/§5): the manageable size is set once;
//!   `grow` is rejected ("increasing this memory requires destroying the
//!   current context").
//!
//! Several other managers in the survey forward requests here (Halloc for
//! > 3 KiB, FDGMalloc for warp headers and oversize requests, Ouroboros for
//! > oversize requests), so the model supports operating on a *sub-region* of
//! > a shared heap via [`CudaAllocModel::with_region`].

// Also enforced workspace-wide; restated here so the audit
// guarantee survives if this crate is ever built out of tree.
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::Arc;
use std::sync::Mutex;

use gpumem_core::util::{align_up, next_pow2};
use gpumem_core::{
    AllocError, Counter, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics,
    RegisterFootprint, ThreadCtx,
};

mod state;
use state::State;

/// Block header size preceding every payload (holds magic + class / size).
pub const HEADER: u64 = 16;
/// Unit carved for small size classes.
pub const UNIT: u64 = 4096;
/// Largest size served by the size-class path; beyond this the next-fit
/// region path takes over (the paper's observed "unit split").
pub const SMALL_LIMIT: u64 = 2048;
/// Smallest size class.
pub const MIN_CLASS: u64 = 16;
/// Bounded window of the free-stack validation scan in `free` — the model's
/// stand-in for the toolkit allocator's heavyweight deallocation.
pub const VALIDATION_WINDOW: usize = 2048;

/// Magic tags distinguishing live/freed small/large headers.
const MAGIC_SMALL: u32 = 0xC0DA_0001;
const MAGIC_LARGE: u32 = 0xC0DA_0002;
const MAGIC_FREE: u32 = 0xC0DA_00FF;

/// The CUDA-Allocator model. See crate docs for the behavioural contract.
pub struct CudaAllocModel {
    heap: Arc<DeviceHeap>,
    base: u64,
    len: u64,
    state: Mutex<State>,
    metrics: Metrics,
}

/// Locals live in `malloc` (register proxy).
#[repr(C)]
struct MallocFrame {
    size: u64,
    class_idx: u32,
    _pad: u32,
    header: u64,
    payload: u64,
    unit_base: u64,
    carve_i: u32,
    carve_n: u32,
    lock_word: u64,
    region_len: u64,
}

/// Locals live in `free` (register proxy).
#[repr(C)]
struct FreeFrame {
    header: u64,
    magic: u32,
    class_idx: u32,
    scan_i: u32,
    _pad: u32,
    lock_word: u64,
    region: u64,
}

impl CudaAllocModel {
    /// Model over the whole `heap`.
    pub fn new(heap: Arc<DeviceHeap>) -> Self {
        let len = heap.len();
        Self::with_region(heap, 0, len)
    }

    /// Model over `[base, base + len)` of a shared heap — used when another
    /// manager embeds the CUDA allocator for oversize requests.
    ///
    /// # Panics
    /// Panics if the region is not 16-byte aligned or out of bounds.
    pub fn with_region(heap: Arc<DeviceHeap>, base: u64, len: u64) -> Self {
        assert!(
            base.is_multiple_of(16) && len.is_multiple_of(16),
            "region must be 16-byte aligned"
        );
        assert!(base + len <= heap.len(), "region exceeds heap");
        assert!(len >= UNIT, "region too small for the CUDA model");
        CudaAllocModel {
            heap,
            base,
            len,
            state: Mutex::new(State::new(base, len)),
            metrics: Metrics::disabled(),
        }
    }

    /// Convenience constructor: creates its own heap of `len` bytes.
    pub fn with_capacity(len: u64) -> Self {
        Self::new(Arc::new(DeviceHeap::new(len)))
    }

    /// Attaches a contention-observability handle (builder style). Managers
    /// that embed this model pass it a clone of their own handle, so its
    /// walk costs land in their counters; their calls are counted once, by
    /// the layer above them.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// In-place variant of [`CudaAllocModel::with_metrics`] for managers
    /// that embed this model as a field (Halloc, FDGMalloc) and wire it up
    /// after construction.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    fn class_index(size: u64) -> usize {
        let class = next_pow2(size.max(MIN_CLASS));
        (class.trailing_zeros() - MIN_CLASS.trailing_zeros()) as usize
    }

    fn class_bytes(idx: usize) -> u64 {
        MIN_CLASS << idx
    }

    /// Bytes still unclaimed between the two bump frontiers (diagnostics).
    pub fn remaining(&self) -> u64 {
        let st = self.state.lock().unwrap();
        st.large_top.saturating_sub(st.small_bump)
    }
}

impl DeviceAllocator for CudaAllocModel {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("CUDA-Allocator").build()
    }

    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    #[inline]
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        if size == 0 {
            return Err(AllocError::UnsupportedSize(0));
        }
        // `checked_add`: a request near `u64::MAX` must fail here, not wrap
        // and sail through as a tiny large-path allocation.
        if size.checked_add(HEADER).is_none_or(|need| need > self.len) {
            return Err(AllocError::UnsupportedSize(size));
        }
        let mut st = self.state.lock().unwrap();
        if size <= SMALL_LIMIT {
            // Consistency walk (see `State::units`): the modelled
            // serialized bookkeeping that makes this allocator's cost grow
            // with its allocation history. Every registry entry visited is
            // one probe step.
            self.metrics.add(ctx.sm, Counter::ProbeSteps, st.units_len() as u64 + 1);
            std::hint::black_box(st.validate_units());
            let idx = Self::class_index(size);
            let header = match st.pop_class(idx) {
                Some(h) => h,
                None => {
                    if st.carve_unit(idx, Self::class_bytes(idx)).is_none() {
                        return Err(AllocError::OutOfMemory(size));
                    }
                    st.pop_class(idx).expect("carve_unit populates the class")
                }
            };
            self.heap.store_u32(header, MAGIC_SMALL);
            self.heap.store_u32(header + 4, idx as u32);
            Ok(DevicePtr::new(header + HEADER))
        } else {
            let need = align_up(size, 16) + HEADER;
            // The first-fit walk visits at most every free region.
            self.metrics.add(ctx.sm, Counter::ListHops, st.large_free_len() as u64);
            let Some(header) = st.alloc_large(need) else {
                return Err(AllocError::OutOfMemory(size));
            };
            self.heap.store_u32(header, MAGIC_LARGE);
            self.heap.store_u64(header + 8, need);
            Ok(DevicePtr::new(header + HEADER))
        }
    }

    #[inline]
    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        if ptr.is_null() || ptr.offset() < self.base + HEADER {
            return Err(AllocError::InvalidPointer);
        }
        let header = ptr.offset() - HEADER;
        if header >= self.base + self.len {
            return Err(AllocError::InvalidPointer);
        }
        let magic = self.heap.load_u32(header);
        let mut st = self.state.lock().unwrap();
        match magic {
            MAGIC_SMALL => {
                let idx = self.heap.load_u32(header + 4) as usize;
                if idx >= state::NUM_CLASSES {
                    return Err(AllocError::InvalidPointer);
                }
                // The model's heavyweight-deallocation component: a bounded
                // double-free validation scan of the class free stack. Every
                // stack entry inside the window is one hop.
                let scan = st.class_depth(idx).min(VALIDATION_WINDOW) as u64;
                self.metrics.add(ctx.sm, Counter::ListHops, scan);
                if st.class_contains(idx, header, VALIDATION_WINDOW) {
                    return Err(AllocError::InvalidPointer);
                }
                self.heap.store_u32(header, MAGIC_FREE);
                st.push_class(idx, header);
                Ok(())
            }
            MAGIC_LARGE => {
                let need = self.heap.load_u64(header + 8);
                self.heap.store_u32(header, MAGIC_FREE);
                self.metrics.add(ctx.sm, Counter::ListHops, st.large_free_len() as u64);
                st.free_large(header, need);
                Ok(())
            }
            _ => Err(AllocError::InvalidPointer),
        }
    }

    fn register_footprint(&self) -> RegisterFootprint {
        RegisterFootprint::from_frames(
            std::mem::size_of::<MallocFrame>(),
            std::mem::size_of::<FreeFrame>(),
        )
    }

    fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CudaAllocModel {
        CudaAllocModel::with_capacity(1 << 22) // 4 MiB
    }

    #[test]
    fn small_allocations_have_headers_and_alignment() {
        let a = model();
        let ctx = ThreadCtx::host();
        let p = a.malloc(&ctx, 100).unwrap();
        assert!(p.is_aligned(16));
        // Header magic lives 16 bytes before the payload.
        assert_eq!(a.heap().load_u32(p.offset() - HEADER), MAGIC_SMALL);
    }

    #[test]
    fn size_class_rounding() {
        assert_eq!(CudaAllocModel::class_index(1), 0);
        assert_eq!(CudaAllocModel::class_index(16), 0);
        assert_eq!(CudaAllocModel::class_index(17), 1);
        assert_eq!(CudaAllocModel::class_index(2048), 7);
        assert_eq!(CudaAllocModel::class_bytes(0), 16);
        assert_eq!(CudaAllocModel::class_bytes(7), 2048);
    }

    #[test]
    fn free_then_reuse_same_class() {
        let a = model();
        let ctx = ThreadCtx::host();
        let p = a.malloc(&ctx, 64).unwrap();
        a.free(&ctx, p).unwrap();
        let q = a.malloc(&ctx, 64).unwrap();
        assert_eq!(p, q, "freed block should be reused LIFO");
    }

    #[test]
    fn double_free_detected_within_window() {
        let a = model();
        let ctx = ThreadCtx::host();
        let p = a.malloc(&ctx, 64).unwrap();
        a.free(&ctx, p).unwrap();
        assert_eq!(a.free(&ctx, p), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn invalid_pointer_rejected() {
        let a = model();
        let ctx = ThreadCtx::host();
        assert_eq!(a.free(&ctx, DevicePtr::new(4096)), Err(AllocError::InvalidPointer));
        assert_eq!(a.free(&ctx, DevicePtr::NULL), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn large_allocations_come_from_the_top() {
        let a = model();
        let ctx = ThreadCtx::host();
        let small = a.malloc(&ctx, 64).unwrap();
        let large = a.malloc(&ctx, 64 * 1024).unwrap();
        assert!(
            large.offset() > a.heap().len() / 2,
            "large block expected near the top, got {large:?}"
        );
        assert!(small.offset() < a.heap().len() / 2);
    }

    #[test]
    fn large_free_and_reuse() {
        let a = model();
        let ctx = ThreadCtx::host();
        let p = a.malloc(&ctx, 100_000).unwrap();
        a.free(&ctx, p).unwrap();
        let q = a.malloc(&ctx, 100_000).unwrap();
        assert_eq!(p, q, "coalesced large region should satisfy same demand");
    }

    #[test]
    fn both_ends_signature() {
        // Fragmentation signature: one small + one large allocation spans
        // nearly the whole region (paper: "always reports back the maximum
        // possible range").
        let a = model();
        let ctx = ThreadCtx::host();
        let lo = a.malloc(&ctx, 16).unwrap().offset();
        let hi_ptr = a.malloc(&ctx, 4096).unwrap();
        let hi = hi_ptr.offset() + 4096;
        assert!(hi - lo > a.heap().len() * 9 / 10);
    }

    #[test]
    fn exhaustion_is_reported_not_corrupted() {
        let a = CudaAllocModel::with_capacity(64 * 1024);
        let ctx = ThreadCtx::host();
        let mut ptrs = Vec::new();
        loop {
            match a.malloc(&ctx, 1024) {
                Ok(p) => ptrs.push(p),
                Err(AllocError::OutOfMemory(_)) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(!ptrs.is_empty());
        // Everything frees cleanly afterwards.
        for p in ptrs {
            a.free(&ctx, p).unwrap();
        }
        // And allocation works again.
        assert!(a.malloc(&ctx, 1024).is_ok());
    }

    #[test]
    fn subregion_model_stays_in_bounds() {
        let heap = Arc::new(DeviceHeap::new(1 << 20));
        let a = CudaAllocModel::with_region(Arc::clone(&heap), 1 << 19, 1 << 19);
        let ctx = ThreadCtx::host();
        for _ in 0..100 {
            let p = a.malloc(&ctx, 256).unwrap();
            assert!(p.offset() >= 1 << 19);
            assert!(p.offset() + 256 <= 1 << 20);
        }
    }

    #[test]
    fn mixed_small_sizes_never_overlap() {
        let a = model();
        let ctx = ThreadCtx::host();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for i in 0..500u64 {
            let size = 16 + (i % 128) * 16;
            let p = a.malloc(&ctx, size).unwrap();
            spans.push((p.offset(), size));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap between {:?} and {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn near_max_request_fails_instead_of_wrapping() {
        // Regression: `size + HEADER` used to wrap for near-u64::MAX
        // requests, slipping past the length guard and carving a tiny
        // large-path block for an absurd request.
        let a = model();
        let ctx = ThreadCtx::host();
        for size in [u64::MAX, u64::MAX - HEADER + 1, u64::MAX - HEADER] {
            assert!(
                matches!(a.malloc(&ctx, size), Err(AllocError::UnsupportedSize(_))),
                "size {size:#x} must be rejected, not wrapped"
            );
        }
    }
}

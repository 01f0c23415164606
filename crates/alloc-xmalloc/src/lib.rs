//! # alloc-xmalloc — XMalloc (Huang et al., 2010)
//!
//! "The first, non-proprietary, dynamic memory allocator for GPUs" (paper
//! §2.2). Its structure, reproduced here:
//!
//! * **Memoryblock heap** ([`mblock`]): the bottom layer. The managed region
//!   is segmented into free/allocated Memoryblocks forming a linked list
//!   with neighbour merging; large allocations, coalesced warp blocks and
//!   fresh Superblocks come from an address-ordered first-fit traversal of
//!   this list under one lock. The traversal starts at a lower bound the
//!   lock keeps per size bin (power of two × 16 sub-bins) rather than at the
//!   list head: each bound is a block start below which no free block
//!   reaches the bin's floor, and the bounds are monotone in the bin, so the
//!   block found is the one the walk from the head finds and only the hops
//!   over blocks that could never fit are gone.
//! * **Superblocks / Basicblocks**: small allocations are rounded to one of
//!   the static sizes (16 B … 2048 B). Each static size has a *first-level
//!   buffer* — a fixed-capacity, lock-free FIFO array ([`fifo`]) — holding
//!   free Basicblocks. Empty first-level buffers are refilled by splitting a
//!   Superblock (taken from the *second-level buffer*, also a lock-free
//!   FIFO) into Basicblocks. New Superblocks are only allocated from the
//!   Memoryblock heap when the second-level buffer is empty too.
//! * **Deallocation** follows Figure 1's three levels: a Basicblock goes
//!   back into the first-level buffer when there is room, otherwise it is
//!   returned to its parent Superblock (a freed-count in the Superblock
//!   header); a fully-returned Superblock re-enters the second-level buffer
//!   or, failing that, is merged back into the Memoryblock heap.
//! * **SIMD (warp) coalescing**: `malloc_warp` combines all lane requests
//!   of a warp into one Memoryblock carrying a live-lane counter — the
//!   "coalescing of allocation requests on the SIMD width" that is
//!   XMalloc's main contribution. Lane frees decrement the counter; the
//!   last lane releases the block.
//!
//! The original is unstable on modern GPUs (Table 1: crashes in most large
//! test cases); the port is memory-safe and keeps the structure — the list
//! path is the one that takes the lock, and the slower one — and the heavy
//! malloc-side state that makes XMalloc the register-count outlier of §4.1.
//! It does not stand in for the crashes with a quadratic list walk.

// Also enforced workspace-wide; restated here so the audit
// guarantee survives if this crate is ever built out of tree.
#![deny(unsafe_op_in_unsafe_fn)]

use gpumem_core::sync::Ordering;
use std::sync::Arc;

use gpumem_core::traits::rollback_partial_warp;
use gpumem_core::util::{align_up, next_pow2};
use gpumem_core::{
    AllocError, Counter, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics,
    RegisterFootprint, ThreadCtx, WarpCtx, WARP_SIZE,
};

pub mod fifo;
pub mod mblock;

use fifo::FifoArray;
use mblock::MBlockHeap;

/// Static basicblock payload sizes (bytes).
pub const CLASSES: [u64; 8] = [16, 32, 64, 128, 256, 512, 1024, 2048];
/// Item header preceding every payload this manager returns.
pub const ITEM_HDR: u64 = 16;
/// Superblock payload size requested from the Memoryblock heap.
pub const SB_PAYLOAD: u64 = 16 * 1024;
/// Capacity of each first-level FIFO.
pub const FIRST_LEVEL_CAP: usize = 4096;
/// Capacity of the second-level FIFO.
pub const SECOND_LEVEL_CAP: usize = 512;

const MAGIC_ITEM: u32 = 0x584D_0001;
const MAGIC_LARGE: u32 = 0x584D_0002;
const MAGIC_CITEM: u32 = 0x584D_0003;
const MAGIC_CBLK: u32 = 0x584D_0004;
const MAGIC_SB: u32 = 0x584D_0005;

/// The XMalloc memory manager.
pub struct XMalloc {
    heap: Arc<DeviceHeap>,
    mblocks: MBlockHeap,
    /// First-level buffers: free Basicblock offsets, one FIFO per class.
    first_level: [FifoArray; CLASSES.len()],
    /// Second-level buffer: free Superblock payload offsets.
    second_level: FifoArray,
    metrics: Metrics,
}

/// Locals live in `malloc` — the coalescing machinery keeps per-lane sizes,
/// the prefix offsets and the ballot state alive simultaneously, which is
/// why XMalloc's malloc is the register-count outlier of the survey
/// (168 registers reported in §4.1).
#[repr(C)]
struct MallocFrame {
    lane_sizes: [u32; WARP_SIZE as usize],
    lane_prefix: [u64; WARP_SIZE as usize],
    ballot_mask: u32,
    leader: u32,
    class_idx: u32,
    rounded: u32,
    total: u64,
    bb: u64,
    sb: u64,
    cursor: u64,
    n_bbs: u32,
    pushed: u32,
    mb_block: u64,
    mb_size: u64,
    /// The hinted walk's bin, its floor and the first free block of at
    /// least that size stepped over, live until the hints are raised.
    mb_bin: u64,
    mb_floor: u64,
    mb_skipped: u64,
    state: u32,
    retries: u32,
    header_word: u64,
    result: u64,
    spill: [u64; 11],
}

/// Locals live in `free`.
#[repr(C)]
struct FreeFrame {
    item: u64,
    magic: u32,
    class_idx: u32,
    parent: u64,
    freed: u32,
    total: u32,
    cblock: u64,
    live: u32,
    state: u32,
    spill: [u64; 4],
}

impl XMalloc {
    /// Creates XMalloc over all of `heap`.
    pub fn new(heap: Arc<DeviceHeap>) -> Self {
        let mblocks = MBlockHeap::new(&heap, 0, heap.len());
        XMalloc {
            heap,
            mblocks,
            first_level: std::array::from_fn(|_| FifoArray::new(FIRST_LEVEL_CAP)),
            second_level: FifoArray::new(SECOND_LEVEL_CAP),
            metrics: Metrics::disabled(),
        }
    }

    /// Convenience constructor owning its heap.
    pub fn with_capacity(len: u64) -> Self {
        Self::new(Arc::new(DeviceHeap::new(len)))
    }

    /// Attaches a contention-observability handle (builder style).
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// FIFO pop with the op's slot spins recorded as `queue_spins`.
    fn pop_counted(&self, sm: u32, q: &FifoArray) -> Option<u64> {
        let mut spins = 0;
        let r = q.pop_with(&mut spins);
        self.metrics.add(sm, Counter::QueueSpins, spins);
        r
    }

    /// FIFO push with the op's slot spins recorded as `queue_spins`.
    fn push_counted(&self, sm: u32, q: &FifoArray, value: u64) -> bool {
        let mut spins = 0;
        let r = q.push_with(value, &mut spins);
        self.metrics.add(sm, Counter::QueueSpins, spins);
        r
    }

    /// Memoryblock-heap allocation with the first-fit walk recorded as
    /// `list_hops`.
    fn mblock_alloc_counted(&self, sm: u32, payload: u64) -> Option<u64> {
        let mut hops = 0;
        let r = self.mblocks.alloc_with(&self.heap, payload, &mut hops);
        self.metrics.add(sm, Counter::ListHops, hops);
        r
    }

    fn class_index(size: u64) -> usize {
        let c = next_pow2(size.max(16));
        (c.trailing_zeros() - 4) as usize
    }

    fn write_item_header(&self, item: u64, magic: u32, word: u32, parent: u64) {
        self.heap.store_u32(item, magic);
        self.heap.store_u32(item + 4, word);
        self.heap.store_u64(item + 8, parent);
    }

    /// Splits a fresh/recycled Superblock for `class_idx` and returns one
    /// Basicblock, pushing the rest into the first-level buffer.
    fn carve_superblock(&self, sm: u32, sb: u64, class_idx: usize) -> u64 {
        let class = CLASSES[class_idx];
        let stride = class + ITEM_HDR;
        let n = ((SB_PAYLOAD - 16) / stride) as u32;
        debug_assert!(n >= 2);
        // Superblock header: magic, freed counter, total, class.
        self.heap.store_u32(sb, MAGIC_SB);
        self.heap.store_u32(sb + 4, 0);
        self.heap.store_u32(sb + 8, n);
        self.heap.store_u32(sb + 12, class_idx as u32);
        let first_bb = sb + 16;
        let mut returned_to_sb = 0u32;
        for i in 1..n {
            let bb = first_bb + i as u64 * stride;
            self.write_item_header(bb, MAGIC_ITEM, class_idx as u32, sb);
            if !self.push_counted(sm, &self.first_level[class_idx], bb) {
                // Buffer full: these blocks count as returned to the SB.
                returned_to_sb += 1;
            }
        }
        if returned_to_sb > 0 {
            self.heap.atomic_u32(sb + 4).fetch_add(returned_to_sb, Ordering::AcqRel);
        }
        self.write_item_header(first_bb, MAGIC_ITEM, class_idx as u32, sb);
        first_bb
    }

    fn malloc_small(&self, sm: u32, class_idx: usize) -> Result<DevicePtr, AllocError> {
        // Fast path: first-level buffer.
        if let Some(bb) = self.pop_counted(sm, &self.first_level[class_idx]) {
            return Ok(DevicePtr::new(bb + ITEM_HDR));
        }
        // Refill: second-level buffer, then the Memoryblock heap.
        let sb = match self.pop_counted(sm, &self.second_level) {
            Some(sb) => sb,
            None => self
                .mblock_alloc_counted(sm, SB_PAYLOAD)
                .ok_or(AllocError::OutOfMemory(CLASSES[class_idx]))?,
        };
        let bb = self.carve_superblock(sm, sb, class_idx);
        Ok(DevicePtr::new(bb + ITEM_HDR))
    }

    fn malloc_large(&self, sm: u32, size: u64) -> Result<DevicePtr, AllocError> {
        // Checked: `size + ITEM_HDR` wrapping would turn an absurd request
        // into a small (apparently successful) mblock carve. A request the
        // whole heap could not hold is refused as such, not as exhaustion.
        let need = size
            .checked_add(ITEM_HDR)
            .filter(|&need| need <= self.heap.len())
            .ok_or(AllocError::UnsupportedSize(size))?;
        let mp = self.mblock_alloc_counted(sm, need).ok_or(AllocError::OutOfMemory(size))?;
        self.write_item_header(mp, MAGIC_LARGE, 0, 0);
        Ok(DevicePtr::new(mp + ITEM_HDR))
    }

    /// Returns a Basicblock to its parent Superblock; reclaims the
    /// Superblock once every Basicblock is home.
    fn return_to_superblock(&self, sm: u32, sb: u64) {
        debug_assert_eq!(self.heap.load_u32(sb), MAGIC_SB);
        let total = self.heap.load_u32(sb + 8);
        let prev = self.heap.atomic_u32(sb + 4).fetch_add(1, Ordering::AcqRel);
        if prev + 1 == total {
            // All Basicblocks returned: recycle the Superblock.
            if !self.push_counted(sm, &self.second_level, sb) {
                let _ = self.mblocks.free(&self.heap, sb);
            }
        }
    }
}

impl DeviceAllocator for XMalloc {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("XMalloc").build()
    }

    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    #[inline]
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        if size == 0 {
            Err(AllocError::UnsupportedSize(0))
        } else if size <= CLASSES[CLASSES.len() - 1] {
            self.malloc_small(ctx.sm, Self::class_index(size))
        } else {
            self.malloc_large(ctx.sm, size)
        }
    }

    /// The three-level deallocation of Figure 1.
    #[inline]
    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        if ptr.is_null() || ptr.offset() < ITEM_HDR || ptr.offset() >= self.heap.len() {
            return Err(AllocError::InvalidPointer);
        }
        let item = ptr.offset() - ITEM_HDR;
        match self.heap.load_u32(item) {
            MAGIC_ITEM => {
                let class_idx = self.heap.load_u32(item + 4) as usize;
                let sb = self.heap.load_u64(item + 8);
                if class_idx >= CLASSES.len()
                    || sb + 16 > self.heap.len()
                    || self.heap.load_u32(sb) != MAGIC_SB
                {
                    return Err(AllocError::InvalidPointer);
                }
                if !self.push_counted(ctx.sm, &self.first_level[class_idx], item) {
                    self.return_to_superblock(ctx.sm, sb);
                }
                Ok(())
            }
            MAGIC_LARGE => {
                self.mblocks.free(&self.heap, item).map_err(|()| AllocError::InvalidPointer)
            }
            MAGIC_CITEM => {
                let back = self.heap.load_u32(item + 4) as u64;
                if back > item {
                    return Err(AllocError::InvalidPointer);
                }
                let cblock = item - back;
                if self.heap.load_u32(cblock) != MAGIC_CBLK {
                    return Err(AllocError::InvalidPointer);
                }
                // Tombstone the item header so a double free is caught.
                self.heap.store_u32(item, 0);
                let live = self.heap.atomic_u32(cblock + 4).fetch_sub(1, Ordering::AcqRel);
                if live == 1 {
                    self.heap.store_u32(cblock, 0);
                    self.mblocks
                        .free(&self.heap, cblock)
                        .map_err(|()| AllocError::InvalidPointer)?;
                }
                Ok(())
            }
            _ => Err(AllocError::InvalidPointer),
        }
    }

    /// SIMD-width coalescing: all lane requests become one Memoryblock with
    /// a live-lane counter.
    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        debug_assert_eq!(sizes.len(), out.len());
        if sizes.is_empty() {
            return Ok(());
        }
        // Checked like the large path: a wrapped total would carve a block
        // too small for the lanes written into it below.
        let Some(total) = sizes.iter().try_fold(16u64, |total, &s| {
            total.checked_add(s.max(1).checked_next_multiple_of(16)?.checked_add(ITEM_HDR)?)
        }) else {
            out.fill(DevicePtr::NULL);
            let largest = sizes.iter().copied().max().unwrap_or(0);
            return Err(AllocError::UnsupportedSize(largest));
        };
        match self.mblock_alloc_counted(warp.sm, total) {
            Some(cblock) => {
                self.metrics.add(warp.sm, Counter::WarpCoalesced, sizes.len() as u64);
                self.heap.store_u32(cblock, MAGIC_CBLK);
                self.heap.store_u32(cblock + 4, sizes.len() as u32);
                self.heap.store_u64(cblock + 8, total);
                let mut cursor = cblock + 16;
                for (&size, slot) in sizes.iter().zip(out.iter_mut()) {
                    self.write_item_header(cursor, MAGIC_CITEM, (cursor - cblock) as u32, cblock);
                    *slot = DevicePtr::new(cursor + ITEM_HDR);
                    cursor += align_up(size.max(1), 16) + ITEM_HDR;
                }
                Ok(())
            }
            None => {
                // Coalesced block does not fit: fall back to lane-by-lane.
                // All-or-nothing like the trait default: a failing lane rolls
                // back the lanes already granted and nulls every out slot.
                for lane in 0..sizes.len() {
                    match self.malloc(&warp.lane(lane as u32), sizes[lane]) {
                        Ok(ptr) => out[lane] = ptr,
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
    use gpumem_core::traits::DeviceAllocatorExt;

    const HEAP: u64 = 4 << 20;

    fn ctx() -> ThreadCtx {
        ThreadCtx::host()
    }

    fn alloc() -> XMalloc {
        XMalloc::with_capacity(HEAP)
    }

    #[test]
    fn class_rounding() {
        assert_eq!(XMalloc::class_index(1), 0);
        assert_eq!(XMalloc::class_index(16), 0);
        assert_eq!(XMalloc::class_index(17), 1);
        assert_eq!(XMalloc::class_index(2048), 7);
    }

    #[test]
    fn small_allocation_roundtrip() {
        let a = alloc();
        let p = a.checked_malloc(&ctx(), 100).unwrap();
        a.heap().fill(p, 100, 0x11);
        a.free(&ctx(), p).unwrap();
    }

    #[test]
    fn first_level_buffer_recycles_freed_blocks() {
        let a = alloc();
        let p = a.malloc(&ctx(), 64).unwrap();
        a.free(&ctx(), p).unwrap();
        // The freed basicblock is somewhere in the FIFO; allocating the
        // same class drains the FIFO and must eventually return it.
        let mut found = false;
        for _ in 0..FIRST_LEVEL_CAP {
            if a.malloc(&ctx(), 64).unwrap() == p {
                found = true;
                break;
            }
        }
        assert!(found, "freed basicblock never reappeared");
    }

    #[test]
    fn large_allocations_bypass_buffers() {
        let a = alloc();
        let p = a.checked_malloc(&ctx(), 100_000).unwrap();
        a.heap().fill(p, 100_000, 0x22);
        a.free(&ctx(), p).unwrap();
        let q = a.malloc(&ctx(), 100_000).unwrap();
        assert_eq!(p, q, "memoryblock heap merges and reuses");
    }

    #[test]
    fn warp_coalescing_packs_lanes_contiguously() {
        let a = alloc();
        let w = WarpCtx { warp: 0, block: 0, sm: 0 };
        let sizes = [48u64; 32];
        let mut out = [DevicePtr::NULL; 32];
        a.malloc_warp(&w, &sizes, &mut out).unwrap();
        for pair in out.windows(2) {
            assert_eq!(
                pair[1].offset() - pair[0].offset(),
                48 + ITEM_HDR,
                "lane payloads must be contiguous with one header stride"
            );
        }
        // Frees release the coalesced block only when the last lane frees.
        for &p in &out {
            a.free(&ctx(), p).unwrap();
        }
        // The whole block is reusable again.
        let p = a.malloc(&ctx(), 100_000).unwrap();
        a.free(&ctx(), p).unwrap();
    }

    #[test]
    fn coalesced_double_free_detected() {
        let a = alloc();
        let w = WarpCtx { warp: 0, block: 0, sm: 0 };
        let mut out = [DevicePtr::NULL; 2];
        a.malloc_warp(&w, &[32, 32], &mut out).unwrap();
        a.free(&ctx(), out[0]).unwrap();
        assert_eq!(a.free(&ctx(), out[0]), Err(AllocError::InvalidPointer));
        a.free(&ctx(), out[1]).unwrap();
    }

    #[test]
    fn superblock_recycled_after_all_basicblocks_return() {
        let a = alloc();
        let stride = 2048 + ITEM_HDR;
        let per_sb = ((SB_PAYLOAD - 16) / stride) as usize; // 7
        let n = per_sb * 3;
        let ptrs: Vec<DevicePtr> = (0..n).map(|_| a.malloc(&ctx(), 2048).unwrap()).collect();
        for p in &ptrs {
            a.free(&ctx(), *p).unwrap();
        }
        // Allocate again — everything must still work (recycled SBs).
        let again: Vec<DevicePtr> = (0..n).map(|_| a.malloc(&ctx(), 2048).unwrap()).collect();
        assert_eq!(again.len(), n);
    }

    #[test]
    fn zero_size_rejected() {
        let a = alloc();
        assert_eq!(a.malloc(&ctx(), 0), Err(AllocError::UnsupportedSize(0)));
    }

    #[test]
    fn invalid_pointers_rejected() {
        let a = alloc();
        assert_eq!(a.free(&ctx(), DevicePtr::NULL), Err(AllocError::InvalidPointer));
        assert_eq!(a.free(&ctx(), DevicePtr::new(4)), Err(AllocError::InvalidPointer));
        assert_eq!(
            a.free(&ctx(), DevicePtr::new(HEAP / 2)),
            Err(AllocError::InvalidPointer),
            "pointer into unwritten heap has no item magic"
        );
    }

    #[test]
    fn mixed_sizes_do_not_overlap() {
        let a = alloc();
        let mut spans = Vec::new();
        for i in 0..400u64 {
            let size = 16 << (i % 6);
            let p = a.malloc(&ctx(), size).unwrap();
            spans.push((p.offset(), size));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn oom_reported_and_recoverable() {
        let a = XMalloc::with_capacity(256 * 1024);
        let mut ptrs = Vec::new();
        loop {
            match a.malloc(&ctx(), 2048) {
                Ok(p) => ptrs.push(p),
                Err(AllocError::OutOfMemory(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(ptrs.len() >= 100, "{} blocks", ptrs.len());
        for p in ptrs {
            a.free(&ctx(), p).unwrap();
        }
        assert!(a.malloc(&ctx(), 2048).is_ok());
    }

    #[test]
    fn concurrent_stress_no_overlap() {
        let a = Arc::new(XMalloc::with_capacity(8 << 20));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut live = Vec::new();
                for i in 0..2000u32 {
                    let c = ThreadCtx::from_linear(t * 2000 + i, 256, 80);
                    let size = 16u64 << (i % 7);
                    let p = a.malloc(&c, size).expect("8 MiB is plenty");
                    a.heap().fill(p, size, 0x99);
                    live.push((p, size));
                    if i % 2 == 1 {
                        let (p, _) = live.swap_remove(0);
                        a.free(&c, p).unwrap();
                    }
                }
                live.into_iter().map(|(p, s)| (p.offset(), s)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<(u64, u64)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn register_footprint_is_the_malloc_outlier() {
        let fp = alloc().register_footprint();
        assert!(fp.malloc >= 120, "XMalloc malloc must dwarf the field: {fp}");
        assert!(fp.free <= 30, "free stays modest: {fp}");
    }

    #[test]
    fn near_max_request_fails_instead_of_wrapping() {
        // Regression: `size + ITEM_HDR` on the large path, then
        // `align_up(payload, 16) + HDR` in the Memoryblock heap, used to wrap
        // for near-u64::MAX requests: `u64::MAX - 47` split a zero-sized
        // block off the list head, was granted, and the next walk never
        // ended.
        let a = alloc();
        let census = a.mblocks.census(&a.heap);
        for size in u64::MAX - 63..=u64::MAX {
            assert!(
                matches!(a.malloc(&ctx(), size), Err(AllocError::UnsupportedSize(_))),
                "size {size:#x} must be rejected, not wrapped"
            );
        }
        assert_eq!(a.mblocks.census(&a.heap), census, "a refused request carved the list");
        a.free(&ctx(), a.malloc(&ctx(), 4096).unwrap()).unwrap();
    }

    #[test]
    fn warp_total_that_wraps_is_refused_with_nothing_allocated() {
        // Regression: the unchecked lane sum wrapped to a few hundred bytes,
        // the coalesced block was carved for that, and the second lane's
        // header was written far outside it.
        let a = alloc();
        let census = a.mblocks.census(&a.heap);
        let w = WarpCtx { warp: 0, block: 0, sm: 0 };
        let mut out = [DevicePtr::new(64); 2];
        let r = a.malloc_warp(&w, &[u64::MAX - 100, 64], &mut out);
        assert_eq!(r, Err(AllocError::UnsupportedSize(u64::MAX - 100)));
        assert_eq!(out, [DevicePtr::NULL; 2]);
        assert_eq!(a.mblocks.census(&a.heap), census);
    }
}

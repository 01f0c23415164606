//! # alloc-halloc — Halloc (Adinetz & Pleiter, 2014)
//!
//! Paper §2.7: "Halloc starts by allocating slabs of 2 MB–8 MB in its
//! initialization phase, which can then be assigned to an allocation size at
//! runtime. The core of Halloc is a bitmap heap with one bit for each block
//! that can be allocated from the system."
//!
//! Reproduced design:
//!
//! * **Slabs** ([`slab`]) are assigned to a size class on demand and carry a
//!   block bitmap plus an allocation counter. Free slabs can switch chunk
//!   sizes; empty slabs are returned to the free pool.
//! * **Size classes** are the powers of two and 3·2ᵏ values up to 3072 B
//!   (Figure 5's `alloc_sizes` column: 16, 24, 32, 48, 64, …, 3072).
//! * **Hashed bitmap traversal** (Figure 5's hash function) scatters bit
//!   searches with a prime step so the search "visits all blocks and is
//!   fast and scalable, as long as < 85 % of the blocks are allocated".
//! * **Head slabs**: each class allocates from a head slab; "head
//!   replacement also starts early (fill level > 83.5 %) to reduce this
//!   impact", and busy slabs (> 60 %) are avoided when choosing a new head.
//! * **Warp-aggregated atomics**: `malloc_warp` batches the counter updates
//!   of same-class lanes through one leader update
//!   ([`slab::Slab::reserve_many`]).
//! * **Allocations larger than 3 KiB are relayed to the CUDA-Allocator**,
//!   which manages a reserved section at the top of the heap ("it also
//!   splits its memory into two sections to accommodate larger allocations
//!   with the CUDA-Allocator").

// Also enforced workspace-wide; restated here so the audit
// guarantee survives if this crate is ever built out of tree.
#![deny(unsafe_op_in_unsafe_fn)]

use gpumem_core::sync::{AtomicU32, Ordering};
use std::sync::Arc;

use alloc_cuda::CudaAllocModel;
use gpumem_core::util::Divisor;
use gpumem_core::{
    AllocError, Counter, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics,
    RegisterFootprint, ThreadCtx, WarpCtx, WARP_SIZE,
};

pub mod slab;

use slab::{Bitmap, Slab, CLASS_FREE};

/// Size classes: powers of two and 3·2ᵏ, 16 B … 3072 B.
pub const CLASSES: [u64; 17] =
    [16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096];
/// Requests above this are relayed to the CUDA-Allocator model.
pub const MAX_BLOCK: u64 = 3072;
/// Head replacement threshold (fill %·10 — the paper's 83.5 %).
pub const HEAD_REPLACE_PCT10: u32 = 835;
/// [`HEAD_REPLACE_PCT10`] in the whole percent a slab's fill is floored
/// to: `pct · 10 > 835` exactly when `pct ≥ 84`.
const HEAD_REPLACE_PCT: u32 = HEAD_REPLACE_PCT10 / 10 + 1;
/// "Busy" slab threshold: avoided in head search.
pub const BUSY_PCT: u32 = 60;
/// Sentinel: class has no head slab yet.
const NO_HEAD: u32 = u32::MAX;

/// Tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Slab size in bytes, a power of two (the original uses 2–8 MiB).
    pub slab_bytes: u64,
    /// Fraction denominator of the heap handed to the CUDA-Allocator for
    /// large requests (¼ by default).
    pub cuda_share_div: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { slab_bytes: 2 << 20, cuda_share_div: 4 }
    }
}

/// What an operation needs of a size class, computed once per manager so
/// that no operation divides.
#[derive(Clone, Copy, Debug)]
struct Class {
    /// A slab's bitmap geometry at this block size.
    bitmap: Bitmap,
    /// The block size, for turning a slab offset into a block index.
    size_div: Divisor,
}

/// The Halloc memory manager.
pub struct Halloc {
    heap: Arc<DeviceHeap>,
    cfg: Config,
    /// `log2(cfg.slab_bytes)`.
    slab_shift: u32,
    classes: [Class; CLASSES.len()],
    slabs: Box<[Slab]>,
    /// `slabs.len()`, for the rotating hint.
    n_slabs: Divisor,
    /// Head slab per size class.
    heads: Box<[AtomicU32]>,
    /// Rotating hint for free-slab acquisition.
    free_hint: AtomicU32,
    /// Start of the CUDA-Allocator section.
    cuda_base: u64,
    cuda: CudaAllocModel,
    metrics: Metrics,
}

/// Locals live in `malloc` (register proxy): hash state, slab cursors,
/// bitmap word/bit registers — the survey reports ~40 registers.
#[repr(C)]
struct MallocFrame {
    size: u64,
    class_idx: u32,
    block_size: u32,
    hash: u64,
    slab_idx: u32,
    blocks: u32,
    word: u32,
    bit: u32,
    step: u64,
    count: u32,
    fill: u32,
    head: u32,
    retries: u32,
    base: u64,
    result: u64,
    probe_i: u64,
    word_val: u32,
    granted: u32,
    spill: [u64; 7],
}

/// Locals live in `free`.
#[repr(C)]
struct FreeFrame {
    ptr: u64,
    slab_idx: u32,
    class_idx: u32,
    block: u32,
    word: u32,
    prev_count: u32,
    state: u32,
    base: u64,
    spill: [u64; 3],
}

impl Halloc {
    /// Creates Halloc over all of `heap` with default tuning.
    pub fn new(heap: Arc<DeviceHeap>) -> Self {
        Self::with_config(heap, Config::default())
    }

    /// Creates Halloc with explicit tuning.
    pub fn with_config(heap: Arc<DeviceHeap>, cfg: Config) -> Self {
        let len = heap.len();
        assert!(cfg.slab_bytes >= 64 * 1024, "slab too small");
        assert!(cfg.slab_bytes.is_power_of_two(), "slab size must be a power of two");
        let cuda_len = {
            let raw = len / cfg.cuda_share_div;
            (raw / cfg.slab_bytes).max(1) * cfg.slab_bytes
        };
        assert!(len > cuda_len, "heap too small for Halloc's two sections");
        let n_slabs = ((len - cuda_len) / cfg.slab_bytes) as usize;
        assert!(n_slabs >= 1, "heap too small for one slab");
        let cuda_base = n_slabs as u64 * cfg.slab_bytes;
        let max_blocks = (cfg.slab_bytes / CLASSES[0]) as u32;
        let cuda = CudaAllocModel::with_region(Arc::clone(&heap), cuda_base, len - cuda_base);
        Halloc {
            heap,
            cfg,
            slab_shift: cfg.slab_bytes.trailing_zeros(),
            classes: std::array::from_fn(|i| Class {
                bitmap: Bitmap::new((cfg.slab_bytes / CLASSES[i]) as u32),
                size_div: Divisor::new(CLASSES[i]),
            }),
            slabs: (0..n_slabs).map(|_| Slab::new(max_blocks)).collect(),
            n_slabs: Divisor::new(n_slabs as u64),
            heads: (0..CLASSES.len()).map(|_| AtomicU32::new(NO_HEAD)).collect(),
            free_hint: AtomicU32::new(0),
            cuda_base,
            cuda,
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a contention-observability handle, shared with the embedded
    /// CUDA-Allocator section so relayed large requests add their
    /// contention counters to this manager's.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.cuda.set_metrics(metrics.clone());
        self.metrics = metrics;
        self
    }

    /// Convenience constructor owning its heap.
    pub fn with_capacity(len: u64) -> Self {
        Self::new(Arc::new(DeviceHeap::new(len)))
    }

    fn class_index(size: u64) -> Option<usize> {
        CLASSES.iter().position(|&c| c >= size)
    }

    fn blocks_per_slab(&self, class_idx: usize) -> u32 {
        self.classes[class_idx].bitmap.blocks
    }

    /// Finds a slab to serve `class_idx`: prefer an existing same-class,
    /// non-busy slab; otherwise claim a free slab. ("Free slabs can switch
    /// between chunk sizes, sparse slabs can switch between block sizes…
    /// busy slabs (>60 %) are normally not used during head search, except
    /// when no other blocks are available anymore.") Each pass walks every
    /// slab once, from a rotating start.
    fn find_head(&self, class_idx: usize, allow_busy: bool, probes: &mut u64) -> Option<u32> {
        let blocks = self.blocks_per_slab(class_idx);
        let n = self.slabs.len() as u32;
        let start = self.n_slabs.rem(self.free_hint.fetch_add(1, Ordering::Relaxed).into()) as u32;
        let ring = || (start..n).chain(0..start);
        // Pass 1: same-class slab under the busy threshold.
        for s in ring() {
            let slab = &self.slabs[s as usize];
            *probes += 1;
            if slab.class.load(Ordering::Acquire) == class_idx as u32
                && slab.fill_below(blocks, BUSY_PCT)
            {
                return Some(s);
            }
        }
        // Pass 2: claim a free slab.
        for s in ring() {
            *probes += 1;
            if self.slabs[s as usize].try_assign(class_idx as u32, blocks) {
                return Some(s);
            }
        }
        // Pass 3: any same-class slab with space, busy or not.
        if allow_busy {
            for s in ring() {
                let slab = &self.slabs[s as usize];
                *probes += 1;
                if slab.class.load(Ordering::Acquire) == class_idx as u32
                    && slab.fill_below(blocks, 100)
                {
                    return Some(s);
                }
            }
        }
        None
    }

    /// Reserves `want` blocks of `class_idx` on some slab; returns
    /// `(slab_idx, granted)`. Head-search slab scans feed `probe_steps`,
    /// lost counter CASes and head-replacement rounds feed `cas_retries`.
    fn reserve_blocks(
        &self,
        sm: u32,
        class_idx: usize,
        want: u32,
    ) -> Result<(u32, u32), AllocError> {
        let blocks = self.blocks_per_slab(class_idx);
        let head_cell = &self.heads[class_idx];
        let (mut probes, mut retries) = (0u64, 0u64);
        let flush = |probes: u64, retries: u64| {
            self.metrics.add(sm, Counter::ProbeSteps, probes);
            self.metrics.add(sm, Counter::CasRetries, retries);
        };
        for attempt in 0..self.slabs.len() * 2 + 4 {
            if attempt > 0 {
                retries += 1;
            }
            let mut head = head_cell.load(Ordering::Acquire);
            if head == NO_HEAD || head as usize >= self.slabs.len() {
                match self.find_head(class_idx, attempt > 0, &mut probes) {
                    Some(s) => {
                        let _ = head_cell.compare_exchange(
                            head,
                            s,
                            Ordering::AcqRel,
                            Ordering::Relaxed,
                        );
                        head = s;
                    }
                    None => {
                        // Transiently possible under contention: a slab can
                        // be mid-assignment (setup flag) while the last free
                        // slab was just claimed. Retry within the bounded
                        // loop; persistent failure is a real out-of-memory.
                        if attempt + 1 == self.slabs.len() * 2 + 4 {
                            flush(probes, retries);
                            return Err(AllocError::OutOfMemory(CLASSES[class_idx]));
                        }
                        gpumem_core::sync::hint::spin_loop();
                        continue;
                    }
                }
            }
            let slab = &self.slabs[head as usize];
            // The head may have been reassigned to another class meanwhile.
            if slab.class.load(Ordering::Acquire) == class_idx as u32 {
                let granted = slab.reserve_many_with(blocks, want, &mut retries);
                if granted > 0 {
                    // Post-reservation validation: between the class check
                    // and the reservation the slab may have been freed and
                    // reassigned. Our reservation now blocks `try_free`, so
                    // a matching class here is stable until we release.
                    if slab.class.load(Ordering::Acquire) != class_idx as u32 {
                        slab.unreserve(granted);
                        let _ = head_cell.compare_exchange(
                            head,
                            NO_HEAD,
                            Ordering::AcqRel,
                            Ordering::Relaxed,
                        );
                        continue;
                    }
                    // Early head replacement at 83.5 % fill.
                    if !slab.fill_below(blocks, HEAD_REPLACE_PCT) {
                        if let Some(s) = self.find_head(class_idx, false, &mut probes) {
                            let _ = head_cell.compare_exchange(
                                head,
                                s,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            );
                        }
                    }
                    flush(probes, retries);
                    return Ok((head, granted));
                }
            }
            // Full or stolen: drop this head and retry.
            let _ = head_cell.compare_exchange(head, NO_HEAD, Ordering::AcqRel, Ordering::Relaxed);
        }
        flush(probes, retries);
        Err(AllocError::OutOfMemory(CLASSES[class_idx]))
    }

    fn block_ptr(&self, slab_idx: u32, class_idx: usize, block: u32) -> DevicePtr {
        let base = (slab_idx as u64) << self.slab_shift;
        DevicePtr::new(base + block as u64 * CLASSES[class_idx])
    }

    /// Warp-aggregated allocation body: lanes of the same class share one
    /// counter update through the leader. Fills `out` as groups are served;
    /// the trait wrapper rolls the granted lanes back on failure.
    fn malloc_warp_inner(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        debug_assert_eq!(sizes.len(), out.len());
        debug_assert!(sizes.len() <= WARP_SIZE as usize);
        // Lanes still to serve, as a ballot mask (bit `i` is lane `i`). Each
        // round serves every pending lane of the lowest pending lane's
        // class, in lane order.
        let mut remaining = (1u64 << sizes.len()) - 1;
        while remaining != 0 {
            let first = remaining.trailing_zeros() as usize;
            let size = sizes[first];
            if size == 0 {
                return Err(AllocError::UnsupportedSize(0));
            }
            let Some(class_idx) = Self::class_index(size).filter(|_| size <= MAX_BLOCK) else {
                // Above MAX_BLOCK: relayed to the CUDA-Allocator.
                self.metrics.tick(warp.sm, Counter::OomFallbacks);
                out[first] = self.cuda.malloc(&warp.lane(first as u32), size)?;
                remaining &= remaining - 1;
                continue;
            };
            let group = (0..sizes.len())
                .filter(|&i| {
                    (remaining >> i) & 1 == 1
                        && sizes[i] > 0
                        && Self::class_index(sizes[i]) == Some(class_idx)
                })
                .fold(0u64, |mask, i| mask | (1 << i));
            let mut pending = group;
            let mut todo = group.count_ones();
            while todo > 0 {
                let (slab_idx, granted) = self.reserve_blocks(warp.sm, class_idx, todo)?;
                let bitmap = &self.classes[class_idx].bitmap;
                let slab = &self.slabs[slab_idx as usize];
                let (mut probes, mut lost) = (0u64, 0u64);
                let mut served = 0;
                for g in 0..granted {
                    let lane = pending.trailing_zeros() as usize;
                    match slab.claim_bit_with(
                        bitmap,
                        warp.lane(lane as u32).scatter_hash(),
                        &mut probes,
                        &mut lost,
                    ) {
                        Some(block) => {
                            out[lane] = self.block_ptr(slab_idx, class_idx, block);
                            pending &= pending - 1;
                            served += 1;
                        }
                        None => {
                            slab.unreserve(granted - g);
                            break;
                        }
                    }
                }
                self.metrics.add(warp.sm, Counter::ProbeSteps, probes);
                self.metrics.add(warp.sm, Counter::CasRetries, lost);
                // One leader counter update covered all `served` lanes.
                self.metrics.add(warp.sm, Counter::WarpCoalesced, served as u64);
                todo -= served;
                if served == 0 {
                    return Err(AllocError::Contention("Halloc warp aggregation"));
                }
            }
            remaining &= !group;
        }
        Ok(())
    }
}

impl DeviceAllocator for Halloc {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("Halloc")
            .alignment(8) // class 24 B blocks land on 8-byte boundaries
            .build()
    }

    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    #[inline]
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        if size == 0 {
            return Err(AllocError::UnsupportedSize(0));
        }
        if size > MAX_BLOCK {
            // "Allocations larger than 3 KiB are relayed to the
            // CUDA-Allocator."
            self.metrics.tick(ctx.sm, Counter::OomFallbacks);
            return self.cuda.malloc(ctx, size);
        }
        let class_idx = Self::class_index(size).expect("size <= MAX_BLOCK");
        let (slab_idx, _) = self.reserve_blocks(ctx.sm, class_idx, 1)?;
        let bitmap = &self.classes[class_idx].bitmap;
        let slab = &self.slabs[slab_idx as usize];
        let (mut probes, mut lost) = (0u64, 0u64);
        let claimed = slab.claim_bit_with(bitmap, ctx.scatter_hash(), &mut probes, &mut lost);
        self.metrics.add(ctx.sm, Counter::ProbeSteps, probes);
        self.metrics.add(ctx.sm, Counter::CasRetries, lost);
        match claimed {
            Some(block) => Ok(self.block_ptr(slab_idx, class_idx, block)),
            None => {
                slab.unreserve(1);
                Err(AllocError::Contention("Halloc bitmap probe"))
            }
        }
    }

    #[inline]
    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        if ptr.is_null() || ptr.offset() >= self.heap.len() {
            return Err(AllocError::InvalidPointer);
        }
        if ptr.offset() >= self.cuda_base {
            return self.cuda.free(ctx, ptr);
        }
        let slab_idx = (ptr.offset() >> self.slab_shift) as usize;
        let slab = &self.slabs[slab_idx];
        let class = slab.class.load(Ordering::Acquire);
        if class == CLASS_FREE || class as usize >= CLASSES.len() {
            return Err(AllocError::InvalidPointer);
        }
        let class_idx = class as usize;
        let delta = ptr.offset() & (self.cfg.slab_bytes - 1);
        let block = self.classes[class_idx].size_div.div(delta);
        if delta != block * CLASSES[class_idx] || block >= self.blocks_per_slab(class_idx) as u64 {
            return Err(AllocError::InvalidPointer);
        }
        let block = block as u32;
        let prev = slab.release_bit(block).map_err(|()| AllocError::InvalidPointer)?;
        if prev == 1 {
            // Slab is empty: return it to the free pool (and drop it as a
            // head if it was one).
            if slab.try_free() {
                let _ = self.heads[class_idx].compare_exchange(
                    slab_idx as u32,
                    NO_HEAD,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
        }
        Ok(())
    }

    /// Warp-aggregated allocation: lanes of the same class share one
    /// counter update through the leader.
    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        // The inner body fills `out` as groups are served; start from a
        // clean slate so a partial failure can tell granted lanes apart
        // from caller residue.
        for slot in out.iter_mut() {
            *slot = DevicePtr::NULL;
        }
        let r = self.malloc_warp_inner(warp, sizes, out);
        if r.is_err() {
            // All-or-nothing like the trait default: free the lanes that
            // were granted before the failure so nothing leaks.
            for (lane, slot) in out.iter_mut().enumerate() {
                if !slot.is_null() {
                    let _ = self.free(&warp.lane(lane as u32), *slot);
                    *slot = DevicePtr::NULL;
                }
            }
        }
        r
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

    fn small() -> Halloc {
        // 1 MiB slabs keep the tests light: 8 MiB → 6 slab + 2 cuda.
        Halloc::with_config(
            Arc::new(DeviceHeap::new(8 << 20)),
            Config { slab_bytes: 1 << 20, cuda_share_div: 4 },
        )
    }

    fn ctx() -> ThreadCtx {
        ThreadCtx::host()
    }

    #[test]
    fn class_lookup_matches_figure_5() {
        assert_eq!(Halloc::class_index(1), Some(0)); // 16
        assert_eq!(Halloc::class_index(17), Some(1)); // 24
        assert_eq!(Halloc::class_index(25), Some(2)); // 32
        assert_eq!(Halloc::class_index(100), Some(6)); // 128
        assert_eq!(Halloc::class_index(3072), Some(15));
        assert_eq!(Halloc::class_index(5000), None);
    }

    #[test]
    fn malloc_roundtrip_and_block_alignment() {
        let a = small();
        let p = a.malloc(&ctx(), 100).unwrap();
        // 100 → class 128: block-aligned within the slab.
        assert_eq!(p.offset() % 128, 0);
        a.heap().fill(p, 100, 0xaa);
        a.free(&ctx(), p).unwrap();
    }

    #[test]
    fn same_class_reuses_head_slab() {
        let a = small();
        let p1 = a.malloc(&ctx(), 64).unwrap();
        let p2 = a.malloc(&ctx(), 64).unwrap();
        assert_eq!(p1.offset() / (1 << 20), p2.offset() / (1 << 20), "same head slab");
    }

    #[test]
    fn different_classes_use_different_slabs() {
        let a = small();
        let p1 = a.malloc(&ctx(), 64).unwrap();
        let p2 = a.malloc(&ctx(), 1024).unwrap();
        assert_ne!(p1.offset() / (1 << 20), p2.offset() / (1 << 20));
    }

    #[test]
    fn large_requests_relay_to_cuda_section() {
        let a = small();
        let p = a.malloc(&ctx(), 100_000).unwrap();
        assert!(p.offset() >= a.cuda_base, "large allocation must live in the CUDA section");
        a.free(&ctx(), p).unwrap();
    }

    #[test]
    fn boundary_at_3072() {
        let a = small();
        let p = a.malloc(&ctx(), 3072).unwrap();
        assert!(p.offset() < a.cuda_base, "3072 is still native");
        let q = a.malloc(&ctx(), 3073).unwrap();
        assert!(q.offset() >= a.cuda_base, "3073 relays to CUDA");
    }

    #[test]
    fn double_free_detected() {
        let a = small();
        let p = a.malloc(&ctx(), 64).unwrap();
        a.free(&ctx(), p).unwrap();
        assert_eq!(a.free(&ctx(), p), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn invalid_pointers_rejected() {
        let a = small();
        assert_eq!(a.free(&ctx(), DevicePtr::NULL), Err(AllocError::InvalidPointer));
        // Unassigned slab.
        assert_eq!(a.free(&ctx(), DevicePtr::new(3 << 20)), Err(AllocError::InvalidPointer));
        // Misaligned within an assigned slab.
        let p = a.malloc(&ctx(), 64).unwrap();
        assert_eq!(a.free(&ctx(), DevicePtr::new(p.offset() + 8)), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn empty_slab_returns_to_free_pool_and_switches_class() {
        let a = Halloc::with_config(
            Arc::new(DeviceHeap::new(4 << 20)),
            Config { slab_bytes: 1 << 20, cuda_share_div: 4 },
        );
        // Only 3 small slabs: exercise reassignment.
        let p = a.malloc(&ctx(), 16).unwrap();
        let slab0 = p.offset() / (1 << 20);
        a.free(&ctx(), p).unwrap();
        // Fill all three slabs with a different class; the freed slab must
        // be reusable.
        let mut ptrs = Vec::new();
        loop {
            match a.malloc(&ctx(), 3072) {
                Ok(p) => ptrs.push(p),
                Err(AllocError::OutOfMemory(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
        let reused = ptrs.iter().any(|p| p.offset() / (1 << 20) == slab0);
        assert!(reused, "slab {slab0} was never reassigned");
    }

    #[test]
    fn head_replacement_under_sustained_load() {
        let a = small();
        // 1 MiB slab of 1024 B blocks = 1024 blocks; allocate 2500 so the
        // head must be replaced at least twice.
        let ptrs: Vec<DevicePtr> = (0..2500).map(|_| a.malloc(&ctx(), 1024).unwrap()).collect();
        let mut slabs: Vec<u64> = ptrs.iter().map(|p| p.offset() >> 20).collect();
        slabs.sort_unstable();
        slabs.dedup();
        assert!(slabs.len() >= 3, "expected ≥3 slabs, got {}", slabs.len());
        for p in ptrs {
            a.free(&ctx(), p).unwrap();
        }
    }

    #[test]
    fn warp_aggregated_malloc_mixed_classes() {
        let a = small();
        let w = WarpCtx { warp: 0, block: 0, sm: 0 };
        let sizes: Vec<u64> = (0..32).map(|i| if i % 2 == 0 { 64 } else { 256 }).collect();
        let mut out = [DevicePtr::NULL; 32];
        a.malloc_warp(&w, &sizes, &mut out).unwrap();
        let mut spans: Vec<(u64, u64)> = out
            .iter()
            .zip(&sizes)
            .map(|(p, &s)| (p.offset(), Halloc::class_index(s).map(|c| CLASSES[c]).unwrap()))
            .collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(pair[0].0 + pair[0].1 <= pair[1].0, "overlap {pair:?}");
        }
        for (&p, &s) in out.iter().zip(&sizes) {
            let _ = s;
            a.free(&ctx(), p).unwrap();
        }
    }

    #[test]
    fn oom_reported_and_recovers() {
        let a = Halloc::with_config(
            Arc::new(DeviceHeap::new(2 << 20)),
            Config { slab_bytes: 1 << 20, cuda_share_div: 2 },
        );
        let mut ptrs = Vec::new();
        loop {
            match a.malloc(&ctx(), 2048) {
                Ok(p) => ptrs.push(p),
                Err(AllocError::OutOfMemory(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(ptrs.len() >= 500, "{}", ptrs.len());
        for p in ptrs {
            a.free(&ctx(), p).unwrap();
        }
        assert!(a.malloc(&ctx(), 2048).is_ok());
    }

    #[test]
    fn concurrent_stress_no_overlap() {
        // More slabs than the tiny `small()` fixture: with only six slabs
        // and four churning classes, a class that transiently drains can
        // legitimately lose its slab to the free pool and OOM — real
        // deployments run hundreds of slabs per class.
        let a = Arc::new(Halloc::with_config(
            Arc::new(DeviceHeap::new(32 << 20)),
            Config { slab_bytes: 1 << 20, cuda_share_div: 4 },
        ));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut live = Vec::new();
                for i in 0..2000u32 {
                    let c = ThreadCtx::from_linear(t * 2000 + i, 256, 80);
                    // Four classes at most: each live class pins one of the
                    // six 1 MiB slabs.
                    let size = CLASSES[(i as usize % 4) * 2];
                    let p = a.malloc(&c, size).expect("plenty of space");
                    live.push((p, size, c));
                    if i % 2 == 1 {
                        let (p, _, c) = live.swap_remove(0);
                        a.free(&c, p).unwrap();
                    }
                }
                live.into_iter().map(|(p, s, _)| (p.offset(), s)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<(u64, u64)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap {:?} vs {:?}", w[0], w[1]);
        }
    }

    /// Every class at 1 and 2 MiB slabs: the per-class geometry and
    /// reciprocals give what the divisions they replace gave — block counts,
    /// word counts, every slab offset's block index, the hashed walk's
    /// start, steps and visiting order — and the fill predicates agree with
    /// `fill_pct`'s floored percent at every count.
    #[test]
    fn precomputed_classes_equal_the_divisions_they_replace() {
        let mut rng = gpumem_core::util::DeviceRng::new(5);
        let mut hashes = vec![0, 1, u64::from(u32::MAX), u64::MAX];
        hashes.extend((0..60).map(|_| rng.next_u64()));
        for slab_bytes in [1u64 << 20, 2 << 20] {
            let a = Halloc::with_config(
                Arc::new(DeviceHeap::new(4 * slab_bytes)),
                Config { slab_bytes, cuda_share_div: 4 },
            );
            for (i, &size) in CLASSES.iter().enumerate() {
                let Class { bitmap, size_div } = a.classes[i];
                let blocks = (slab_bytes / size) as u32;
                let words = u64::from(blocks.div_ceil(32));
                assert_eq!((bitmap.blocks, u64::from(bitmap.words)), (blocks, words), "{size}");
                for delta in 0..slab_bytes {
                    assert_eq!(size_div.div(delta), delta / size, "{delta} / {size}");
                }
                for (k, &prime) in slab::STEP_PRIMES.iter().enumerate() {
                    assert_eq!(u64::from(bitmap.steps[k]), prime % words);
                }
                let slab = Slab::new(blocks);
                assert!(slab.try_assign(i as u32, blocks));
                for &hash in &hashes {
                    let start = hash % words;
                    assert_eq!(bitmap.words_div.rem(hash), start);
                    // Leave one word open: the probes it takes to reach it
                    // are its position in the old walk's visiting order.
                    let open = rng.next_u64() % words;
                    let step = slab::STEP_PRIMES[(hash >> 32) as usize % 3];
                    let expected = (0..words)
                        .position(|j| (start + j * step) % words == open)
                        .map_or(words + open, |j| j as u64)
                        + 1;
                    for (w, word) in slab.bitmap.iter().enumerate() {
                        word.store(if w as u64 == open { 0 } else { u32::MAX }, Ordering::Relaxed);
                    }
                    let (mut probes, mut lost) = (0, 0);
                    let got = slab.claim_bit_with(&bitmap, hash, &mut probes, &mut lost);
                    assert_eq!(got, Some(open as u32 * 32), "{size} {hash:#x}");
                    assert_eq!(probes, expected, "{size} {hash:#x}");
                }
                for count in (0..=blocks).chain([slab::COUNT_LOCK]) {
                    slab.count.store(count, Ordering::Relaxed);
                    let pct = slab.fill_pct(blocks);
                    assert_eq!(slab.fill_below(blocks, BUSY_PCT), pct < BUSY_PCT, "{count}");
                    assert_eq!(
                        !slab.fill_below(blocks, HEAD_REPLACE_PCT),
                        pct * 10 > HEAD_REPLACE_PCT10,
                        "{count}"
                    );
                    assert_eq!(slab.fill_below(blocks, 100), pct < 100, "{count}");
                }
            }
        }
    }

    #[test]
    fn register_footprint_midfield() {
        let fp = small().register_footprint();
        assert!((30..=50).contains(&fp.malloc), "{fp}");
        assert!((15..=30).contains(&fp.free), "{fp}");
    }
}

//! # alloc-scatter — ScatterAlloc (Steinberger et al., 2012)
//!
//! Paper §2.3: ScatterAlloc "addresses the problem of collisions during
//! allocation by scattering the allocation requests across its memory
//! regions". The design, reproduced here:
//!
//! * Memory is split into fixed-size **pages** (4 KiB) grouped into
//!   **Super Blocks** organised in a list; one Super Block is *active* and
//!   allocation moves to the next once it passes a fill level.
//! * Every page serves chunks of one size, fixed at first use; free chunks
//!   are tracked by a 32-bit **page usage table** with a second hierarchy
//!   level on the page itself for up to 1024 chunks per page (`page`
//!   module).
//! * A **hash function** `p = (S_req · k_S + mp · k_mp) mod #pages`
//!   scatters requests across pages by request size and multiprocessor id;
//!   collisions fall back to linear probing, which still clusters chunks of
//!   the same size locally.
//! * Super Blocks are subdivided into **regions** whose fill counters let
//!   the search reject a full region quickly.
//! * Requests that do not fit on one page are served as **multiple
//!   consecutive pages from specially reserved Super Blocks**.
//! * The manageable memory can **grow at runtime** (`grow`), one of
//!   ScatterAlloc's distinguishing features in the survey's conclusion.

// Also enforced workspace-wide; restated here so the audit
// guarantee survives if this crate is ever built out of tree.
#![deny(unsafe_op_in_unsafe_fn)]

use gpumem_core::sync::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use gpumem_core::util::align_up;
use gpumem_core::{
    AllocError, Counter, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics,
    RegisterFootprint, ThreadCtx,
};

pub mod page;

use page::{
    free_on_page, try_alloc_on_page_with, try_reset_page, PageAlloc, PageLayout, PageMeta,
    PageStats, CS_FREE, CS_MULTI_BODY, CS_MULTI_HEAD, CS_SETUP,
};

/// Size-scatter hash constant (`k_S`).
const K_SIZE: u64 = 38_183;
/// Multiprocessor-scatter hash constant (`k_mp`).
const K_MP: u64 = 17_497;

/// Page size in bytes.
const PAGE_SIZE: u32 = 4096;
/// Pages per Super Block (2 MiB Super Blocks).
const PAGES_PER_SB: u32 = 512;
/// Pages per region (region fill counters).
const REGION_PAGES: u32 = 32;
/// The active Super Block advances once its claimed-page percentage passes
/// this threshold.
const SB_ADVANCE_FILL_PCT: u32 = 90;
/// Denominator of the Super Block share reserved for multi-page
/// allocations (¼: `total_sbs / 4`).
const MULTIPAGE_SHARE_DIV: u32 = 4;

/// Bytes per Super Block.
const SB_BYTES: u64 = PAGE_SIZE as u64 * PAGES_PER_SB as u64;

/// The ScatterAlloc memory manager.
pub struct ScatterAlloc {
    heap: Arc<DeviceHeap>,
    meta: PageMeta,
    /// Number of Super Blocks currently available for small allocations
    /// (grows at runtime up to `small_sb_capacity`).
    small_sbs: AtomicU32,
    small_sb_capacity: u32,
    /// First page index of the reserved multi-page area.
    multi_first_page: usize,
    /// Pages in the multi-page area.
    multi_pages: usize,
    active_sb: AtomicU32,
    /// Claimed pages per small Super Block (fill level).
    sb_pages: Box<[AtomicU32]>,
    /// Full pages per region of the small area.
    region_full: Box<[AtomicU32]>,
    /// Serialises the consecutive-page search of the multi-page area; holds
    /// the next-fit cursor (relative page index into the multi area).
    multi_lock: Mutex<usize>,
    metrics: Metrics,
}

/// Locals live in `malloc` (register proxy): the hashed page walk keeps the
/// request, hash state, page/region cursors and the bit-search registers.
#[repr(C)]
struct MallocFrame {
    size: u64,
    chunk_size: u32,
    chunks: u32,
    table_bytes: u32,
    sb: u32,
    hash: u64,
    probe: u32,
    region: u32,
    page: u64,
    page_base: u64,
    count: u32,
    usage_word: u32,
    group: u32,
    bit: u32,
    fill: u32,
    attempts: u32,
    result_ptr: u64,
    sb_base: u64,
    meta_cs: u32,
    made_full: u32,
    lane_scratch: u64,
    region_probe: u64,
    hash2: u64,
    spill0: u64,
    spill1: u64,
}

/// Locals live in `free`.
#[repr(C)]
struct FreeFrame {
    ptr: u64,
    page: u64,
    page_base: u64,
    chunk_size: u32,
    chunks: u32,
    table_bytes: u32,
    chunk_idx: u32,
    count: u32,
    usage_word: u32,
    region: u32,
    outcome: u32,
    spill: u64,
}

impl ScatterAlloc {
    /// Creates ScatterAlloc over all of `heap`, with the original's
    /// published configuration (the constants above).
    pub fn new(heap: Arc<DeviceHeap>) -> Self {
        let len = heap.len();
        assert_eq!(len % PAGE_SIZE as u64, 0, "heap must be page aligned");
        let total_sbs = (len / SB_BYTES) as u32;
        assert!(total_sbs >= 1, "heap smaller than one Super Block");
        let multi_sbs = if total_sbs >= 2 { (total_sbs / MULTIPAGE_SHARE_DIV).max(1) } else { 0 };
        let small_cap = total_sbs - multi_sbs;
        assert!(small_cap >= 1, "no Super Blocks left for small allocations");
        let total_pages = (len / PAGE_SIZE as u64) as usize;
        let small_pages = (small_cap * PAGES_PER_SB) as usize;
        let regions = small_pages.div_ceil(REGION_PAGES as usize);

        ScatterAlloc {
            heap,
            meta: PageMeta::new(total_pages),
            small_sbs: AtomicU32::new(small_cap),
            small_sb_capacity: small_cap,
            multi_first_page: small_pages,
            multi_pages: (multi_sbs * PAGES_PER_SB) as usize,
            active_sb: AtomicU32::new(0),
            sb_pages: (0..small_cap).map(|_| AtomicU32::new(0)).collect(),
            region_full: (0..regions).map(|_| AtomicU32::new(0)).collect(),
            multi_lock: Mutex::new(0),
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a contention-observability handle (builder style).
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Creates ScatterAlloc that initially manages only `initial_sbs` Super
    /// Blocks of the heap's small area; the rest becomes available through
    /// [`ScatterAlloc::grow`] (the paper's "one can also pass additional
    /// memory to ScatterAlloc, which will then be available at the next
    /// kernel launch").
    pub fn with_initial_superblocks(heap: Arc<DeviceHeap>, initial_sbs: u32) -> Self {
        let a = Self::new(heap);
        let initial = initial_sbs.clamp(1, a.small_sb_capacity);
        a.small_sbs.store(initial, Ordering::Release);
        a
    }

    /// Makes `additional` more bytes of the small area manageable, in
    /// whole Super Blocks; `OutOfMemory` once every Super Block is.
    pub fn grow(&self, additional: u64) -> Result<(), AllocError> {
        let add_sbs = additional.div_ceil(SB_BYTES) as u32;
        let mut cur = self.small_sbs.load(Ordering::Acquire);
        loop {
            if cur >= self.small_sb_capacity {
                return Err(AllocError::OutOfMemory(additional));
            }
            let new = (cur + add_sbs).min(self.small_sb_capacity);
            match self.small_sbs.compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Convenience constructor owning its heap.
    pub fn with_capacity(len: u64) -> Self {
        Self::new(Arc::new(DeviceHeap::new(len)))
    }

    /// Largest request served from a single page.
    pub fn max_single_page(&self) -> u64 {
        PAGE_SIZE as u64
    }

    /// Number of Super Blocks currently serving small allocations.
    pub fn active_superblocks(&self) -> u32 {
        self.small_sbs.load(Ordering::Acquire)
    }

    fn page_base(page: usize) -> u64 {
        page as u64 * PAGE_SIZE as u64
    }

    /// The hashed small-allocation path. Every page cursor is masked or
    /// stepped: the constants are powers of two and `sb` stays below `sbs`,
    /// so no step of the walk divides.
    fn malloc_small(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let layout = PageLayout::of(align_up(size.max(16), 16) as u32);
        let hash = size.wrapping_mul(K_SIZE).wrapping_add(ctx.sm as u64 * K_MP);
        let in_page_hash = ctx.scatter_hash();
        // Contention tally of this one operation: every page visited by the
        // probe walk is a probe step (so the counter is never zero for a
        // served request); page-level bit searches and lost CAS attempts
        // accumulate in `stats`.
        let mut stats = PageStats::default();

        let sbs = self.small_sbs.load(Ordering::Acquire);
        // `active_sb` only ever holds an index below some earlier
        // `small_sbs`, and `small_sbs` never shrinks.
        let mut sb = self.active_sb.load(Ordering::Acquire);
        debug_assert!(sb < sbs);
        let next_sb = |sb: u32| if sb + 1 == sbs { 0 } else { sb + 1 };

        // Proactive advance when the active Super Block is nearly full.
        if sbs > 1 {
            let fill = self.sb_pages[sb as usize].load(Ordering::Relaxed);
            if fill * 100 > PAGES_PER_SB * SB_ADVANCE_FILL_PCT {
                let next = next_sb(sb);
                let _ =
                    self.active_sb.compare_exchange(sb, next, Ordering::AcqRel, Ordering::Relaxed);
                sb = next;
            }
        }

        let p0 = hash as usize % PAGES_PER_SB as usize;
        for _attempt in 0..sbs {
            let sb_first_page = sb as usize * PAGES_PER_SB as usize;
            let mut probe = 0usize;
            while probe < PAGES_PER_SB as usize {
                let page = sb_first_page + (p0 + probe) % PAGES_PER_SB as usize;
                // Region rejection: skip a full region wholesale.
                let region = page / REGION_PAGES as usize;
                if self.region_full[region].load(Ordering::Relaxed) >= REGION_PAGES {
                    // Jump to the end of this region (bounded by the SB).
                    probe += REGION_PAGES as usize - page % REGION_PAGES as usize;
                    continue;
                }
                let claimed_before = self.meta.chunk_size[page].load(Ordering::Relaxed) == CS_FREE;
                stats.probe_steps += 1;
                match try_alloc_on_page_with(
                    &self.heap,
                    &self.meta,
                    page,
                    Self::page_base(page),
                    layout,
                    in_page_hash,
                    &mut stats,
                ) {
                    PageAlloc::Success { chunk_idx, made_full } => {
                        if claimed_before {
                            self.sb_pages[sb as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        if made_full {
                            self.region_full[region].fetch_add(1, Ordering::AcqRel);
                        }
                        let off = Self::page_base(page) + layout.chunk_offset(chunk_idx);
                        self.flush_stats(ctx.sm, stats);
                        return Ok(DevicePtr::new(off));
                    }
                    PageAlloc::Mismatch | PageAlloc::Full => probe += 1,
                }
            }
            // Super Block exhausted for this size: move to the next.
            let next = next_sb(sb);
            let _ = self.active_sb.compare_exchange(sb, next, Ordering::AcqRel, Ordering::Relaxed);
            sb = next;
        }
        self.flush_stats(ctx.sm, stats);
        Err(AllocError::OutOfMemory(size))
    }

    /// Publishes one operation's contention tally (probe walk + CAS losses,
    /// the latter also to the traced operation).
    fn flush_stats(&self, sm: u32, stats: PageStats) {
        self.metrics.add(sm, Counter::ProbeSteps, stats.probe_steps);
        self.metrics.add(sm, Counter::CasRetries, stats.cas_retries);
    }

    /// The reserved-area multi-page path for requests larger than a page.
    fn malloc_multi(&self, sm: u32, size: u64) -> Result<DevicePtr, AllocError> {
        let pages_needed = size.div_ceil(PAGE_SIZE as u64) as usize;
        if pages_needed > self.multi_pages {
            return Err(AllocError::UnsupportedSize(size));
        }
        let _cursor = self.multi_lock.lock().unwrap();
        // First-fit scan from the start of the reserved area. Deliberately
        // linear: the paper attributes ScatterAlloc's "steep drop in
        // performance at around 2048 B" to this search for contiguous free
        // pages, and the cost growing with the number of multi-page
        // allocations is part of the measured shape. Every page inspected
        // is one probe step.
        let mut run = 0usize;
        for i in 0..self.multi_pages {
            let page = self.multi_first_page + i;
            if self.meta.chunk_size[page].load(Ordering::Acquire) == CS_FREE {
                run += 1;
                if run == pages_needed {
                    let head = page + 1 - pages_needed;
                    self.meta.chunk_size[head].store(CS_MULTI_HEAD, Ordering::Release);
                    self.meta.count[head].store(pages_needed as u32, Ordering::Release);
                    for p in head + 1..=page {
                        self.meta.chunk_size[p].store(CS_MULTI_BODY, Ordering::Release);
                    }
                    self.metrics.add(sm, Counter::ProbeSteps, i as u64 + 1);
                    return Ok(DevicePtr::new(Self::page_base(head)));
                }
            } else {
                run = 0;
            }
        }
        self.metrics.add(sm, Counter::ProbeSteps, self.multi_pages as u64);
        Err(AllocError::OutOfMemory(size))
    }

    fn free_multi(&self, head: usize) -> Result<(), AllocError> {
        let _g = self.multi_lock.lock().unwrap();
        if self.meta.chunk_size[head].load(Ordering::Acquire) != CS_MULTI_HEAD {
            return Err(AllocError::InvalidPointer);
        }
        let n = self.meta.count[head].load(Ordering::Acquire) as usize;
        for p in (head..head + n).rev() {
            self.meta.chunk_size[p].store(CS_FREE, Ordering::Release);
        }
        self.meta.count[head].store(0, Ordering::Release);
        Ok(())
    }
}

impl DeviceAllocator for ScatterAlloc {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("ScatterAlloc").build()
    }

    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    #[inline]
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        if size == 0 {
            Err(AllocError::UnsupportedSize(0))
        } else if size <= self.max_single_page() {
            self.malloc_small(ctx, size)
        } else {
            self.malloc_multi(ctx.sm, size)
        }
    }

    /// Pointer-validated deallocation.
    #[inline]
    fn free(&self, _ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        if ptr.is_null() || ptr.offset() >= self.heap.len() {
            return Err(AllocError::InvalidPointer);
        }
        let page = (ptr.offset() / PAGE_SIZE as u64) as usize;
        let cs = self.meta.chunk_size[page].load(Ordering::Acquire);
        match cs {
            CS_FREE | CS_MULTI_BODY => Err(AllocError::InvalidPointer),
            CS_MULTI_HEAD => {
                if ptr.offset() != Self::page_base(page) {
                    return Err(AllocError::InvalidPointer);
                }
                self.free_multi(page)
            }
            cs if cs & CS_SETUP != 0 => Err(AllocError::InvalidPointer),
            cs => {
                let layout = PageLayout::of(cs);
                let base = Self::page_base(page) + layout.table_bytes as u64;
                if ptr.offset() < base {
                    return Err(AllocError::InvalidPointer);
                }
                let delta = ptr.offset() - base;
                let chunk_idx = layout.size_div.div(delta);
                if delta != chunk_idx * cs as u64 || chunk_idx >= layout.chunks as u64 {
                    return Err(AllocError::InvalidPointer);
                }
                let outcome = free_on_page(
                    &self.heap,
                    &self.meta,
                    page,
                    Self::page_base(page),
                    layout,
                    chunk_idx as u32,
                )
                .map_err(|()| AllocError::InvalidPointer)?;
                if outcome.was_full {
                    self.region_full[page / REGION_PAGES as usize].fetch_sub(1, Ordering::AcqRel);
                }
                if outcome.now_empty && try_reset_page(&self.meta, page) {
                    self.sb_pages[page / PAGES_PER_SB as usize].fetch_sub(1, Ordering::Relaxed);
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

    const HEAP: u64 = 8 << 20; // 8 MiB → 4 SBs: 3 small + 1 multi

    fn ctx() -> ThreadCtx {
        ThreadCtx::host()
    }

    fn alloc() -> ScatterAlloc {
        ScatterAlloc::with_capacity(HEAP)
    }

    #[test]
    fn construction_partitions_superblocks() {
        let a = alloc();
        assert_eq!(a.small_sb_capacity, 3);
        assert_eq!(a.multi_pages, 512);
        assert_eq!(a.multi_first_page, 3 * 512);
    }

    #[test]
    fn small_alloc_is_16_aligned_and_in_bounds() {
        let a = alloc();
        for size in [1u64, 4, 15, 16, 17, 100, 512, 1000, 4096] {
            let p = a.checked_malloc(&ctx(), size).unwrap();
            assert!(p.is_aligned(16), "size {size}: {p:?}");
        }
    }

    #[test]
    fn same_size_requests_cluster_on_a_page() {
        let a = alloc();
        let p1 = a.malloc(&ctx(), 64).unwrap();
        let p2 = a.malloc(&ctx(), 64).unwrap();
        // Same page (hash is a function of size and SM).
        assert_eq!(
            p1.offset() / 4096,
            p2.offset() / 4096,
            "consecutive same-size allocations should share a page"
        );
    }

    #[test]
    fn different_sms_scatter_to_different_pages() {
        let a = alloc();
        let c0 = ThreadCtx { thread_id: 0, lane: 0, warp: 0, block: 0, sm: 0 };
        let c9 = ThreadCtx { thread_id: 9, lane: 9, warp: 0, block: 0, sm: 9 };
        let p1 = a.malloc(&c0, 64).unwrap();
        let p2 = a.malloc(&c9, 64).unwrap();
        assert_ne!(p1.offset() / 4096, p2.offset() / 4096);
    }

    #[test]
    fn free_and_reuse_roundtrip() {
        let a = alloc();
        let p = a.malloc(&ctx(), 128).unwrap();
        a.heap().fill(p, 128, 0x5a);
        a.free(&ctx(), p).unwrap();
        let q = a.malloc(&ctx(), 128).unwrap();
        assert_eq!(p, q, "freed chunk is the hash-preferred slot again");
    }

    #[test]
    fn double_free_detected() {
        let a = alloc();
        let p = a.malloc(&ctx(), 64).unwrap();
        a.free(&ctx(), p).unwrap();
        assert_eq!(a.free(&ctx(), p), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn bogus_pointers_rejected() {
        let a = alloc();
        assert_eq!(a.free(&ctx(), DevicePtr::NULL), Err(AllocError::InvalidPointer));
        assert_eq!(a.free(&ctx(), DevicePtr::new(40)), Err(AllocError::InvalidPointer));
        assert_eq!(a.free(&ctx(), DevicePtr::new(HEAP + 4096)), Err(AllocError::InvalidPointer));
        // In-bounds but mid-chunk pointer on a live page.
        let p = a.malloc(&ctx(), 64).unwrap();
        assert_eq!(a.free(&ctx(), DevicePtr::new(p.offset() + 8)), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn multipage_allocations_round_to_pages() {
        let a = alloc();
        let p = a.malloc(&ctx(), 5000).unwrap();
        assert!(p.is_aligned(4096));
        assert!(p.offset() >= a.multi_first_page as u64 * 4096, "reserved area");
        a.heap().fill(p, 5000, 0x77);
        a.free(&ctx(), p).unwrap();
        let q = a.malloc(&ctx(), 8192).unwrap();
        assert_eq!(p, q, "first fit reuses the freed run");
        a.free(&ctx(), q).unwrap();
    }

    #[test]
    fn multipage_body_pointer_rejected() {
        let a = alloc();
        let p = a.malloc(&ctx(), 3 * 4096).unwrap();
        assert_eq!(
            a.free(&ctx(), DevicePtr::new(p.offset() + 4096)),
            Err(AllocError::InvalidPointer)
        );
        a.free(&ctx(), p).unwrap();
    }

    #[test]
    fn page_reset_allows_new_chunk_size() {
        let a = alloc();
        let p = a.malloc(&ctx(), 64).unwrap();
        let page = p.offset() / 4096;
        a.free(&ctx(), p).unwrap();
        // Page became empty; free resets it so a new chunk size can claim it.
        assert_eq!(a.meta.chunk_size[page as usize].load(Ordering::Relaxed), CS_FREE);
    }

    #[test]
    fn fills_whole_heap_with_small_chunks() {
        let a = ScatterAlloc::with_capacity(4 << 20); // 2 SBs: 1 small + 1 multi
        let mut n = 0u64;
        loop {
            match a.malloc(&ctx(), 256) {
                Ok(_) => n += 1,
                Err(AllocError::OutOfMemory(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
        // 1 small SB = 2 MiB; 256 B chunks with no table → 8192 chunks max.
        assert!(n >= 8000, "only {n} chunks of 256 B in 2 MiB");
    }

    #[test]
    fn oom_recovers_after_free() {
        let a = ScatterAlloc::with_capacity(4 << 20);
        let mut ptrs = Vec::new();
        while let Ok(p) = a.malloc(&ctx(), 1024) {
            ptrs.push(p);
        }
        for p in ptrs.drain(..) {
            a.free(&ctx(), p).unwrap();
        }
        assert!(a.malloc(&ctx(), 1024).is_ok());
    }

    #[test]
    fn grow_adds_superblocks() {
        let heap = Arc::new(DeviceHeap::new(HEAP));
        let a = ScatterAlloc::with_initial_superblocks(heap, 1);
        assert_eq!(a.active_superblocks(), 1);
        a.grow(2 << 20).unwrap();
        assert_eq!(a.active_superblocks(), 2);
        a.grow(2 << 20).unwrap();
        assert_eq!(a.active_superblocks(), 3);
        assert!(matches!(a.grow(2 << 20), Err(AllocError::OutOfMemory(_))));
    }

    #[test]
    fn mixed_sizes_do_not_overlap() {
        let a = alloc();
        let mut spans = Vec::new();
        for i in 0..500u64 {
            let size = 16 + (i % 255) * 16;
            let p = a.malloc(&ctx(), size).unwrap();
            spans.push((p.offset(), align_up(size, 16)));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn concurrent_stress_no_overlap() {
        let a = Arc::new(ScatterAlloc::with_capacity(16 << 20));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut live = Vec::new();
                let mut keep = Vec::new();
                for i in 0..3000u32 {
                    let c = ThreadCtx::from_linear(t * 3000 + i, 256, 80);
                    let size = 16 + ((i as u64 * 37 + t as u64) % 64) * 16;
                    let p = a.malloc(&c, size).expect("16 MiB is plenty");
                    a.heap().fill(p, size, t as u8 + 1);
                    live.push((p, size, c));
                    if i % 2 == 1 {
                        let (p, _, c) = live.swap_remove(0);
                        a.free(&c, p).unwrap();
                    }
                }
                keep.extend(live.into_iter().map(|(p, s, _)| (p.offset(), align_up(s, 16))));
                keep
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
    fn register_footprint_midfield() {
        let fp = alloc().register_footprint();
        assert!(
            (30..=50).contains(&fp.malloc),
            "ScatterAlloc malloc should be mid-field (~40): {fp}"
        );
        assert!((15..=30).contains(&fp.free), "{fp}");
    }
}

#[cfg(test)]
mod mp_timing {
    use super::*;

    #[test]
    #[ignore = "manual timing probe"]
    fn multipage_scan_cost_probe() {
        let a = ScatterAlloc::with_capacity(480 << 20);
        let ctx = ThreadCtx::host();
        let t = std::time::Instant::now();
        let mut ptrs = Vec::new();
        for _ in 0..10_000 {
            ptrs.push(a.malloc(&ctx, 8192).unwrap());
        }
        eprintln!("10k x 8192 sequential: {:?}", t.elapsed());
        eprintln!(
            "first={:?} last={:?} multi_first_byte={}",
            ptrs[0],
            ptrs[9999],
            a.multi_first_page as u64 * 4096
        );
    }
}

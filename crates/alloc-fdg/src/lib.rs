//! # alloc-fdg — FDGMalloc (Widmer et al., 2013)
//!
//! Paper §2.4: "FDGMalloc introduces a memory allocator with a focus on
//! explicit warp-level programming. […] They do not offer a general free
//! mechanic and only allow allocations at warp-level, reducing its
//! applicability as a general-purpose memory manager."
//!
//! The reproduced design (Figure 3):
//!
//! * Every warp owns a **WarpHeader** — allocated from the CUDA-Allocator —
//!   pointing at the warp's *foremost SuperBlock* and at a chain of
//!   **SuperBlock_Lists**. Lists are fixed size and replaced once full;
//!   each list tracks in `SB_Counter` how many SuperBlocks it holds.
//! * Lane requests are combined by a **leader thread** (voting) and served
//!   by bumping the current SuperBlock; when it cannot satisfy the
//!   remainder, the leader allocates a fresh SuperBlock from the
//!   CUDA-Allocator and registers it in the list.
//! * Requests **larger than the maximum SuperBlock size are forwarded to
//!   the CUDA-Allocator** (and still tracked, so tidy-up can release them).
//! * Deallocation is **collective only**: `tidyUp` (here
//!   [`DeviceAllocator::free_warp_all`]) walks the lists and releases every
//!   SuperBlock, every forwarded allocation, every list block and the
//!   WarpHeader itself. There is no way to free a single allocation —
//!   [`DeviceAllocator::free`] reports `Unsupported`, as the original
//!   would.
//!
//! The survey includes FDGMalloc in its framework but omits it from the
//! final evaluation because it "crashes in most test scenarios" (§3). The
//! port is stable; EXPERIMENTS.md notes the difference where relevant.

// Also enforced workspace-wide; restated here so the audit
// guarantee survives if this crate is ever built out of tree.
#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use alloc_cuda::CudaAllocModel;
use gpumem_core::{
    AllocError, Counter, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics,
    RegisterFootprint, ThreadCtx, WarpCtx,
};

/// SuperBlock payload size — the largest request served without forwarding.
pub const SUPERBLOCK_BYTES: u64 = 8192;
/// SuperBlock pointers per SuperBlock_List record.
pub const LIST_CAPACITY: usize = 32;
/// In-heap bytes of one list record: 16-byte header + pointer slots.
pub const LIST_RECORD_BYTES: u64 = 16 + (LIST_CAPACITY as u64) * 8;
/// In-heap bytes of a WarpHeader.
pub const WARP_HEADER_BYTES: u64 = 32;
/// Shards of the warp-state table.
const SHARDS: usize = 64;

/// Tag bit marking a list entry as a forwarded (CUDA-Allocator) allocation
/// rather than a SuperBlock.
const FORWARDED_BIT: u64 = 1 << 63;

/// Host-side view of one warp's allocation state. Only the warp that owns
/// it ever touches it (warps execute as a unit), so it lives behind the
/// shard lock without contention.
struct WarpState {
    /// In-heap WarpHeader allocation (kept so tidy-up releases it).
    header: DevicePtr,
    /// Current bump position within the foremost SuperBlock.
    cursor: u64,
    /// End of the foremost SuperBlock (0 = none yet).
    sb_end: u64,
    /// Foremost SuperBlock payload offset.
    current_sb: DevicePtr,
    /// In-heap list records, newest last; entries are written into the heap.
    lists: Vec<DevicePtr>,
    /// Entries used in the newest list record.
    newest_len: usize,
    /// Blocks served to the warp's callers, all of which tidy-up releases.
    held: u64,
}

/// Locals live in `malloc` (register proxy).
#[repr(C)]
struct MallocFrame {
    size: u64,
    rounded: u64,
    cursor: u64,
    sb_end: u64,
    leader_mask: u32,
    list_len: u32,
    header: u64,
    result: u64,
}

/// The FDGMalloc memory manager.
pub struct FdgMalloc {
    heap: Arc<DeviceHeap>,
    cuda: CudaAllocModel,
    shards: Vec<Mutex<HashMap<u32, WarpState>>>,
    metrics: Metrics,
}

impl FdgMalloc {
    /// Creates FDGMalloc over all of `heap` (the embedded CUDA-Allocator
    /// model manages the same region, as in the original).
    pub fn new(heap: Arc<DeviceHeap>) -> Self {
        let cuda = CudaAllocModel::new(Arc::clone(&heap));
        FdgMalloc {
            heap,
            cuda,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a contention-observability handle, shared with the embedded
    /// CUDA-Allocator so SuperBlock pulls and forwarded requests add their
    /// contention counters to this manager's.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.cuda.set_metrics(metrics.clone());
        self.metrics = metrics;
        self
    }

    /// Locks the warp's shard, counting a `queue_spins` event when the
    /// fast-path `try_lock` loses to another warp hashed onto the shard.
    fn lock_shard(&self, sm: u32, warp: u32) -> std::sync::MutexGuard<'_, HashMap<u32, WarpState>> {
        match self.shard(warp).try_lock() {
            Ok(g) => g,
            Err(_) => {
                self.metrics.tick(sm, Counter::QueueSpins);
                self.shard(warp).lock().unwrap()
            }
        }
    }

    /// Convenience constructor owning its heap.
    pub fn with_capacity(len: u64) -> Self {
        Self::new(Arc::new(DeviceHeap::new(len)))
    }

    fn shard(&self, warp: u32) -> &Mutex<HashMap<u32, WarpState>> {
        &self.shards[(warp as usize) % SHARDS]
    }

    /// Ensures the warp has a header, creating it on first contact
    /// ("The warp header is allocated from the CUDA-Allocator").
    fn init_state(&self, ctx: &ThreadCtx) -> Result<WarpState, AllocError> {
        let header = self.cuda.malloc(ctx, WARP_HEADER_BYTES)?;
        Ok(WarpState {
            header,
            cursor: 0,
            sb_end: 0,
            current_sb: DevicePtr::NULL,
            lists: Vec::new(),
            newest_len: 0,
            held: 0,
        })
    }

    /// Registers an allocation (SuperBlock or forwarded) in the warp's
    /// in-heap list chain.
    fn register(&self, ctx: &ThreadCtx, st: &mut WarpState, entry: u64) -> Result<(), AllocError> {
        if st.lists.is_empty() || st.newest_len == LIST_CAPACITY {
            // "These lists are of fixed size and are replaced once full."
            let list = self.cuda.malloc(ctx, LIST_RECORD_BYTES)?;
            self.heap.store_u32(list.offset(), 0x4644_4701); // list magic
            self.heap.store_u32(list.offset() + 4, 0); // SB_Counter, inside the record just allocated
            st.lists.push(list);
            st.newest_len = 0;
        }
        let list = *st.lists.last().expect("just ensured");
        // Inside the list record: newest_len < LIST_CAPACITY (re-established
        // above), and 16 + LIST_CAPACITY * 8 == LIST_RECORD_BYTES.
        let slot = list.offset() + 16 + st.newest_len as u64 * 8;
        self.heap.store_u64(slot, entry);
        st.newest_len += 1;
        // SB_Counter, at +4 in the same record.
        self.heap.store_u32(list.offset() + 4, st.newest_len as u32);
        Ok(())
    }

    /// Serves one rounded request from the warp's SuperBlock, pulling a new
    /// SuperBlock from the CUDA-Allocator when the current one is spent.
    fn bump(
        &self,
        ctx: &ThreadCtx,
        st: &mut WarpState,
        rounded: u64,
    ) -> Result<DevicePtr, AllocError> {
        if st.cursor + rounded > st.sb_end {
            let sb = self.cuda.malloc(ctx, SUPERBLOCK_BYTES)?;
            self.register(ctx, st, sb.offset())?;
            st.current_sb = sb;
            st.cursor = sb.offset();
            // sb was allocated with exactly SUPERBLOCK_BYTES: this is its in-heap end.
            st.sb_end = sb.offset() + SUPERBLOCK_BYTES;
        }
        let ptr = DevicePtr::new(st.cursor);
        st.cursor += rounded;
        Ok(ptr)
    }

    /// Takes `lanes` blocks of a refused warp call off what the warp's
    /// callers hold: tidy-up still releases them, but nobody was given them.
    #[cold]
    #[inline(never)]
    fn disown(&self, warp: &WarpCtx, lanes: u64) {
        if let Some(st) = self.lock_shard(warp.sm, warp.warp).get_mut(&warp.warp) {
            st.held -= lanes;
        }
    }

    /// Number of warps with live state (diagnostics).
    pub fn live_warps(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }
}

impl DeviceAllocator for FdgMalloc {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("FDGMalloc").supports_free(false).warp_level_only(true).build()
    }

    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    #[inline]
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        if size == 0 {
            return Err(AllocError::UnsupportedSize(0));
        }
        // Checked rounding: `align_up` wraps a near-`u64::MAX` request to a
        // tiny one, which the bump would then grant.
        let Some(rounded) = size.checked_next_multiple_of(16) else {
            return Err(AllocError::UnsupportedSize(size));
        };
        let mut shard = self.lock_shard(ctx.sm, ctx.warp);
        if let std::collections::hash_map::Entry::Vacant(e) = shard.entry(ctx.warp) {
            let st = self.init_state(ctx)?;
            e.insert(st);
        }
        let st = shard.get_mut(&ctx.warp).expect("just inserted");
        let ptr = if rounded > SUPERBLOCK_BYTES {
            // "If the total requested size per warp is larger than the
            // maximum SuperBlock size, then the request is forwarded to the
            // CUDA-Allocator."
            self.metrics.tick(ctx.sm, Counter::OomFallbacks);
            let ptr = self.cuda.malloc(ctx, rounded)?;
            self.register(ctx, st, ptr.offset() | FORWARDED_BIT)?;
            ptr
        } else {
            self.bump(ctx, st, rounded)?
        };
        st.held += 1;
        Ok(ptr)
    }

    #[inline]
    fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
        Err(AllocError::Unsupported(
            "FDGMalloc has no per-allocation free; use free_warp_all (tidyUp)",
        ))
    }

    /// The leader serves all lane requests back-to-back — FDGMalloc's
    /// "voting is used to determine a leader thread, which does all the
    /// work to reduce the number of simultaneous memory requests".
    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        let leader = warp.leader();
        for lane in 0..sizes.len() {
            match self.malloc(&leader, sizes[lane]) {
                Ok(ptr) => out[lane] = ptr,
                Err(e) => {
                    // The lanes already granted stay in this warp's
                    // SuperBlock list and are reclaimed by the next
                    // `free_warp_all` (tidyUp) — but the caller must not
                    // see a half-filled result, nor hold them.
                    for slot in out.iter_mut() {
                        *slot = DevicePtr::NULL;
                    }
                    self.disown(warp, lane as u64);
                    return Err(e);
                }
            }
        }
        // All lanes were combined into back-to-back leader requests.
        self.metrics.add(warp.sm, Counter::WarpCoalesced, sizes.len() as u64);
        Ok(())
    }

    /// `tidyUp`: releases every SuperBlock, forwarded allocation, list
    /// record and the WarpHeader of this warp, and with them every block
    /// the warp's callers hold; returns how many blocks that is.
    fn free_warp_all(&self, warp: &WarpCtx) -> Result<u64, AllocError> {
        let mut shard = self.lock_shard(warp.sm, warp.warp);
        let st = shard.remove(&warp.warp).ok_or(AllocError::InvalidPointer)?;
        let ctx = warp.leader();
        let mut hops = 0u64;
        for (li, list) in st.lists.iter().enumerate() {
            let entries = if li + 1 == st.lists.len() { st.newest_len } else { LIST_CAPACITY };
            hops += 1;
            for e in 0..entries {
                hops += 1;
                // e < entries <= LIST_CAPACITY keeps the slot inside the record.
                let raw = self.heap.load_u64(list.offset() + 16 + e as u64 * 8);
                let ptr = DevicePtr::new(raw & !FORWARDED_BIT);
                self.cuda.free(&ctx, ptr)?;
            }
            self.cuda.free(&ctx, *list)?;
        }
        self.cuda.free(&ctx, st.header)?;
        // tidyUp walks the whole SuperBlock_List chain.
        self.metrics.add(warp.sm, Counter::ListHops, hops);
        Ok(st.held)
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
    use gpumem_core::util::align_up;

    const HEAP: u64 = 4 << 20;

    fn alloc() -> FdgMalloc {
        FdgMalloc::with_capacity(HEAP)
    }

    fn warp0() -> WarpCtx {
        WarpCtx { warp: 0, block: 0, sm: 0 }
    }

    #[test]
    fn warp_allocations_bump_within_superblock() {
        let a = alloc();
        let c = ThreadCtx::host();
        let p1 = a.malloc(&c, 64).unwrap();
        let p2 = a.malloc(&c, 64).unwrap();
        assert_eq!(p2.offset() - p1.offset(), 64, "bump allocation is contiguous");
        assert_eq!(a.live_warps(), 1);
    }

    #[test]
    fn individual_free_unsupported() {
        let a = alloc();
        let c = ThreadCtx::host();
        let p = a.malloc(&c, 64).unwrap();
        assert!(matches!(a.free(&c, p), Err(AllocError::Unsupported(_))));
    }

    #[test]
    fn tidy_up_releases_everything() {
        let a = alloc();
        let c = ThreadCtx::host();
        for _ in 0..100 {
            a.malloc(&c, 256).unwrap();
        }
        assert_eq!(a.live_warps(), 1);
        assert_eq!(a.free_warp_all(&warp0()), Ok(100), "every block the warp held");
        assert_eq!(a.live_warps(), 0);
        // All memory is back: a big forwarded allocation succeeds.
        let p = a.malloc(&c, 1 << 20).unwrap();
        assert!(!p.is_null());
    }

    /// A refused warp's granted lanes are garbage until tidy-up, not
    /// blocks a caller holds: tidy-up reports only the served warp's 32.
    #[test]
    fn tidy_up_reports_the_blocks_callers_hold() {
        let a = FdgMalloc::with_capacity(64 << 10);
        let mut out = [DevicePtr::NULL; 32];
        a.malloc_warp(&warp0(), &[16; 32], &mut out).unwrap();
        let cursor = |a: &FdgMalloc| a.shard(0).lock().unwrap()[&0].cursor;
        let before = cursor(&a);
        // 4 KiB lanes: the 64 KiB heap runs out partway through the warp.
        assert!(a.malloc_warp(&warp0(), &[4096; 32], &mut out).is_err());
        assert_ne!(cursor(&a), before, "lanes were granted before the refusal");
        assert_eq!(a.free_warp_all(&warp0()), Ok(32));
    }

    #[test]
    fn tidy_up_without_state_is_an_error() {
        let a = alloc();
        assert_eq!(a.free_warp_all(&warp0()), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn oversize_requests_forward_to_cuda_allocator() {
        let a = alloc().with_metrics(Metrics::enabled(1));
        let c = ThreadCtx::host();
        a.malloc(&c, SUPERBLOCK_BYTES).unwrap();
        assert_eq!(a.metrics().snapshot().oom_fallbacks(), 0, "a SuperBlock's worth is native");
        let p = a.malloc(&c, SUPERBLOCK_BYTES * 4).unwrap();
        assert_eq!(a.metrics().snapshot().oom_fallbacks(), 1, "one more byte is forwarded");
        a.heap().fill(p, SUPERBLOCK_BYTES * 4, 0x42);
        // Forwarded allocations are still tidy-up-tracked.
        a.free_warp_all(&warp0()).unwrap();
    }

    #[test]
    fn list_overflow_allocates_new_list_record() {
        let a = alloc();
        let c = ThreadCtx::host();
        // Each 8 KiB superblock registers one list entry; exceed 32 entries.
        for _ in 0..(LIST_CAPACITY + 4) {
            a.malloc(&c, SUPERBLOCK_BYTES).unwrap(); // fills one SB each
        }
        let shard = a.shard(0).lock().unwrap();
        let st = shard.get(&0).unwrap();
        assert_eq!(st.lists.len(), 2, "second SuperBlock_List must exist");
        drop(shard);
        a.free_warp_all(&warp0()).unwrap();
    }

    #[test]
    fn warps_are_isolated() {
        let a = alloc();
        let c0 = ThreadCtx::from_linear(0, 256, 80);
        let c1 = ThreadCtx::from_linear(32, 256, 80); // warp 1
        let p0 = a.malloc(&c0, 64).unwrap();
        let p1 = a.malloc(&c1, 64).unwrap();
        assert_eq!(a.live_warps(), 2);
        // Different superblocks entirely.
        assert!(p0.offset().abs_diff(p1.offset()) >= SUPERBLOCK_BYTES);
        a.free_warp_all(&WarpCtx { warp: 1, block: 0, sm: 0 }).unwrap();
        assert_eq!(a.live_warps(), 1);
        // Warp 0's memory is untouched; p0 still valid to write.
        a.heap().fill(p0, 64, 0x1);
    }

    #[test]
    fn malloc_warp_serves_all_lanes_contiguously() {
        let a = alloc();
        let mut out = [DevicePtr::NULL; 32];
        a.malloc_warp(&warp0(), &[48; 32], &mut out).unwrap();
        for pair in out.windows(2) {
            assert_eq!(pair[1].offset() - pair[0].offset(), 48);
        }
    }

    #[test]
    fn allocations_do_not_overlap_across_superblocks() {
        let a = alloc();
        let c = ThreadCtx::host();
        let mut spans = Vec::new();
        for i in 0..500u64 {
            let size = 16 + (i % 100) * 16;
            let p = a.malloc(&c, size).unwrap();
            spans.push((p.offset(), align_up(size, 16)));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn info_reflects_warp_level_design() {
        let a = alloc();
        let info = a.info();
        assert!(info.warp_level_only);
        assert!(!info.supports_free);
    }
}

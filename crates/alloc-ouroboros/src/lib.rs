//! # alloc-ouroboros — Ouroboros (Winter et al., 2020)
//!
//! Paper §2.10: "Ouroboros extends the queueing concepts and memory manager
//! found in faimGraph and instantiates one queue per supported page size.
//! The manageable memory area is split into equally-sized chunks (per
//! default this is 8 KiB). Each queue can either manage pages directly or
//! chunks with free pages."
//!
//! Six variants = two managers × three queue designs:
//!
//! | | Standard | Virtualized array | Virtualized linked |
//! |---|---|---|---|
//! | **page-based**  | `Ouro-S-P` | `Ouro-VA-P` | `Ouro-VL-P` |
//! | **chunk-based** | `Ouro-S-C` | `Ouro-VA-C` | `Ouro-VL-C` |
//!
//! * The **page-based** manager queues page indices directly: "fast and
//!   efficient, but lacks the reusability of chunks once they have been
//!   assigned to a page size."
//! * The **chunk-based** manager queues chunk indices with free pages: a
//!   "two-stage access design (allocate from chunk in queue)" that "trades
//!   allocation speed for memory efficiency but can efficiently reuse empty
//!   chunks for all purposes." A `malloc` peeks the chunk at the front of
//!   its size's queue, reserves a page on the chunk's free count, then
//!   claims a page bit. The chunk stays queued until a `malloc` takes its
//!   last page or finds the entry stale; a `free` that gives a full chunk a
//!   page back enqueues it again. So a page costs one queue read, and a
//!   chunk one enqueue and one removal each time it fills.
//! * Queue storage is either **static** (`S`, with the capacity burden the
//!   paper describes) or **virtualized** onto dynamic chunks (`VA`, `VL`)
//!   — see [`queues`].
//!
//! Page sizes are powers of two from 16 B to 8 KiB; "larger allocations are
//! relayed to the CUDA-Allocator", which manages a reserved section at the
//! top of the heap. ("Multiple instances of Ouroboros (with different page
//! size ranges) can be instantiated simultaneously to allow for larger
//! allocation sizes" — see the `ouroboros_tour` example in the facade
//! crate.)

// Also enforced workspace-wide; restated here so the audit
// guarantee survives if this crate is ever built out of tree.
#![deny(unsafe_op_in_unsafe_fn)]

use gpumem_core::sync::Ordering;
use std::sync::Arc;

use alloc_cuda::CudaAllocModel;
use gpumem_core::util::next_pow2;
use gpumem_core::{
    AllocError, Counter, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics,
    RegisterFootprint, ThreadCtx,
};

pub mod pool;
pub mod queues;

use pool::{ChunkPool, CHUNK_BYTES, COUNT_LOCK};
use queues::{IndexQueue, StandardQueue, VirtArrayQueue, VirtLinkedQueue};

/// Supported page sizes: 16 B … 8192 B (powers of two).
pub const NUM_CLASSES: usize = 10;
/// Smallest page size.
pub const MIN_PAGE: u64 = 16;
/// Largest page size (== chunk size).
pub const MAX_PAGE: u64 = CHUNK_BYTES;
/// Page-code stride: page codes are `chunk * 512 + slot`.
const CODE_STRIDE: u32 = 512;

/// The Ouroboros manager, generic over queue design and manager mode.
pub struct Ouroboros<Q: IndexQueue, const CHUNKED: bool> {
    heap: Arc<DeviceHeap>,
    pool: ChunkPool,
    queues: Box<[Q]>,
    cuda_base: u64,
    cuda: CudaAllocModel,
    metrics: Metrics,
}

/// `Ouro-S-P`: standard queues, page-based.
pub type OuroSP = Ouroboros<StandardQueue, false>;
/// `Ouro-S-C`: standard queues, chunk-based.
pub type OuroSC = Ouroboros<StandardQueue, true>;
/// `Ouro-VA-P`: virtualized array-hierarchy queues, page-based.
pub type OuroVAP = Ouroboros<VirtArrayQueue, false>;
/// `Ouro-VA-C`: virtualized array-hierarchy queues, chunk-based.
pub type OuroVAC = Ouroboros<VirtArrayQueue, true>;
/// `Ouro-VL-P`: virtualized linked-chunk queues, page-based.
pub type OuroVLP = Ouroboros<VirtLinkedQueue, false>;
/// `Ouro-VL-C`: virtualized linked-chunk queues, chunk-based.
pub type OuroVLC = Ouroboros<VirtLinkedQueue, true>;

/// Locals live in the page-based `malloc` (register proxy ≈ 40 registers).
#[repr(C)]
struct MallocFramePaged {
    size: u64,
    class_idx: u32,
    page_size: u32,
    code: u32,
    chunk: u32,
    slot: u32,
    pages: u32,
    queue_front: u64,
    queue_back: u64,
    storage_chunk: u64,
    entry_off: u64,
    retries: u32,
    enq_state: u32,
    base: u64,
    result: u64,
    spill: [u64; 9],
}

/// Locals live in the chunk-based `malloc` (register proxy ≈ 50 registers —
/// the two-stage access keeps both queue and bitmap state live).
#[repr(C)]
struct MallocFrameChunked {
    size: u64,
    class_idx: u32,
    page_size: u32,
    chunk: u32,
    slot: u32,
    pages: u32,
    free_count: u32,
    bitmap_word: u32,
    bitmap_idx: u32,
    queue_front: u64,
    queue_back: u64,
    storage_chunk: u64,
    entry_off: u64,
    retries: u32,
    requeue: u32,
    enq_state: u32,
    reserve_cas: u64,
    base: u64,
    result: u64,
    valid_mask: u32,
    stale: u32,
    spill: [u64; 11],
}

/// Locals live in `free` (register proxy ≈ 22 registers).
#[repr(C)]
struct FreeFrame {
    ptr: u64,
    chunk: u32,
    class_idx: u32,
    slot: u32,
    page_size: u32,
    prev_free: u32,
    code: u32,
    queue_back: u64,
    entry_off: u64,
    state: u64,
    spill: [u64; 1],
}

impl<Q: IndexQueue, const CHUNKED: bool> Ouroboros<Q, CHUNKED> {
    /// Creates the manager over all of `heap`. A small slice at the top
    /// (1/32, at least one chunk) backs the CUDA-Allocator model that
    /// relayed oversize requests go to — in the original that relay hits
    /// the CUDA runtime's own heap, so the manageable area keeps nearly
    /// the whole region (the paper's Fig. 11b shows ≥ 98 % utilization).
    pub fn new(heap: Arc<DeviceHeap>) -> Self {
        let len = heap.len();
        assert!(len >= 4 * CHUNK_BYTES, "heap too small for Ouroboros");
        let cuda_chunks = ((len / 32) / CHUNK_BYTES).max(1);
        let chunks = (len / CHUNK_BYTES - cuda_chunks) as u32;
        let cuda_base = chunks as u64 * CHUNK_BYTES;
        let capacity_hint = (cuda_base / MIN_PAGE).max(1024);
        let cuda = CudaAllocModel::with_region(Arc::clone(&heap), cuda_base, len - cuda_base);
        Ouroboros {
            heap,
            pool: ChunkPool::new(chunks),
            queues: (0..NUM_CLASSES).map(|_| Q::create(capacity_hint)).collect(),
            cuda_base,
            cuda,
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a contention-observability handle, shared with the embedded
    /// CUDA-Allocator section so relayed oversize requests add their
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

    /// Creates the manager with only `initial_chunks` of the chunk area
    /// manageable; the rest becomes available through
    /// [`Ouroboros::grow`] ("multiple instances … can be
    /// instantiated" — growth covers the simpler same-range case).
    pub fn with_initial_chunks(heap: Arc<DeviceHeap>, initial_chunks: u32) -> Self {
        let a = Self::new(heap);
        let total = a.pool.chunks();
        let pool = ChunkPool::with_initial(total, initial_chunks);
        Ouroboros { pool, ..a }
    }

    /// Makes `additional` more bytes of the chunk area manageable, in
    /// whole chunks; `OutOfMemory` once every chunk is.
    pub fn grow(&self, additional: u64) -> Result<(), AllocError> {
        let add = additional.div_ceil(CHUNK_BYTES) as u32;
        if self.pool.grow(add) == 0 {
            return Err(AllocError::OutOfMemory(additional));
        }
        Ok(())
    }

    fn class_index(size: u64) -> usize {
        let ps = next_pow2(size.max(MIN_PAGE));
        (ps.trailing_zeros() - MIN_PAGE.trailing_zeros()) as usize
    }

    fn page_size(class_idx: usize) -> u64 {
        MIN_PAGE << class_idx
    }

    fn pages_per_chunk(class_idx: usize) -> u32 {
        (CHUNK_BYTES / Self::page_size(class_idx)) as u32
    }

    fn page_ptr(&self, chunk: u32, class_idx: usize, slot: u32) -> DevicePtr {
        DevicePtr::new(self.pool.chunk_base(chunk) + slot as u64 * Self::page_size(class_idx))
    }

    /// Carves a fresh chunk for `class_idx`; returns the pointer to its
    /// first page after queueing the rest (page-based) or the chunk itself
    /// (chunk-based).
    fn carve(&self, sm: u32, class_idx: usize) -> Result<DevicePtr, AllocError> {
        let pages = Self::pages_per_chunk(class_idx);
        let mut spins = 0u64;
        let chunk = match self.pool.acquire(class_idx as u32) {
            Some(c) => c,
            None => {
                return Err(AllocError::OutOfMemory(Self::page_size(class_idx)));
            }
        };
        let meta = self.pool.meta(chunk);
        meta.reset_bits();
        let took = meta.set_used(0);
        debug_assert!(took);
        if CHUNKED {
            meta.free_pages.store(pages - 1, Ordering::Release);
            if pages > 1 {
                // Ignore Full/OutOfChunks: the chunk resurfaces through the
                // free path's has-free transition.
                let _ =
                    self.queues[class_idx].enqueue_with(&self.pool, &self.heap, chunk, &mut spins);
            }
        } else {
            for slot in 1..pages {
                let code = chunk * CODE_STRIDE + slot;
                if self.queues[class_idx]
                    .enqueue_with(&self.pool, &self.heap, code, &mut spins)
                    .is_err()
                {
                    // Static-queue capacity drawback (§2.10): pages beyond
                    // the queue's capacity are unreachable until freed.
                    break;
                }
            }
        }
        self.metrics.add(sm, Counter::QueueSpins, spins);
        Ok(self.page_ptr(chunk, class_idx, 0))
    }

    fn malloc_paged(&self, sm: u32, class_idx: usize) -> Result<DevicePtr, AllocError> {
        let limit = self.pool.chunks() as u64 * Self::pages_per_chunk(class_idx) as u64 + 64;
        let (mut spins, mut retries) = (0u64, 0u64);
        let flush = |spins: u64, retries: u64| {
            self.metrics.add(sm, Counter::QueueSpins, spins);
            self.metrics.add(sm, Counter::CasRetries, retries);
        };
        for _ in 0..limit {
            match self.queues[class_idx].dequeue_with(&self.pool, &self.heap, &mut spins) {
                Some(code) => {
                    let chunk = code / CODE_STRIDE;
                    let slot = code % CODE_STRIDE;
                    let meta = self.pool.meta(chunk);
                    if meta.class.load(Ordering::Acquire) != class_idx as u32
                        || !meta.set_used(slot)
                    {
                        retries += 1;
                        continue; // stale/duplicate entry
                    }
                    flush(spins, retries);
                    return Ok(self.page_ptr(chunk, class_idx, slot));
                }
                None => {
                    // An unsuccessful dequeue is a queue-retry iteration:
                    // the device code re-spins the queue after expansion.
                    spins += 1;
                    flush(spins, retries);
                    return self.carve(sm, class_idx);
                }
            }
        }
        flush(spins, retries);
        Err(AllocError::Contention("Ouroboros page queue"))
    }

    fn malloc_chunked(&self, sm: u32, class_idx: usize) -> Result<DevicePtr, AllocError> {
        let pages = Self::pages_per_chunk(class_idx);
        let limit = self.pool.chunks() as u64 * 2 + 64;
        let queue = &self.queues[class_idx];
        let (mut spins, mut retries) = (0u64, 0u64);
        let flush = |spins: u64, retries: u64| {
            self.metrics.add(sm, Counter::QueueSpins, spins);
            self.metrics.add(sm, Counter::CasRetries, retries);
        };
        for _ in 0..limit {
            let (ticket, chunk) = match queue.peek_with(&self.pool, &self.heap, &mut spins) {
                Some(front) => front,
                None => {
                    // As in the paged path: an empty queue re-spins after
                    // the expansion.
                    spins += 1;
                    flush(spins, retries);
                    return self.carve(sm, class_idx);
                }
            };
            // Stage 1: reserve a page on the chunk, or find the entry stale.
            let meta = self.pool.meta(chunk);
            let reserved = 'reserve: {
                if meta.class.load(Ordering::Acquire) != class_idx as u32 {
                    break 'reserve None; // reclaimed & reused elsewhere
                }
                let mut c = meta.free_pages.load(Ordering::Acquire);
                loop {
                    if c == 0 || c >= COUNT_LOCK {
                        break 'reserve None;
                    }
                    match meta.free_pages.compare_exchange_weak(
                        c,
                        c - 1,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => break,
                        Err(actual) => {
                            retries += 1;
                            c = actual;
                        }
                    }
                }
                // Post-reservation validation: the chunk may have been
                // reclaimed and reassigned between the class check and the
                // reservation; holding a reservation now pins it (the
                // reclaim CAS requires a full free count).
                if meta.class.load(Ordering::Acquire) != class_idx as u32 {
                    meta.free_pages.fetch_add(1, Ordering::AcqRel);
                    break 'reserve None;
                }
                Some(c)
            };
            let Some(c) = reserved else {
                retries += 1;
                queue.pop_front(&self.pool, &self.heap, ticket, &mut spins);
                continue;
            };
            // Stage 2: claim a concrete page bit.
            let mut slot = None;
            'words: for w in 0..pages.div_ceil(32) {
                let word = &meta.bits[w as usize];
                loop {
                    let v = word.load(Ordering::Acquire);
                    let tail = pages - w * 32;
                    let valid = if tail >= 32 { u32::MAX } else { (1u32 << tail) - 1 };
                    let free = !v & valid;
                    if free == 0 {
                        break;
                    }
                    let bit = free.trailing_zeros();
                    if word.fetch_or(1 << bit, Ordering::AcqRel) & (1 << bit) == 0 {
                        slot = Some(w * 32 + bit);
                        break 'words;
                    }
                    retries += 1;
                }
            }
            let slot = slot.expect("reservation guarantees a free page bit");
            // Allocate from the chunk in the queue: it stays at the front
            // while it has free pages and leaves with its last one. The free
            // that gives it a page back enqueues it again.
            if c == 1 {
                queue.pop_front(&self.pool, &self.heap, ticket, &mut spins);
            }
            flush(spins, retries);
            return Ok(self.page_ptr(chunk, class_idx, slot));
        }
        flush(spins, retries);
        Err(AllocError::Contention("Ouroboros chunk queue"))
    }

    /// Chunks the bump frontier has handed out (diagnostics).
    pub fn allocated_chunks(&self) -> u32 {
        self.pool.allocated_chunks()
    }

    fn variant() -> String {
        format!("{}-{}", Q::tag(), if CHUNKED { "C" } else { "P" })
    }
}

impl<Q: IndexQueue, const CHUNKED: bool> DeviceAllocator for Ouroboros<Q, CHUNKED> {
    fn info(&self) -> ManagerInfo {
        // Leak the variant string once per instantiation: ManagerInfo wants
        // &'static str and there are exactly six instantiations.
        let variant: &'static str = match (Q::tag(), CHUNKED) {
            ("S", false) => "S-P",
            ("S", true) => "S-C",
            ("VA", false) => "VA-P",
            ("VA", true) => "VA-C",
            ("VL", false) => "VL-P",
            ("VL", true) => "VL-C",
            _ => "?",
        };
        debug_assert_eq!(variant, Self::variant());
        ManagerInfo::builder("Ouroboros").variant(variant).build()
    }

    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        if size == 0 {
            return Err(AllocError::UnsupportedSize(0));
        }
        if size > MAX_PAGE {
            // "Larger allocations are relayed to the CUDA-Allocator."
            self.metrics.tick(ctx.sm, Counter::OomFallbacks);
            return self.cuda.malloc(ctx, size);
        }
        let class_idx = Self::class_index(size);
        if CHUNKED {
            self.malloc_chunked(ctx.sm, class_idx)
        } else {
            self.malloc_paged(ctx.sm, class_idx)
        }
    }

    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        if ptr.is_null() || ptr.offset() >= self.heap.len() {
            return Err(AllocError::InvalidPointer);
        }
        if ptr.offset() >= self.cuda_base {
            return self.cuda.free(ctx, ptr);
        }
        let chunk = (ptr.offset() / CHUNK_BYTES) as u32;
        let meta = self.pool.meta(chunk);
        let class = meta.class.load(Ordering::Acquire);
        if class as usize >= NUM_CLASSES {
            return Err(AllocError::InvalidPointer);
        }
        let class_idx = class as usize;
        let ps = Self::page_size(class_idx);
        let within = ptr.offset() - self.pool.chunk_base(chunk);
        if !within.is_multiple_of(ps) {
            return Err(AllocError::InvalidPointer);
        }
        let slot = (within / ps) as u32;
        if !meta.clear_used(slot) {
            return Err(AllocError::InvalidPointer);
        }
        let mut spins = 0u64;
        if CHUNKED {
            let pages = Self::pages_per_chunk(class_idx);
            let prev = meta.free_pages.fetch_add(1, Ordering::AcqRel);
            if prev == 0 {
                // Chunk regained free pages: put it back in circulation.
                let _ =
                    self.queues[class_idx].enqueue_with(&self.pool, &self.heap, chunk, &mut spins);
            } else if prev + 1 == pages {
                // Fully free: reclaim for arbitrary reuse.
                if meta
                    .free_pages
                    .compare_exchange(pages, COUNT_LOCK, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.pool.release(chunk);
                } else {
                    // Lost the reclaim race to a concurrent malloc.
                    self.metrics.tick(ctx.sm, Counter::CasRetries);
                }
            }
        } else {
            // Page-based: the page simply goes back to its size's queue.
            let code = chunk * CODE_STRIDE + slot;
            let _ = self.queues[class_idx].enqueue_with(&self.pool, &self.heap, code, &mut spins);
        }
        self.metrics.add(ctx.sm, Counter::QueueSpins, spins);
        Ok(())
    }

    fn register_footprint(&self) -> RegisterFootprint {
        let malloc_frame = if CHUNKED {
            std::mem::size_of::<MallocFrameChunked>()
        } else {
            std::mem::size_of::<MallocFramePaged>()
        };
        RegisterFootprint::from_frames(malloc_frame, std::mem::size_of::<FreeFrame>())
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

    fn each_variant(f: impl Fn(&dyn DeviceAllocator, &str)) {
        f(&OuroSP::with_capacity(HEAP), "S-P");
        f(&OuroSC::with_capacity(HEAP), "S-C");
        f(&OuroVAP::with_capacity(HEAP), "VA-P");
        f(&OuroVAC::with_capacity(HEAP), "VA-C");
        f(&OuroVLP::with_capacity(HEAP), "VL-P");
        f(&OuroVLC::with_capacity(HEAP), "VL-C");
    }

    #[test]
    fn variant_labels() {
        each_variant(|a, v| {
            assert_eq!(a.info().family, "Ouroboros");
            assert_eq!(a.info().variant, v);
        });
    }

    #[test]
    fn class_math() {
        assert_eq!(OuroSP::class_index(1), 0);
        assert_eq!(OuroSP::class_index(16), 0);
        assert_eq!(OuroSP::class_index(17), 1);
        assert_eq!(OuroSP::class_index(8192), 9);
        assert_eq!(OuroSP::page_size(9), 8192);
        assert_eq!(OuroSP::pages_per_chunk(0), 512);
        assert_eq!(OuroSP::pages_per_chunk(9), 1);
    }

    #[test]
    fn roundtrip_all_variants() {
        each_variant(|a, v| {
            for size in [1u64, 16, 100, 1000, 8192] {
                let p = a
                    .checked_malloc(&ctx(), size)
                    .unwrap_or_else(|e| panic!("{v} size {size}: {e}"));
                a.heap().fill(p, size, 0x3c);
                a.free(&ctx(), p).unwrap_or_else(|e| panic!("{v} size {size}: {e}"));
            }
        });
    }

    #[test]
    fn pages_are_power_of_two_aligned() {
        each_variant(|a, _| {
            let p = a.malloc(&ctx(), 100).unwrap();
            assert_eq!(p.offset() % 128, 0, "100 B rounds to a 128 B page");
        });
    }

    #[test]
    fn page_based_reuses_freed_page_fifo() {
        let a = OuroSP::with_capacity(HEAP);
        let p = a.malloc(&ctx(), 64).unwrap();
        let q = a.malloc(&ctx(), 64).unwrap();
        a.free(&ctx(), p).unwrap();
        a.free(&ctx(), q).unwrap();
        // Queue still holds the rest of the carved chunk first; drain it.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..OuroSP::pages_per_chunk(2) as usize + 2 {
            seen.insert(a.malloc(&ctx(), 64).unwrap());
        }
        assert!(seen.contains(&p) && seen.contains(&q), "freed pages recirculate");
    }

    #[test]
    fn chunk_based_reclaims_empty_chunks_for_other_sizes() {
        let a = OuroSC::with_capacity(HEAP);
        let before = a.allocated_chunks();
        let p = a.malloc(&ctx(), 16).unwrap();
        assert_eq!(a.allocated_chunks(), before + 1);
        a.free(&ctx(), p).unwrap();
        // The chunk went back to the pool; a different size class reuses it
        // rather than bumping the frontier.
        let q = a.malloc(&ctx(), 4096).unwrap();
        assert_eq!(a.allocated_chunks(), before + 1, "chunk reused, not bumped");
        assert_eq!(q.offset() / CHUNK_BYTES, p.offset() / CHUNK_BYTES);
    }

    #[test]
    fn page_based_chunks_stay_assigned() {
        let a = OuroSP::with_capacity(HEAP);
        let before = a.allocated_chunks();
        let p = a.malloc(&ctx(), 16).unwrap();
        a.free(&ctx(), p).unwrap();
        let _q = a.malloc(&ctx(), 4096).unwrap();
        // Page-based cannot recycle the 16 B chunk for 4 KiB pages.
        assert_eq!(a.allocated_chunks(), before + 2, "second chunk required");
    }

    #[test]
    fn oversize_relays_to_cuda_section() {
        each_variant(|a, v| {
            let p = a.malloc(&ctx(), 100_000).unwrap_or_else(|e| panic!("{v}: {e}"));
            assert!(p.offset() >= HEAP * 3 / 4 - CHUNK_BYTES, "{v}: {p:?}");
            a.free(&ctx(), p).unwrap();
        });
    }

    #[test]
    fn double_free_detected() {
        each_variant(|a, v| {
            let p = a.malloc(&ctx(), 64).unwrap();
            a.free(&ctx(), p).unwrap();
            assert_eq!(
                a.free(&ctx(), p),
                Err(AllocError::InvalidPointer),
                "{v}: double free must fail"
            );
        });
    }

    #[test]
    fn invalid_pointers_rejected() {
        let a = OuroVLC::with_capacity(HEAP);
        assert_eq!(a.free(&ctx(), DevicePtr::NULL), Err(AllocError::InvalidPointer));
        assert_eq!(a.free(&ctx(), DevicePtr::new(0)), Err(AllocError::InvalidPointer));
        let p = a.malloc(&ctx(), 64).unwrap();
        assert_eq!(a.free(&ctx(), DevicePtr::new(p.offset() + 8)), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn exhaustion_and_recovery() {
        each_variant(|a, v| {
            let mut ptrs = Vec::new();
            loop {
                match a.malloc(&ctx(), 1024) {
                    Ok(p) => ptrs.push(p),
                    Err(AllocError::OutOfMemory(_)) => break,
                    Err(e) => panic!("{v}: {e}"),
                }
            }
            assert!(ptrs.len() >= 2000, "{v}: only {} KiB-pages fit", ptrs.len());
            for p in ptrs.drain(..) {
                a.free(&ctx(), p).unwrap_or_else(|e| panic!("{v}: {e}"));
            }
            assert!(a.malloc(&ctx(), 1024).is_ok(), "{v}: must recover after frees");
        });
    }

    #[test]
    fn mixed_sizes_do_not_overlap() {
        each_variant(|a, v| {
            let mut spans = Vec::new();
            for i in 0..300u64 {
                let size = 16u64 << (i % 6);
                let p = a.malloc(&ctx(), size).unwrap();
                spans.push((p.offset(), next_pow2(size)));
            }
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0, "{v}: overlap {:?} vs {:?}", w[0], w[1]);
            }
        });
    }

    /// Four OS threads per variant malloc, fill, read back and free
    /// blocks of five sizes; a block that another thread was also handed
    /// shows up as a foreign fill pattern or an overlapping live span.
    #[test]
    fn concurrent_stress_no_overlap() {
        each_variant(|a, v| {
            let mut live: Vec<(u64, u64)> = std::thread::scope(|s| {
                let threads: Vec<_> = (0..4u32)
                    .map(|t| {
                        s.spawn(move || {
                            let check = |p: DevicePtr, size: u64, fill: u8| {
                                let mut back = vec![0u8; size as usize];
                                a.heap().read_bytes(p, &mut back);
                                assert!(back.iter().all(|&b| b == fill), "{v}: {p:?} overwritten");
                            };
                            let mut live = Vec::new();
                            for i in 0..2000u32 {
                                let c = ThreadCtx::from_linear(t * 2000 + i, 256, 80);
                                let size = 16u64 << (i % 5);
                                let fill = (t * 64 + i % 64) as u8;
                                let p = a.malloc(&c, size).expect("the heap is plenty");
                                a.heap().fill(p, size, fill);
                                live.push((p, size, fill));
                                if i % 2 == 1 {
                                    let (p, size, fill) = live.swap_remove(0);
                                    check(p, size, fill);
                                    a.free(&c, p).unwrap();
                                }
                            }
                            live.into_iter()
                                .map(|(p, size, fill)| {
                                    check(p, size, fill);
                                    (p.offset(), next_pow2(size))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                threads.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            live.sort_unstable();
            for w in live.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0, "{v}: overlap {:?} vs {:?}", w[0], w[1]);
            }
        });
    }

    #[test]
    fn grow_extends_manageable_chunks() {
        let heap = Arc::new(DeviceHeap::new(HEAP));
        let a = OuroSP::with_initial_chunks(heap, 2);
        let ctx = ctx();
        // Two chunks: exhaust them with whole-chunk pages.
        let mut ptrs = Vec::new();
        loop {
            match a.malloc(&ctx, 8192) {
                Ok(p) => ptrs.push(p),
                Err(AllocError::OutOfMemory(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(ptrs.len(), 2, "initial window is two chunks");
        a.grow(4 * CHUNK_BYTES).unwrap();
        assert!(a.malloc(&ctx, 8192).is_ok(), "grown area must serve");
        // Growth is bounded by the heap.
        while a.grow(1 << 20).is_ok() {}
        assert!(matches!(a.grow(8192), Err(AllocError::OutOfMemory(_))));
    }

    #[test]
    fn register_footprints_match_survey_ordering() {
        let paged = OuroSP::with_capacity(HEAP).register_footprint();
        let chunked = OuroSC::with_capacity(HEAP).register_footprint();
        assert!(chunked.malloc > paged.malloc, "chunk-based carries more state");
        assert!((35..=55).contains(&paged.malloc), "{paged}");
        assert!((40..=60).contains(&chunked.malloc), "{chunked}");
        assert!((15..=30).contains(&paged.free), "{paged}");
    }
}

//! # alloc-regeff — the Register-Efficient allocator of Vinkler & Havran
//!
//! Paper §2.5: a dynamic memory allocator "based on a circular memory pool,
//! organized as a single-linked list". Every chunk carries an in-heap header
//! (allocation flag + offset of the next chunk); the pool is pre-split into
//! a binary-heap-like pattern of chunk sizes so early allocations do not
//! serialise on one giant block. Allocation walks the list from a shared
//! roving offset, claims a free chunk with CAS, and splits it when it is too
//! big; deallocation clears the flag and opportunistically merges with the
//! physically-next chunk (locking it first so no other thread can take it).
//!
//! **The port's one algorithmic deviation: growth on claim.** The original
//! merges only in `free`. A launch frees in address order, so every `free`
//! finds its successor still allocated: chunks only ever split, and a
//! mixed-size walk lengthens with every round the heap has lived (1 → 16
//! hops per malloc over 52 rounds, 60–83 for the multi variants). Here
//! `malloc` also claims a too-small free chunk whose physical successor is
//! free, and grows it with the original's own merge step (`absorb_next`, the
//! routine `free` uses) until the request fits or a successor is taken; then
//! it splits or releases as before. Every split makes one chunk and every
//! absorb retires one, so the walk stays at two hops. A run of one size never
//! meets a free chunk that is too small, and places exactly as the original.
//!
//! Four variants, as in the original:
//!
//! | Variant | Header | Offsets |
//! |---|---|---|
//! | `Reg-Eff-C`   (CircularMalloc)            | two words | one shared |
//! | `Reg-Eff-CF`  (Circular Fused Malloc)     | one word  | one shared |
//! | `Reg-Eff-CM`  (Circular Multi Malloc)     | two words | one per SM |
//! | `Reg-Eff-CFM` (Circular Fused Multi)      | one word  | one per SM |
//!
//! The multi variants "trade fragmentation for speed by introducing an array
//! of offsets (one for each SM) instead of just one shared memory offset"
//! and pre-split each SM's sub-heap separately; all sub-heaps remain linked
//! into one circular list.
//!
//! As the paper notes (§5), Reg-Eff does **not** return 16-byte-aligned
//! memory: payloads start right after the 8- or 4-byte header. The
//! `ManagerInfo` of each variant declares the true alignment.
//!
//! The survey also disabled Reg-Eff's warp-coalescing ("this did not work
//! for any of the testcases"); accordingly the port keeps the default
//! per-lane warp path.

// Also enforced workspace-wide; restated here so the audit
// guarantee survives if this crate is ever built out of tree.
#![deny(unsafe_op_in_unsafe_fn)]

use gpumem_core::sync::{AtomicU64, Ordering};
use std::marker::PhantomData;
use std::sync::Arc;

use gpumem_core::util::align_down;
use gpumem_core::{
    AllocError, Counter, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics,
    RegisterFootprint, ThreadCtx,
};

pub mod bitmap;
pub mod header;

use bitmap::ChunkStarts;
use header::{ChunkHeader, Fused, HeaderCodec, TwoWord};

/// Minimum pre-split chunk size; halving stops below this.
pub const MIN_PRESPLIT: u64 = 4096;
/// A claimed chunk is split when the leftover would be at least this big
/// (the original's "maximum fragmentation constant").
pub const SPLIT_MIN: u64 = 64;
/// Walk budget a validation reset costs: give-up is bounded by bytes (two
/// laps of the heap, walked or charged), and a reset yields, so a
/// descheduled peer cannot make a walker burn its budget in microseconds.
const STRIKE_BYTES: u64 = MIN_PRESPLIT;

/// The circular-list allocator, generic over header codec and offset policy.
pub struct RegEff<H: HeaderCodec, const MULTI: bool> {
    heap: Arc<DeviceHeap>,
    region_len: u64,
    starts: ChunkStarts,
    /// Roving start offsets: one entry (single) or one per SM (multi).
    offsets: Box<[AtomicU64]>,
    metrics: Metrics,
    _codec: PhantomData<H>,
}

/// CircularMalloc — two-word headers, one shared offset.
pub type RegEffC = RegEff<TwoWord, false>;
/// Circular Fused Malloc — fused header, one shared offset.
pub type RegEffCF = RegEff<Fused, false>;
/// Circular Multi Malloc — two-word headers, per-SM offsets.
pub type RegEffCM = RegEff<TwoWord, true>;
/// Circular Fused Multi Malloc — fused header, per-SM offsets.
pub type RegEffCFM = RegEff<Fused, true>;

/// Locals live in `malloc` (register proxy — the headline claim of the
/// original paper is how few of these there are).
#[repr(C)]
struct MallocFrame {
    cur: u64,
    next: u64,
    traversed: u64,
    need: u32,
    strikes: u32,
    extent: u64,
    header_word: u32,
    slot: u32,
    start: u64,
}

/// Locals live in `free`.
#[repr(C)]
struct FreeFrame {
    chunk: u64,
    next: u64,
    newnext: u64,
    header_word: u32,
    merged: u32,
}

impl<H: HeaderCodec, const MULTI: bool> RegEff<H, MULTI> {
    /// Creates the allocator over the whole `heap`, with `num_sms` roving
    /// offsets for the multi variants (ignored by the single variants).
    pub fn new(heap: Arc<DeviceHeap>, num_sms: u32) -> Self {
        let region_len = heap.len();
        assert!(region_len.is_multiple_of(8));
        assert!(
            region_len / 8 < (1 << 31),
            "Reg-Eff headers encode next-offsets in 31 bits of 8-byte units"
        );
        let slots = if MULTI { num_sms.max(1) as usize } else { 1 };
        assert!(
            region_len / slots as u64 >= 2 * MIN_PRESPLIT,
            "heap too small for {slots} Reg-Eff sub-heaps"
        );
        let starts = ChunkStarts::new(region_len);

        // Pre-split each sub-heap into the halving pattern of Figure 4.
        let sub = align_down(region_len / slots as u64, 8);
        let mut boundaries: Vec<u64> = Vec::new();
        let mut offsets = Vec::with_capacity(slots);
        for s in 0..slots {
            let base = s as u64 * sub;
            let len = if s + 1 == slots { region_len - base } else { sub };
            offsets.push(AtomicU64::new(base));
            Self::presplit(base, len, &mut boundaries);
        }
        // Link the chunks circularly (last chunk's next = 0 = first chunk).
        for (i, &b) in boundaries.iter().enumerate() {
            let next = boundaries.get(i + 1).copied().unwrap_or(0);
            H::write(&heap, b, ChunkHeader { allocated: false, next });
        }
        // Publish chunk starts only after all headers exist.
        for &b in &boundaries {
            starts.set(b);
        }

        RegEff {
            heap,
            region_len,
            starts,
            offsets: offsets.into_boxed_slice(),
            metrics: Metrics::disabled(),
            _codec: PhantomData,
        }
    }

    /// Convenience constructor owning its heap.
    pub fn with_capacity(len: u64, num_sms: u32) -> Self {
        Self::new(Arc::new(DeviceHeap::new(len)), num_sms)
    }

    /// Attaches a contention-observability handle (builder style).
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Publishes one walk's contention tally: list hops and lost claims, the
    /// latter also to the traced operation.
    fn flush_walk(&self, sm: u32, hops: u64, lost: u64) {
        self.metrics.add(sm, Counter::ListHops, hops);
        self.metrics.add(sm, Counter::CasRetries, lost);
    }

    fn presplit(base: u64, len: u64, out: &mut Vec<u64>) {
        let mut start = base;
        let mut remaining = len;
        while remaining / 2 >= MIN_PRESPLIT {
            let c = align_down(remaining / 2, 8);
            out.push(start);
            start += c;
            remaining -= c;
        }
        out.push(start);
    }

    /// Physical extent of the chunk at `cur` whose header names `next`.
    #[inline]
    fn extent(&self, cur: u64, next: u64) -> u64 {
        if next > cur {
            next - cur
        } else {
            // Only the physically-last chunk wraps (next == 0).
            self.region_len - cur
        }
    }

    /// Merges the free chunk at `next` into its physical predecessor `chunk`,
    /// which the caller owns, and returns `chunk`'s new link. `next` is locked
    /// first (paper: "trying to allocate the next chunk such that it cannot be
    /// used by another thread"), then `chunk` is relinked *before* `next`
    /// stops being a chunk start: a walker standing on `chunk` never reads a
    /// link to a dead offset, and one standing on `next` sees an intact
    /// allocated header and moves on.
    #[inline]
    fn absorb_next(&self, chunk: u64, next: u64) -> Option<u64> {
        if !(next > chunk && self.starts.check(next) && H::try_claim(&self.heap, next)) {
            return None;
        }
        if !self.starts.check(next) {
            // The claim landed on bytes a concurrent merge recycled — undo it.
            H::release(&self.heap, next);
            return None;
        }
        let absorbed = H::read(&self.heap, next);
        H::set_next(&self.heap, chunk, absorbed.next);
        self.starts.clear(next);
        Some(absorbed.next)
    }

    /// Start of `slot`'s own sub-heap: where its walk restarts when its cursor
    /// is no longer a chunk start. Offset 0 (never absorbed, so always a chunk
    /// start) once a merge across the sub-heap boundary has taken that chunk.
    #[cold]
    fn home(&self, slot: usize) -> u64 {
        let home = slot as u64 * align_down(self.region_len / self.offsets.len() as u64, 8);
        if self.starts.check(home) {
            home
        } else {
            0
        }
    }

    /// A validation reset: charges the walk [`STRIKE_BYTES`], yields — the
    /// peer whose update invalidated the cursor may need this core to finish
    /// it — and returns the offset to restart at.
    #[cold]
    fn strike(&self, slot: usize, traversed: &mut u64, strikes: &mut u32) -> u64 {
        *traversed += STRIKE_BYTES;
        *strikes += 1;
        gpumem_core::sync::thread::yield_now();
        self.home(slot)
    }

    /// Live-chunk count (diagnostics/tests).
    pub fn chunk_count(&self) -> u64 {
        self.starts.count()
    }

    fn variant_name() -> &'static str {
        match (H::FUSED, MULTI) {
            (false, false) => "C",
            (true, false) => "CF",
            (false, true) => "CM",
            (true, true) => "CFM",
        }
    }
}

impl<H: HeaderCodec, const MULTI: bool> DeviceAllocator for RegEff<H, MULTI> {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("Reg-Eff")
            .variant(Self::variant_name())
            .alignment(if H::FUSED { 4 } else { 8 })
            .build()
    }

    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        if size == 0 {
            return Err(AllocError::UnsupportedSize(0));
        }
        // Checked inflation: `size + H::SIZE` (then rounding) must not wrap
        // for near-`u64::MAX` requests and masquerade as a small chunk.
        let Some(need) = size.checked_add(H::SIZE).and_then(|n| n.checked_next_multiple_of(8))
        else {
            return Err(AllocError::UnsupportedSize(size));
        };
        if need > self.region_len {
            return Err(AllocError::UnsupportedSize(size));
        }
        let slot = if MULTI { (ctx.sm as usize) % self.offsets.len() } else { 0 };

        let mut cur = self.offsets[slot].load(Ordering::Relaxed);
        if !self.starts.check(cur) {
            cur = self.home(slot);
        }
        let mut traversed = 0u64;
        let mut strikes = 0u32;
        // Contention tally of this one walk: every chunk header inspected is
        // a list hop; validation resets and lost claims are CAS losses.
        let mut hops = 0u64;
        let mut lost = 0u64;
        loop {
            if traversed >= 2 * self.region_len {
                self.flush_walk(ctx.sm, hops, lost);
                // Resets that ate half the budget kept the walk from seeing
                // the heap twice: that is contention, not exhaustion.
                return Err(if u64::from(strikes) * STRIKE_BYTES >= self.region_len {
                    AllocError::Contention("Reg-Eff list walk")
                } else {
                    AllocError::OutOfMemory(size)
                });
            }
            hops += 1;
            let hdr = H::read(&self.heap, cur);
            // Validate the link before trusting anything else in the header:
            // a merge may have recycled `cur` under us. A forward link must
            // name a live chunk start; the last chunk's 0 is believed only
            // while `cur` is one (a recycled word reads as 0 too, and two
            // such "rest of the heap" extents are a spurious out-of-memory).
            let linked = if hdr.next > cur {
                self.starts.check(hdr.next)
            } else {
                hdr.next == 0 && self.starts.check(cur)
            };
            if !linked {
                lost += 1;
                cur = self.strike(slot, &mut traversed, &mut strikes);
                continue;
            }
            let extent = self.extent(cur, hdr.next);
            // A free chunk that is too small is still claimed when its
            // physical successor is free as well: the walk then merges them.
            if !hdr.allocated
                && (extent >= need || (hdr.next > cur && !H::read(&self.heap, hdr.next).allocated))
            {
                if H::try_claim(&self.heap, cur) {
                    // Post-claim validation: `cur` must still be a live chunk
                    // (the claim could have landed on recycled payload bytes).
                    if !self.starts.check(cur) {
                        H::release(&self.heap, cur);
                        lost += 1;
                        cur = self.strike(slot, &mut traversed, &mut strikes);
                        continue;
                    }
                    // Re-read under ownership: the chunk may have shrunk
                    // since the optimistic read.
                    let mut next = H::read(&self.heap, cur).next;
                    // Grow into free successors until the request fits or
                    // one of them is taken: `free` in address order never
                    // finds a free successor, so without this a chunk only
                    // ever splits and walks lengthen with the heap's age.
                    while self.extent(cur, next) < need {
                        let Some(grown) = self.absorb_next(cur, next) else { break };
                        hops += 1;
                        next = grown;
                    }
                    let extent = self.extent(cur, next);
                    if extent < need {
                        H::release(&self.heap, cur);
                        traversed += extent;
                        cur = next;
                        continue;
                    }
                    // Split when the leftover is worth keeping.
                    if extent - need >= SPLIT_MIN {
                        let leftover = cur + need;
                        H::write(&self.heap, leftover, ChunkHeader { allocated: false, next });
                        self.starts.set(leftover);
                        H::set_next(&self.heap, cur, leftover);
                        self.offsets[slot].store(leftover, Ordering::Relaxed);
                    } else {
                        self.offsets[slot].store(next, Ordering::Relaxed);
                    }
                    self.flush_walk(ctx.sm, hops, lost);
                    return Ok(DevicePtr::new(cur + H::SIZE));
                }
                // A free-looking chunk another thread claimed first.
                lost += 1;
            }
            traversed += extent;
            cur = hdr.next;
        }
    }

    fn free(&self, _ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        if ptr.is_null() || ptr.offset() < H::SIZE {
            return Err(AllocError::InvalidPointer);
        }
        let chunk = ptr.offset() - H::SIZE;
        if !self.starts.check(chunk) {
            return Err(AllocError::InvalidPointer);
        }
        let hdr = H::read(&self.heap, chunk);
        if !hdr.allocated {
            return Err(AllocError::InvalidPointer);
        }
        // Merge with the physically-next chunk if it is free.
        self.absorb_next(chunk, hdr.next);
        H::release(&self.heap, chunk);
        Ok(())
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

    const HEAP: u64 = 1 << 20; // 1 MiB

    fn ctx() -> ThreadCtx {
        ThreadCtx::host()
    }

    fn each_variant(f: impl Fn(&dyn DeviceAllocator, &str)) {
        f(&RegEffC::with_capacity(HEAP, 80), "C");
        f(&RegEffCF::with_capacity(HEAP, 80), "CF");
        f(&RegEffCM::with_capacity(HEAP, 80), "CM");
        f(&RegEffCFM::with_capacity(HEAP, 80), "CFM");
    }

    #[test]
    fn presplit_produces_halving_chunks() {
        let a = RegEffC::with_capacity(HEAP, 80);
        // 1 MiB: 512K, 256K, 128K, 64K, 32K, 16K, 8K, 4K, 4K(remainder)
        assert_eq!(a.chunk_count(), 9);
    }

    #[test]
    fn multi_presplits_per_sm() {
        let a = RegEffCM::with_capacity(HEAP, 8);
        // 8 sub-heaps of 128 KiB: 64K,32K,16K,8K,4K,4K = 6 chunks each.
        assert_eq!(a.chunk_count(), 48);
        assert_eq!(a.offsets.len(), 8);
    }

    #[test]
    fn variant_labels() {
        each_variant(|a, v| {
            assert_eq!(a.info().family, "Reg-Eff");
            assert_eq!(a.info().variant, v);
        });
    }

    #[test]
    fn alignment_is_header_sized_not_16() {
        // The paper's §5 point: Reg-Eff memory is not 16-byte aligned.
        assert_eq!(RegEffC::with_capacity(HEAP, 80).info().alignment, 8);
        assert_eq!(RegEffCF::with_capacity(HEAP, 80).info().alignment, 4);
    }

    #[test]
    fn malloc_free_roundtrip_all_variants() {
        each_variant(|a, v| {
            let p = a.checked_malloc(&ctx(), 100).unwrap_or_else(|e| panic!("{v}: {e}"));
            a.heap().fill(p, 100, 0xcd);
            a.free(&ctx(), p).unwrap_or_else(|e| panic!("{v}: {e}"));
        });
    }

    #[test]
    fn split_keeps_leftover_allocatable() {
        let a = RegEffC::with_capacity(HEAP, 80);
        let p1 = a.malloc(&ctx(), 64).unwrap();
        let p2 = a.malloc(&ctx(), 64).unwrap();
        // Second allocation lands right after the first's split remainder.
        assert_ne!(p1, p2);
        assert!(p2.offset() > p1.offset());
        assert_eq!(p2.offset() - p1.offset(), gpumem_core::util::align_up(64 + 8, 8));
    }

    #[test]
    fn free_merges_with_next_chunk() {
        let a = RegEffC::with_capacity(HEAP, 80);
        let before = a.chunk_count();
        let p1 = a.malloc(&ctx(), 64).unwrap();
        let p2 = a.malloc(&ctx(), 64).unwrap();
        assert_eq!(a.chunk_count(), before + 2);
        // Free in reverse order: p2 merges with the free tail, then p1
        // merges with the merged block.
        a.free(&ctx(), p2).unwrap();
        assert_eq!(a.chunk_count(), before + 1);
        a.free(&ctx(), p1).unwrap();
        assert_eq!(a.chunk_count(), before);
    }

    #[test]
    fn double_free_detected() {
        let a = RegEffCF::with_capacity(HEAP, 80);
        let p = a.malloc(&ctx(), 32).unwrap();
        a.free(&ctx(), p).unwrap();
        assert_eq!(a.free(&ctx(), p), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn bogus_pointer_rejected() {
        let a = RegEffC::with_capacity(HEAP, 80);
        assert_eq!(a.free(&ctx(), DevicePtr::new(12345)), Err(AllocError::InvalidPointer));
        assert_eq!(a.free(&ctx(), DevicePtr::NULL), Err(AllocError::InvalidPointer));
    }

    #[test]
    fn oversize_rejected() {
        let a = RegEffC::with_capacity(HEAP, 80);
        assert!(matches!(a.malloc(&ctx(), HEAP * 2), Err(AllocError::UnsupportedSize(_))));
    }

    #[test]
    fn exhaustion_reports_oom_and_recovers() {
        let a = RegEffCF::with_capacity(1 << 16, 80);
        let mut ptrs = Vec::new();
        loop {
            match a.malloc(&ctx(), 1024) {
                Ok(p) => ptrs.push(p),
                Err(AllocError::OutOfMemory(_)) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(ptrs.len() >= 50, "should fit ~60 KiB of 1 KiB blocks: {}", ptrs.len());
        for p in ptrs.drain(..) {
            a.free(&ctx(), p).unwrap();
        }
        assert!(a.malloc(&ctx(), 1024).is_ok(), "memory must be reusable after frees");
    }

    #[test]
    fn allocations_do_not_overlap() {
        let a = RegEffC::with_capacity(HEAP, 80);
        let mut spans = Vec::new();
        for i in 0..200u64 {
            let size = 16 + (i % 64) * 8;
            let p = a.malloc(&ctx(), size).unwrap();
            spans.push((p.offset(), size));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn multi_variant_scatters_by_sm() {
        let a = RegEffCM::with_capacity(HEAP, 8);
        let mut ptrs = Vec::new();
        for sm in 0..8u32 {
            let c = ThreadCtx { thread_id: sm, lane: 0, warp: 0, block: sm, sm };
            ptrs.push(a.malloc(&c, 64).unwrap().offset());
        }
        // Each SM starts in its own sub-heap → 8 distinct 128 KiB regions.
        let mut regions: Vec<u64> = ptrs.iter().map(|p| p / (HEAP / 8)).collect();
        regions.sort_unstable();
        regions.dedup();
        assert_eq!(regions.len(), 8, "SMs should allocate from distinct sub-heaps");
    }

    #[test]
    fn concurrent_stress_no_overlap() {
        let a = Arc::new(RegEffCFM::with_capacity(1 << 22, 8));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut live: Vec<(u64, u64)> = Vec::new();
                let mut out = Vec::new();
                for i in 0..2000u32 {
                    let c = ThreadCtx::from_linear(t * 2000 + i, 256, 8);
                    let size = 16 + ((t as u64 * 7 + i as u64) % 96) * 8;
                    match a.malloc(&c, size) {
                        Ok(p) => {
                            a.heap().fill(p, size, 0xee);
                            live.push((p.offset(), size));
                        }
                        Err(AllocError::OutOfMemory(_)) | Err(AllocError::Contention(_)) => {}
                        Err(e) => panic!("{e}"),
                    }
                    if i % 3 == 0 {
                        if let Some((off, _)) = live.pop() {
                            a.free(&c, DevicePtr::new(off)).unwrap();
                        }
                    }
                }
                out.extend(live);
                out
            }));
        }
        let mut all: Vec<(u64, u64)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "concurrent overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn register_footprint_is_smallest_in_survey() {
        let a = RegEffC::with_capacity(HEAP, 80);
        let fp = a.register_footprint();
        assert!(fp.malloc <= 16, "Reg-Eff must be register-frugal: {fp}");
        assert!(fp.free <= 12, "{fp}");
    }

    #[test]
    fn near_max_request_fails_instead_of_wrapping() {
        // Regression: the header inflation `align_up(size + H::SIZE, 8)` used
        // to wrap for near-u64::MAX requests and pass the region-length
        // guard.
        each_variant(|a, tag| {
            for size in [u64::MAX, u64::MAX - 8, u64::MAX - 16] {
                assert!(
                    matches!(a.malloc(&ctx(), size), Err(AllocError::UnsupportedSize(_))),
                    "{tag}: size {size:#x} must be rejected, not wrapped"
                );
            }
        });
    }
}

/// Model-checked interleaving suite (built with `RUSTFLAGS="--cfg loom"`).
///
/// Unlike the leaf models in `header.rs` and `bitmap.rs`, this one composes
/// the real `malloc` and `free`: the merge window it covers exists only
/// between a walk in one and a relink in the other.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use gpumem_core::sync::{model, thread};

    /// Smallest heap `RegEff::new` accepts: two pre-split chunks of 4 KiB.
    const HEAP: u64 = 2 * MIN_PRESPLIT;

    /// Walks the list once from offset 0 and checks it against `live`, the
    /// payload offsets handed out and not freed: every link lands on a chunk
    /// start further on, the chunks tile the heap, no chunk start is off the
    /// list, and exactly the live chunks are flagged allocated.
    fn assert_consistent<H: HeaderCodec>(a: &RegEff<H, false>, live: &[u64]) {
        let (mut cur, mut chunks, mut allocated) = (0, 0, Vec::new());
        loop {
            assert!(a.starts.check(cur), "{cur} is on the list but not a chunk start");
            let hdr = H::read(&a.heap, cur);
            chunks += 1;
            if hdr.allocated {
                allocated.push(cur + H::SIZE);
            }
            if hdr.next == 0 {
                break;
            }
            assert!(hdr.next > cur && hdr.next < HEAP, "chunk {cur} links to {}", hdr.next);
            cur = hdr.next;
        }
        assert_eq!(chunks, a.chunk_count(), "a chunk start is off the list");
        let mut live = live.to_vec();
        live.sort_unstable();
        assert_eq!(allocated, live, "allocated flags do not match the live blocks");
    }

    /// A walker, a merger and a splitter on [A | B | free | free]: `free(B)`
    /// absorbs the chunk the roving offset points at while one `malloc` walks
    /// over B to a request only merged chunks can serve and another splits
    /// whichever free chunk it reaches first. No schedule may end a walk in
    /// `Contention` (a walk may find every free chunk locked by the other two
    /// and report `OutOfMemory`: that is the algorithm, not a defect), hand
    /// out overlapping blocks or leave the list inconsistent.
    fn walker_merger_splitter<H: HeaderCodec>() {
        model(|| {
            let a = Arc::new(RegEff::<H, false>::with_capacity(HEAP, 1));
            let ctx = ThreadCtx::host();
            let pa = a.malloc(&ctx, 1000).unwrap();
            let pb = a.malloc(&ctx, 1000).unwrap();
            let spawn_malloc = |size: u64| {
                let a = a.clone();
                thread::spawn(move || {
                    a.malloc(&ThreadCtx::host(), size).map(|p| (p.offset(), size))
                })
            };
            let merger = {
                let a = a.clone();
                thread::spawn(move || a.free(&ThreadCtx::host(), pb))
            };
            let walker = spawn_malloc(3000);
            let splitter = spawn_malloc(100);
            assert_eq!(merger.join().unwrap(), Ok(()));
            let mut spans = vec![(pa.offset(), 1000)];
            for r in [walker.join().unwrap(), splitter.join().unwrap()] {
                match r {
                    Ok(span) => spans.push(span),
                    Err(e) => assert!(matches!(e, AllocError::OutOfMemory(_)), "walk gave up: {e}"),
                }
            }
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0 - H::SIZE, "overlap: {spans:?}");
            }
            let live: Vec<u64> = spans.iter().map(|s| s.0).collect();
            assert_consistent(&a, &live);
        });
    }

    /// The order inside `absorb_next`, on its own (the walk's yield-and-retry
    /// would paper over it above): whenever the link of a live chunk names an
    /// offset that is not a chunk start, the chunk has already been relinked.
    fn relink_precedes_clear<H: HeaderCodec>() {
        model(|| {
            let a = Arc::new(RegEff::<H, false>::with_capacity(HEAP, 1));
            let ctx = ThreadCtx::host();
            a.malloc(&ctx, 1000).unwrap();
            let pb = a.malloc(&ctx, 1000).unwrap();
            let merger = {
                let a = a.clone();
                thread::spawn(move || a.free(&ThreadCtx::host(), pb))
            };
            // Runs one step of the walk's link validation on B; reports a
            // link it found dead and then found unchanged.
            let observer = {
                let a = a.clone();
                thread::spawn(move || {
                    let b = pb.offset() - H::SIZE;
                    let next = H::read(&a.heap, b).next;
                    (!a.starts.check(next) && H::read(&a.heap, b).next == next).then_some(next)
                })
            };
            assert_eq!(merger.join().unwrap(), Ok(()));
            assert_eq!(observer.join().unwrap(), None, "B still linked to a dead offset");
        });
    }

    #[test]
    fn relink_precedes_clear_in_both_codecs() {
        relink_precedes_clear::<TwoWord>();
        relink_precedes_clear::<Fused>();
    }

    #[test]
    fn two_word_walker_merger_splitter() {
        walker_merger_splitter::<TwoWord>();
    }

    #[test]
    fn fused_walker_merger_splitter() {
        walker_merger_splitter::<Fused>();
    }
}

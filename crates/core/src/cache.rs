//! `Cached<A>` — per-SM size-class magazines over any [`DeviceAllocator`].
//!
//! The survey's central finding is that allocator hot paths live or die on
//! contention over *shared* metadata: hash-probe chains, queue dequeues and
//! free-list walks all serialize concurrent requests (§4.2, Fig. 9h). This
//! decorator attacks exactly that. Recently freed blocks are parked in small
//! per-SM, per-size-class **magazines** (bounded lock-free LIFO stacks), so
//! a repeat allocation of the same class is served by one swap on SM-local
//! state instead of a trip through the family's shared structures. Frees
//! issued warp-collectively are additionally **batched**: the lanes a warp
//! could not park are published to the inner allocator in one leader-driven
//! `free_warp` call rather than 32 individual ones.
//!
//! Size classes generalize Halloc's table (§2.7): the powers of two and the
//! `3·2^k` midpoints between [`MIN_CLASS`] and [`MAX_CLASS`]. A request is
//! rounded up to its class before it reaches the inner allocator, so any
//! same-class request can safely reuse a parked block.
//!
//! ## Ownership protocol
//!
//! A block enters a magazine only by moving *out* of the caller's hands
//! (`free`), and leaves it only by a successful atomic pop (`malloc`), so a
//! parked block is never double-granted. From the inner allocator's view a
//! parked block is still allocated — the inner `free` happens later, when
//! the magazine overflows ([`Counter::MagazineFlushes`]) or the decorator
//! drains ([`Cached::flush_all`], also invoked on drop). This is what keeps
//! `Sanitized<Cached<A>>` sound: the sanitizer wraps *outside*, observes
//! every caller-visible free (parking reports `Ok` precisely because the
//! block really is reusable), and every parked block is eventually returned
//! to the inner allocator by a real `free` call.
//!
//! Which class a freed block belongs to is read off *where it lives*: a
//! class-map byte per [`MIN_CLASS`] granule of the inner heap, the way
//! ScatterAlloc and Halloc read it off the page or slab (§2.5, §2.7).
//!
//! Caching engages only for inner allocators with general free support
//! (`supports_free && !warp_level_only`): without an inner `free`, evicted
//! blocks could not be returned, and warp-level-only managers (FDGMalloc)
//! release allocations wholesale in a way no pointer-keyed cache can track.
//! For those families the decorator is a transparent pass-through.

use crate::error::AllocError;
use crate::metrics::{Counter, Metrics};
use crate::ptr::DevicePtr;
use crate::sync::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::trace::EventKind;
use crate::traits::DeviceAllocator;
use crate::{ThreadCtx, WarpCtx, WARP_SIZE};

/// Smallest cached size class, matching Halloc's 16 B minimum block.
pub const MIN_CLASS: u64 = 16;

/// Largest cached size class; larger requests pass straight through.
pub const MAX_CLASS: u64 = 4096;

/// Number of size classes between [`MIN_CLASS`] and [`MAX_CLASS`].
pub const NUM_CLASSES: usize = 17;

/// The class table: powers of two and `3·2^k` values, ascending.
pub const CLASS_SIZES: [u64; NUM_CLASSES] =
    [16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096];

/// Slots per (SM, class) magazine: a smoke-tier working set (2048 blocks
/// over 8 active SMs) parks entirely, and a full magazine evicts to the
/// inner allocator, so a free-heavy phase cannot grow the cache unbounded.
const MAGAZINE_CAP: usize = 256;

/// Index of the smallest class that fits `size`, or `None` above
/// [`MAX_CLASS`]. Requests of 0 bytes round up to [`MIN_CLASS`] like every
/// surveyed manager's minimum block.
#[inline]
pub fn class_of(size: u64) -> Option<usize> {
    if size > MAX_CLASS {
        return None;
    }
    if size <= MIN_CLASS {
        return Some(0);
    }
    // `size - 1` lies in an octave [2^k, 2^(k+1)), k ≥ 4, which holds two
    // classes: 3·2^(k-1) at index 2(k-4)+1 and 2^(k+1) one above it. Bit
    // k-1 of `size - 1` is set exactly in the octave's upper half.
    let m = size - 1;
    let k = (63 - m.leading_zeros()) as usize;
    Some(2 * (k - 4) + 1 + ((m >> (k - 1)) & 1) as usize)
}

/// A bounded lock-free LIFO of parked block offsets.
///
/// Every slot is its own ownership cell (0 = empty, otherwise
/// `offset + 1`): a block enters by exactly one `CAS(slot, 0 → offset+1)`
/// and leaves by exactly one `swap(slot, 0)`, so whichever thread's RMW
/// takes the value owns the block — none lost, none doubled, under any
/// interleaving. `hint` is advisory: the index where a push looks first
/// (a pop looks just below it). It is read and written Relaxed and never
/// decides ownership; single-threaded it is exact, so the order is LIFO.
/// A stale hint costs a scan over the slots it skipped, a spurious "full"
/// (the block is evicted) or a spurious "empty" (the request misses) —
/// nothing else; draining and counting scan the slots and ignore it.
pub(crate) struct Magazine {
    hint: AtomicUsize,
    slots: Box<[AtomicU64]>,
}

impl Magazine {
    pub(crate) fn new(cap: usize) -> Self {
        Magazine {
            hint: AtomicUsize::new(0),
            slots: (0..cap.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Parks `offset`; `Err(())` when no slot at or above the hint is empty
    /// (the caller flushes the block to the inner allocator instead).
    pub(crate) fn push(&self, offset: u64) -> Result<(), ()> {
        // +1 tells offset 0 from EMPTY; heap offsets are far below u64::MAX,
        // so it cannot wrap.
        let enc = offset + 1;
        let cap = self.slots.len();
        for i in self.hint.load(Ordering::Relaxed).min(cap)..cap {
            // Release publishes the parked block's handoff: the popper that
            // acquires this value may hand the block to a new owner whose
            // accesses must be ordered after the old owner's.
            if self.slots[i].compare_exchange(0, enc, Ordering::Release, Ordering::Relaxed).is_ok()
            {
                self.hint.store(i + 1, Ordering::Relaxed);
                return Ok(());
            }
        }
        self.hint.store(cap, Ordering::Relaxed);
        Err(())
    }

    /// Takes the most recently parked offset, or `None` when no slot below
    /// the hint is occupied.
    pub(crate) fn pop(&self) -> Option<u64> {
        let cap = self.slots.len();
        for i in (0..self.hint.load(Ordering::Relaxed).min(cap)).rev() {
            // Acquire pairs with the pusher's Release CAS: the popped
            // block's prior writes happen-before the new owner's.
            let v = self.slots[i].swap(0, Ordering::Acquire);
            if v != 0 {
                self.hint.store(i, Ordering::Relaxed);
                return Some(v - 1);
            }
        }
        self.hint.store(0, Ordering::Relaxed);
        None
    }

    /// Takes every parked offset, whatever the hint says.
    fn drain(&self, mut each: impl FnMut(u64)) {
        for slot in self.slots.iter() {
            // The load keeps a drain of a mostly empty magazine read-only.
            if slot.load(Ordering::Relaxed) != 0 {
                match slot.swap(0, Ordering::Acquire) {
                    0 => {} // a racing pop took it first
                    v => each(v - 1),
                }
            }
        }
        self.hint.store(0, Ordering::Relaxed);
    }

    /// Occupied slots (exact at quiescence).
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.load(Ordering::Relaxed) != 0).count()
    }
}

/// Direct-indexed map from heap position to size class: one byte per
/// [`MIN_CLASS`] granule of the inner heap, `0` = not a live cached grant,
/// otherwise `class + 1`. Every cached grant is at least [`MIN_CLASS`]
/// bytes, so two live ones never start in the same granule whatever the
/// inner manager's alignment, and no uncached block can start in a granule
/// a live cached one covers. The storage is `heap_len / 16` bytes of
/// calloc'd address space: pages are committed only where a cached block
/// lives, and nothing is written at construction.
struct ClassMap {
    cells: Box<[AtomicU8]>,
}

impl ClassMap {
    fn new(heap_len: u64) -> Self {
        let granules = usize::try_from(heap_len.div_ceil(MIN_CLASS))
            .expect("a heap that is addressable has an addressable class map");
        let zeroed = Box::into_raw(vec![0u8; granules].into_boxed_slice());
        // SAFETY: `AtomicU8` has the size, alignment and bit validity of
        // `u8` (repr(transparent) in the loom shim too), and `zeroed` is the
        // sole owner of an allocation made with exactly this layout.
        ClassMap { cells: unsafe { Box::from_raw(zeroed as *mut [AtomicU8]) } }
    }

    #[inline]
    fn cell(&self, offset: u64) -> Option<&AtomicU8> {
        self.cells.get(usize::try_from(offset / MIN_CLASS).ok()?)
    }

    /// Records a grant of `offset` in `class`. The granting thread owns the
    /// block exclusively, so a plain store suffices; an offset beyond the
    /// map stays untracked and its free passes through.
    #[inline]
    fn grant(&self, offset: u64, class: usize) {
        debug_assert!(class < NUM_CLASSES);
        if let Some(cell) = self.cell(offset) {
            // Release/Acquire with `take`: whoever frees the block sees the
            // class its grant recorded.
            cell.store(class as u8 + 1, Ordering::Release);
        }
    }

    /// Ends the grant of `offset`, returning its class. One `swap`, so of
    /// several racing frees exactly one wins and a double free cannot park
    /// one block twice.
    #[inline]
    fn take(&self, offset: u64) -> Option<usize> {
        let cell = self.cell(offset)?;
        // Untracked frees (oversize, foreign pointers) stay read-only, so
        // they never commit a page of the map.
        if cell.load(Ordering::Relaxed) == 0 {
            return None;
        }
        match cell.swap(0, Ordering::AcqRel) {
            0 => None,
            c => Some(usize::from(c) - 1),
        }
    }
}

/// One SM's magazines, padded so neighbouring SMs do not false-share.
#[repr(align(128))]
struct SmShard {
    mags: [Magazine; NUM_CLASSES],
}

/// The caching decorator. See the module docs for the protocol.
pub struct Cached<A: DeviceAllocator> {
    inner: A,
    shards: Box<[SmShard]>,
    classes: ClassMap,
    /// The inner manager's metrics handle: magazine counters land in the
    /// same block as the calls counted below this layer.
    metrics: Metrics,
    /// Whether magazines engage (inner has general free support).
    enabled: bool,
}

impl<A: DeviceAllocator> Cached<A> {
    /// Wraps `inner`, one shard of magazines per SM.
    pub fn new(inner: A, num_sms: u32) -> Self {
        Cached::with_magazine_cap(inner, num_sms, MAGAZINE_CAP)
    }

    /// [`Cached::new`] with small magazines, for overflow tests.
    pub(crate) fn with_magazine_cap(inner: A, num_sms: u32, cap: usize) -> Self {
        let info = inner.info();
        let enabled = info.supports_free && !info.warp_level_only;
        let n = (num_sms.max(1) as usize).next_power_of_two();
        let shards =
            (0..n).map(|_| SmShard { mags: std::array::from_fn(|_| Magazine::new(cap)) }).collect();
        let classes = ClassMap::new(if enabled { inner.heap().len() } else { 0 });
        let metrics = inner.metrics();
        Cached { inner, shards, classes, metrics, enabled }
    }

    /// The wrapped allocator.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Whether magazines are engaged (false = transparent pass-through).
    pub fn is_caching(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn shard(&self, sm: u32) -> &SmShard {
        &self.shards[sm as usize & (self.shards.len() - 1)]
    }

    #[inline]
    fn class_for(&self, size: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        class_of(size)
    }

    /// Blocks currently parked across all magazines (exact at quiescence).
    pub fn cached_blocks(&self) -> u64 {
        self.shards.iter().flat_map(|s| s.mags.iter()).map(|m| m.len() as u64).sum()
    }

    /// Drains every magazine, returning each parked block to the inner
    /// allocator with a real `free`. Returns the number of blocks flushed.
    /// Called on drop, so no block the caller freed is ever stranded.
    pub fn flush_all(&self) -> u64 {
        let mut flushed = 0u64;
        for (sm, shard) in self.shards.iter().enumerate() {
            let ctx = ThreadCtx { thread_id: 0, lane: 0, warp: 0, block: sm as u32, sm: sm as u32 };
            for mag in &shard.mags {
                mag.drain(|off| {
                    let _ = self.inner.free(&ctx, DevicePtr::new(off));
                    flushed += 1;
                });
            }
        }
        if flushed > 0 {
            self.metrics.add(0, Counter::MagazineFlushes, flushed);
            if let Some(rec) = self.metrics.tracer() {
                rec.emit(0, EventKind::CacheFlush, [flushed, 0, 0, 0]);
            }
        }
        flushed
    }

    /// Parks `ptr` (its grant already ended, as `class`); on overflow,
    /// evicts it to the inner allocator. Returns `Ok` in both cases —
    /// either way the caller's free succeeded.
    fn park_or_evict(
        &self,
        ctx: &ThreadCtx,
        ptr: DevicePtr,
        class: usize,
    ) -> Result<(), AllocError> {
        if self.shard(ctx.sm).mags[class].push(ptr.raw()).is_ok() {
            return Ok(());
        }
        self.metrics.tick(ctx.sm, Counter::MagazineFlushes);
        if let Some(rec) = self.metrics.tracer() {
            rec.emit(ctx.sm, EventKind::CacheFlush, [1, CLASS_SIZES[class], 0, 0]);
        }
        self.inner.free(ctx, ptr)
    }
}

// `free_warp_all` forwards: only warp-level-only families implement it,
// and for them caching is disabled, so the magazines are empty.
impl<A: DeviceAllocator> crate::traits::Layer for Cached<A> {
    type Inner = A;

    fn inner(&self) -> &A {
        &self.inner
    }

    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let Some(class) = self.class_for(size) else {
            return self.inner.malloc(ctx, size);
        };
        if let Some(off) = self.shard(ctx.sm).mags[class].pop() {
            self.metrics.tick(ctx.sm, Counter::MagazineHits);
            if let Some(rec) = self.metrics.tracer() {
                rec.emit(ctx.sm, EventKind::CacheHit, [off, CLASS_SIZES[class], 0, 0]);
            }
            self.classes.grant(off, class);
            return Ok(DevicePtr::new(off));
        }
        self.metrics.tick(ctx.sm, Counter::MagazineMisses);
        // Round up to the class so any same-class request can reuse the
        // block later.
        let ptr = self.inner.malloc(ctx, CLASS_SIZES[class])?;
        self.classes.grant(ptr.raw(), class);
        Ok(ptr)
    }

    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        if !self.enabled || ptr.is_null() {
            return self.inner.free(ctx, ptr);
        }
        match self.classes.take(ptr.raw()) {
            Some(class) => self.park_or_evict(ctx, ptr, class),
            // Untracked (oversize, beyond the map, or a pointer that never
            // passed through this layer): the inner allocator owns it.
            None => self.inner.free(ctx, ptr),
        }
    }

    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        debug_assert_eq!(sizes.len(), out.len());
        if !self.enabled {
            return self.inner.malloc_warp(warp, sizes, out);
        }
        debug_assert!(sizes.len() <= WARP_SIZE as usize);
        // Serve the whole warp from magazines when possible; otherwise roll
        // the pops back and delegate the intact warp to the inner
        // allocator, preserving its coalesced fast path and all-or-nothing
        // failure semantics.
        let shard = self.shard(warp.sm);
        let mut popped = [(0usize, 0u64); WARP_SIZE as usize];
        let mut hits = 0;
        for &size in sizes {
            let Some(class) = self.class_for(size) else { break };
            let Some(off) = shard.mags[class].pop() else { break };
            popped[hits] = (class, off);
            hits += 1;
        }
        let popped = &popped[..hits];
        if hits == sizes.len() {
            self.metrics.add(warp.sm, Counter::MagazineHits, hits as u64);
            if let Some(rec) = self.metrics.tracer() {
                rec.emit(warp.sm, EventKind::CacheHit, [hits as u64, 0, 0, 1]);
            }
            for (lane, &(class, off)) in out.iter_mut().zip(popped) {
                self.classes.grant(off, class);
                *lane = DevicePtr::new(off);
            }
            return Ok(());
        }
        for &(class, off) in popped {
            if shard.mags[class].push(off).is_err() {
                // Raced full between pop and push-back: evict for real.
                let ctx = warp.leader();
                self.metrics.tick(warp.sm, Counter::MagazineFlushes);
                let _ = self.inner.free(&ctx, DevicePtr::new(off));
            }
        }
        self.metrics.add(warp.sm, Counter::MagazineMisses, sizes.len() as u64);
        let mut rounded = [0u64; WARP_SIZE as usize];
        let rounded = &mut rounded[..sizes.len()];
        for (r, &s) in rounded.iter_mut().zip(sizes) {
            *r = self.class_for(s).map_or(s, |c| CLASS_SIZES[c]);
        }
        self.inner.malloc_warp(warp, rounded, out)?;
        for (&p, &s) in out.iter().zip(rounded.iter()) {
            if !p.is_null() {
                if let Some(c) = self.class_for(s) {
                    self.classes.grant(p.raw(), c);
                }
            }
        }
        Ok(())
    }

    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        if !self.enabled {
            return self.inner.free_warp(warp, ptrs);
        }
        debug_assert!(ptrs.len() <= WARP_SIZE as usize);
        let shard = self.shard(warp.sm);
        // Park what fits; batch the rest into ONE leader-driven publication
        // to the inner allocator (lane positions preserved, parked lanes
        // nulled out) instead of one inner call per lane. A park ticks no
        // counter, exactly like the thread-level `free`.
        let mut remaining = [DevicePtr::NULL; WARP_SIZE as usize];
        let mut evicted = 0u64;
        let mut any_remaining = false;
        for (lane, &p) in ptrs.iter().enumerate() {
            if p.is_null() {
                continue;
            }
            match self.classes.take(p.raw()) {
                Some(class) if shard.mags[class].push(p.raw()).is_ok() => {}
                Some(_) => {
                    evicted += 1;
                    remaining[lane] = p;
                    any_remaining = true;
                }
                None => {
                    remaining[lane] = p;
                    any_remaining = true;
                }
            }
        }
        self.metrics.add(warp.sm, Counter::MagazineFlushes, evicted);
        if !any_remaining {
            return Ok(());
        }
        if let Some(rec) = self.metrics.tracer() {
            rec.emit(warp.sm, EventKind::CacheFlush, [evicted, 0, 0, 1]);
        }
        self.inner.free_warp(warp, &remaining[..ptrs.len()])
    }

    fn drain(&self) -> u64 {
        // Published magazine contents first, then whatever the inner
        // manager itself might be holding back (a nested decorator).
        self.flush_all() + self.inner.drain()
    }
}

impl<A: DeviceAllocator> Drop for Cached<A> {
    fn drop(&mut self) {
        let _ = self.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Ordering as O;
    use crate::{DeviceHeap, ManagerInfo, RegisterFootprint};
    use std::sync::Arc;

    /// Bump allocator counting its calls, for decorator tests. It frees
    /// unless `supports_free` is cleared, and `m` can be a live metrics
    /// block, as the registry's managers have (whose calls `Counted` counts
    /// into it).
    struct CountingInner {
        heap: Arc<DeviceHeap>,
        top: AtomicU64,
        mallocs: AtomicU64,
        frees: AtomicU64,
        supports_free: bool,
        m: Metrics,
    }

    impl CountingInner {
        fn new(len: u64) -> Self {
            CountingInner {
                heap: Arc::new(DeviceHeap::new(len)),
                top: AtomicU64::new(0),
                mallocs: AtomicU64::new(0),
                frees: AtomicU64::new(0),
                supports_free: true,
                m: Metrics::disabled(),
            }
        }
    }

    impl DeviceAllocator for CountingInner {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("CountingInner").supports_free(self.supports_free).build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
            self.mallocs.fetch_add(1, O::Relaxed);
            let sz = crate::util::align_up(size.max(1), 16);
            let off = self.top.fetch_add(sz, O::Relaxed);
            if off + sz > self.heap.len() {
                return Err(AllocError::OutOfMemory(size));
            }
            Ok(DevicePtr::new(off))
        }
        fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
            if !self.supports_free {
                return Err(AllocError::Unsupported("free"));
            }
            self.frees.fetch_add(1, O::Relaxed);
            Ok(())
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 4, free: 2 }
        }
        fn metrics(&self) -> Metrics {
            self.m.clone()
        }
    }

    #[test]
    fn class_table_is_sorted_pow2_and_3x2k() {
        assert_eq!(CLASS_SIZES.len(), NUM_CLASSES);
        for w in CLASS_SIZES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &c in &CLASS_SIZES {
            let pow2 = c.is_power_of_two();
            let three_2k = c % 3 == 0 && (c / 3).is_power_of_two();
            assert!(pow2 || three_2k, "{c} is neither 2^k nor 3*2^k");
            assert!(c % MIN_CLASS == 0 || c == 24, "{c} breaks 16 B alignment steps");
        }
        assert_eq!(CLASS_SIZES[0], MIN_CLASS);
        assert_eq!(CLASS_SIZES[NUM_CLASSES - 1], MAX_CLASS);
    }

    #[test]
    fn class_of_picks_smallest_fit() {
        assert_eq!(class_of(0), Some(0));
        assert_eq!(class_of(16), Some(0));
        assert_eq!(class_of(17), Some(1));
        assert_eq!(class_of(24), Some(1));
        assert_eq!(class_of(25), Some(2));
        assert_eq!(class_of(4096), Some(NUM_CLASSES - 1));
        assert_eq!(class_of(4097), None);
        for s in 1..=MAX_CLASS {
            let c = class_of(s).unwrap();
            assert!(CLASS_SIZES[c] >= s);
            if c > 0 {
                assert!(CLASS_SIZES[c - 1] < s, "class for {s} not minimal");
            }
        }
    }

    #[test]
    fn class_of_closed_form_equals_the_table_scan() {
        for s in 0..=MAX_CLASS + 1 {
            let scan = CLASS_SIZES.iter().position(|&c| c >= s);
            assert_eq!(class_of(s), scan, "size {s}");
        }
        assert_eq!(class_of(u64::MAX), None);
    }

    #[test]
    fn magazine_lifo_push_pop() {
        let m = Magazine::new(4);
        assert_eq!(m.pop(), None);
        m.push(10).unwrap();
        m.push(20).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.pop(), Some(20));
        assert_eq!(m.pop(), Some(10));
        assert_eq!(m.pop(), None);
    }

    #[test]
    fn magazine_rejects_past_capacity() {
        let m = Magazine::new(2);
        m.push(1).unwrap();
        m.push(2).unwrap();
        assert_eq!(m.push(3), Err(()));
        assert_eq!(m.pop(), Some(2));
        m.push(3).unwrap();
    }

    #[test]
    fn magazine_handles_offset_zero() {
        let m = Magazine::new(2);
        m.push(0).unwrap();
        assert_eq!(m.pop(), Some(0));
    }

    #[test]
    fn class_map_keeps_offset_zero_and_adjacent_blocks_apart() {
        let m = ClassMap::new(64);
        m.grant(0, 3);
        m.grant(16, 5);
        assert_eq!(m.take(16), Some(5));
        assert_eq!(m.take(16), None, "second take of one grant must miss");
        assert_eq!(m.take(0), Some(3));
        assert_eq!(m.take(32), None, "never granted");
        // At and beyond the end: untracked, never out of bounds.
        m.grant(64, 1);
        assert_eq!(m.take(64), None);
        assert_eq!(m.take(u64::MAX), None);
    }

    #[test]
    fn adjacent_min_class_blocks_recover_their_own_class() {
        let c = Cached::new(CountingInner::new(1 << 20), 1);
        let ctx = ThreadCtx::host();
        let a = c.malloc(&ctx, 16).unwrap();
        let b = c.malloc(&ctx, 16).unwrap();
        let d = c.malloc(&ctx, 24).unwrap();
        assert_eq!((a.raw(), b.raw(), d.raw()), (0, 16, 32));
        for p in [a, b, d] {
            c.free(&ctx, p).unwrap();
        }
        assert_eq!(c.inner().frees.load(O::Relaxed), 0, "all three tracked and parked");
        assert_eq!(c.malloc(&ctx, 24).unwrap(), d, "the 24 B block parked in its own class");
        assert_eq!(c.malloc(&ctx, 16).unwrap(), b, "LIFO within the 16 B class");
        assert_eq!(c.malloc(&ctx, 16).unwrap(), a);
    }

    #[test]
    fn untracked_pointers_reach_inner_free() {
        let len = 1 << 20;
        let c = Cached::new(CountingInner::new(len), 1);
        let ctx = ThreadCtx::host();
        // Inside the map but never granted by this layer.
        c.free(&ctx, DevicePtr::new(4096)).unwrap();
        // At and beyond the map's end.
        c.free(&ctx, DevicePtr::new(len)).unwrap();
        c.free(&ctx, DevicePtr::new(len + 4096)).unwrap();
        assert_eq!(c.inner().frees.load(O::Relaxed), 3);
        assert_eq!(c.cached_blocks(), 0);
    }

    #[test]
    fn stale_hint_hides_no_block_from_count_or_flush() {
        let c = Cached::new(CountingInner::new(1 << 20), 1);
        let ctx = ThreadCtx::host();
        let ptrs: Vec<_> = (0..3).map(|_| c.malloc(&ctx, 64).unwrap()).collect();
        for &p in &ptrs {
            c.free(&ctx, p).unwrap();
        }
        let mag = &c.shards[0].mags[class_of(64).unwrap()];
        mag.hint.store(0, O::Relaxed); // deliberately stale: 3 blocks sit above it
        assert_eq!(mag.pop(), None, "a stale hint may cost a spurious empty");
        assert_eq!(c.cached_blocks(), 3, "counting scans the slots");
        // A push under the stale hint walks past the occupied slots.
        let extra = c.malloc(&ctx, 64).unwrap();
        c.free(&ctx, extra).unwrap();
        mag.hint.store(0, O::Relaxed);
        assert_eq!(c.flush_all(), 4, "draining scans the slots");
        assert_eq!(c.inner().frees.load(O::Relaxed), 4);
        assert_eq!(c.cached_blocks(), 0);
    }

    #[test]
    fn malloc_free_malloc_hits_magazine() {
        let c = Cached::new(CountingInner::new(1 << 20), 4);
        let ctx = ThreadCtx::host();
        let p = c.malloc(&ctx, 100).unwrap();
        assert_eq!(c.inner().mallocs.load(O::Relaxed), 1);
        c.free(&ctx, p).unwrap();
        // Parked, not freed through the inner allocator.
        assert_eq!(c.inner().frees.load(O::Relaxed), 0);
        assert_eq!(c.cached_blocks(), 1);
        // Same class (128 B) from the same SM: served from the magazine.
        let q = c.malloc(&ctx, 128).unwrap();
        assert_eq!(q, p, "repeat allocation must reuse the parked block");
        assert_eq!(c.inner().mallocs.load(O::Relaxed), 1, "no inner trip on a hit");
    }

    #[test]
    fn different_class_misses() {
        let c = Cached::new(CountingInner::new(1 << 20), 4);
        let ctx = ThreadCtx::host();
        let p = c.malloc(&ctx, 64).unwrap();
        c.free(&ctx, p).unwrap();
        let q = c.malloc(&ctx, 1024).unwrap();
        assert_ne!(q, p);
        assert_eq!(c.inner().mallocs.load(O::Relaxed), 2);
    }

    #[test]
    fn oversize_passes_through_unrounded() {
        let c = Cached::new(CountingInner::new(1 << 20), 4);
        let ctx = ThreadCtx::host();
        let p = c.malloc(&ctx, MAX_CLASS + 1).unwrap();
        c.free(&ctx, p).unwrap();
        assert_eq!(c.inner().frees.load(O::Relaxed), 1, "oversize free reaches inner");
        assert_eq!(c.cached_blocks(), 0);
    }

    #[test]
    fn magazine_overflow_evicts_to_inner() {
        let c = Cached::with_magazine_cap(CountingInner::new(1 << 20), 1, 2);
        let ctx = ThreadCtx::host();
        let ptrs: Vec<_> = (0..3).map(|_| c.malloc(&ctx, 32).unwrap()).collect();
        for p in ptrs {
            c.free(&ctx, p).unwrap();
        }
        assert_eq!(c.cached_blocks(), 2);
        assert_eq!(c.inner().frees.load(O::Relaxed), 1, "third free overflowed to inner");
        assert_eq!(c.metrics().snapshot().magazine_flushes(), 0, "relay: disabled handle");
    }

    #[test]
    fn flush_all_returns_parked_blocks_to_inner() {
        let c = Cached::new(CountingInner::new(1 << 20), 2);
        let ctx = ThreadCtx::host();
        let ptrs: Vec<_> = (0..5).map(|_| c.malloc(&ctx, 64).unwrap()).collect();
        for p in ptrs {
            c.free(&ctx, p).unwrap();
        }
        assert_eq!(c.cached_blocks(), 5);
        assert_eq!(c.flush_all(), 5);
        assert_eq!(c.cached_blocks(), 0);
        assert_eq!(c.inner().frees.load(O::Relaxed), 5, "every parked block reaches inner free");
    }

    #[test]
    fn drop_drains_magazines() {
        let inner = Arc::new(CountingInner::new(1 << 20));
        {
            let c = Cached::new(Arc::clone(&inner), 2);
            let ctx = ThreadCtx::host();
            let p = c.malloc(&ctx, 256).unwrap();
            c.free(&ctx, p).unwrap();
            assert_eq!(inner.frees.load(O::Relaxed), 0);
        }
        assert_eq!(inner.frees.load(O::Relaxed), 1, "drop must flush parked blocks");
    }

    #[test]
    fn warp_free_batches_unknown_pointers_to_inner() {
        let c = Cached::new(CountingInner::new(1 << 20), 2);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        // Pointers that never passed through the cache: one batched inner
        // publication, not a park.
        let ptrs = [DevicePtr::new(0), DevicePtr::new(64), DevicePtr::NULL];
        c.free_warp(&warp, &ptrs).unwrap();
        assert_eq!(c.inner().frees.load(O::Relaxed), 2);
        assert_eq!(c.cached_blocks(), 0);
    }

    #[test]
    fn warp_free_parks_known_pointers() {
        let c = Cached::new(CountingInner::new(1 << 20), 2);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        let ctx = warp.leader();
        let a = c.malloc(&ctx, 48).unwrap();
        let b = c.malloc(&ctx, 48).unwrap();
        c.free_warp(&warp, &[a, b]).unwrap();
        assert_eq!(c.inner().frees.load(O::Relaxed), 0, "both parked, no inner call");
        assert_eq!(c.cached_blocks(), 2);
    }

    #[test]
    fn warp_malloc_serves_full_warp_from_magazines() {
        let c = Cached::new(CountingInner::new(1 << 20), 2);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        let ctx = warp.leader();
        let a = c.malloc(&ctx, 32).unwrap();
        let b = c.malloc(&ctx, 32).unwrap();
        c.free_warp(&warp, &[a, b]).unwrap();
        let mallocs_before = c.inner().mallocs.load(O::Relaxed);
        let mut out = [DevicePtr::NULL; 2];
        c.malloc_warp(&warp, &[32, 32], &mut out).unwrap();
        assert!(!out[0].is_null() && !out[1].is_null());
        assert_eq!(c.inner().mallocs.load(O::Relaxed), mallocs_before, "all-hit warp");
    }

    #[test]
    fn warp_malloc_partial_rolls_back_and_delegates() {
        let c = Cached::new(CountingInner::new(1 << 20), 2);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        let ctx = warp.leader();
        let a = c.malloc(&ctx, 32).unwrap();
        c.free(&ctx, a).unwrap();
        assert_eq!(c.cached_blocks(), 1);
        let mut out = [DevicePtr::NULL; 2];
        // Two lanes, one parked block: the warp must delegate whole.
        c.malloc_warp(&warp, &[32, 32], &mut out).unwrap();
        assert!(!out[0].is_null() && !out[1].is_null());
        assert_eq!(c.cached_blocks(), 1, "popped block rolled back on partial hit");
    }

    #[test]
    fn no_free_inner_disables_caching() {
        let c =
            Cached::new(CountingInner { supports_free: false, ..CountingInner::new(1 << 20) }, 2);
        assert!(!c.is_caching());
        let ctx = ThreadCtx::host();
        let p = c.malloc(&ctx, 64).unwrap();
        assert_eq!(c.free(&ctx, p), Err(AllocError::Unsupported("free")));
        assert_eq!(c.cached_blocks(), 0);
    }

    #[test]
    fn magazine_counters_flow_into_shared_metrics() {
        let m = Metrics::enabled(4);
        let inner = CountingInner { m: m.clone(), ..CountingInner::new(1 << 20) };
        let c = Cached::new(crate::metrics::Counted::new(inner), 4);
        let ctx = ThreadCtx::host();
        let p = c.malloc(&ctx, 64).unwrap(); // miss
        c.free(&ctx, p).unwrap(); // park (no inner free call)
        let _ = c.malloc(&ctx, 64).unwrap(); // hit
        let s = m.snapshot();
        assert_eq!(s.magazine_misses(), 1);
        assert_eq!(s.magazine_hits(), 1);
        assert_eq!(s.magazine_flushes(), 0);
        assert_eq!(s.malloc_calls(), 1, "hit bypasses inner call accounting");
        assert_eq!(s.free_calls(), 0, "parked free never reached inner");
        // Inner view of the identity stays consistent: 1 call, 1 live.
        assert_eq!(s.live(), 1);
    }

    #[test]
    fn warp_parks_are_not_magazine_hits() {
        let m = Metrics::enabled(4);
        let c = Cached::new(CountingInner { m: m.clone(), ..CountingInner::new(1 << 20) }, 4);
        let warp = WarpCtx { warp: 0, block: 0, sm: 0 };
        let mut out = [DevicePtr::NULL; 2];
        c.malloc_warp(&warp, &[64, 64], &mut out).unwrap(); // two misses
        c.free_warp(&warp, &out).unwrap(); // two parks
        assert_eq!(c.cached_blocks(), 2);
        let s = m.snapshot();
        assert_eq!(s.magazine_hits(), 0, "a park serves no allocation");
        assert_eq!(s.magazine_misses(), 2);
        assert_eq!(s.magazine_flushes(), 0);
    }
}

#[cfg(all(test, loom))]
mod loom_tests {
    use super::{ClassMap, Magazine};
    use std::sync::Arc;

    /// What is left in `m`, by the slot scan `flush_all` uses.
    fn drained(m: &Magazine) -> Vec<u64> {
        let mut got = Vec::new();
        m.drain(|v| got.push(v));
        got
    }

    /// Two threads each pop, then push, so both pops and both pushes may
    /// meet on one slot: pops plus the final slot scan return every
    /// accepted push exactly once — none lost, none handed out twice.
    #[test]
    fn loom_magazine_conserves_blocks() {
        crate::sync::model(|| {
            let m = Arc::new(Magazine::new(2));
            m.push(1).unwrap();
            let a = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || (m.pop(), m.push(2).is_ok()))
            };
            let b = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || (m.pop(), m.push(3).is_ok()))
            };
            let (popped_a, pushed_a) = a.join().unwrap();
            let (popped_b, pushed_b) = b.join().unwrap();
            let mut all: Vec<u64> =
                popped_a.into_iter().chain(popped_b).chain(drained(&m)).collect();
            all.sort_unstable();
            let mut expect = vec![1u64];
            expect.extend(pushed_a.then_some(2));
            expect.extend(pushed_b.then_some(3));
            assert_eq!(all, expect, "multiset in == multiset out");
        });
    }

    /// A push racing a pop on a full one-slot magazine: the push either
    /// finds the slot vacated or reports full; the in-flight block is
    /// never overwritten.
    #[test]
    fn loom_magazine_push_pop_handoff() {
        crate::sync::model(|| {
            let m = Arc::new(Magazine::new(1));
            m.push(7).unwrap();
            let pusher = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || m.push(9).is_ok())
            };
            let popper = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || m.pop())
            };
            let pushed = pusher.join().unwrap();
            let popped = popper.join().unwrap();
            let mut all: Vec<u64> = popped.into_iter().chain(drained(&m)).collect();
            all.sort_unstable();
            let expect = if pushed { vec![7u64, 9] } else { vec![7u64] };
            assert_eq!(all, expect, "multiset in == multiset out");
        });
    }

    /// A flush racing a push and a pop. Flusher and popper may take from
    /// one slot (exactly one gets the block), and the flusher's closing
    /// hint write can land after the pusher's, leaving the hint below the
    /// block just parked: the next flush must still find it, because
    /// draining scans slots and ignores the hint.
    #[test]
    fn loom_magazine_flush_vs_push() {
        crate::sync::model(|| {
            let m = Arc::new(Magazine::new(2));
            m.push(1).unwrap();
            let pusher = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || m.push(2).is_ok())
            };
            let popper = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || m.pop())
            };
            let flusher = {
                let m = Arc::clone(&m);
                crate::sync::thread::spawn(move || drained(&m))
            };
            let pushed = pusher.join().unwrap();
            let mut all = flusher.join().unwrap();
            all.extend(popper.join().unwrap());
            all.extend(drained(&m));
            all.sort_unstable();
            let expect = if pushed { vec![1u64, 2] } else { vec![1u64] };
            assert_eq!(all, expect);
        });
    }

    /// Two frees of one cached grant race on its class-map cell: exactly
    /// one learns the class (and parks the block), the other sees an
    /// untracked pointer.
    #[test]
    fn loom_class_map_racing_free() {
        crate::sync::model(|| {
            let map = Arc::new(ClassMap::new(64));
            map.grant(16, 4);
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    let map = Arc::clone(&map);
                    crate::sync::thread::spawn(move || map.take(16))
                })
                .collect();
            let won: Vec<_> = racers.into_iter().filter_map(|h| h.join().unwrap()).collect();
            assert_eq!(won, [4], "exactly one racing free gets the class");
            assert_eq!(map.take(16), None);
        });
    }
}

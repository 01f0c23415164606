//! Shadow-heap allocation sanitizer (the survey's *stability* checker).
//!
//! The paper classifies managers by stability as much as by speed (§5:
//! Reg-Eff and XMalloc are "not entirely stable"), but return codes alone
//! cannot confirm that a manager's returned regions are actually disjoint,
//! in-bounds and never double-freed. [`Sanitized`] wraps any
//! [`DeviceAllocator`] and checks exactly that, from *outside* the
//! allocator, against a shadow copy of the allocation state:
//!
//! * a **sharded shadow interval map** — per-start-offset metadata of every
//!   live allocation, sharded by a hash of the start offset so concurrent
//!   simulated threads do not serialise on one lock;
//! * a **byte-occupancy bitmap** — one bit per heap byte, set with
//!   `fetch_or` when a region goes live. A malloc that returns bytes whose
//!   bits are already set has produced an **overlap** with another live
//!   allocation, detected without scanning the interval map;
//! * **canary redzones**: every request is inflated by 32 bytes, the tail
//!   is filled with a canary pattern through
//!   [`DeviceHeap`](crate::DeviceHeap), and verified on free — catching
//!   out-of-bounds writes by workload kernels;
//! * **poison-on-free**: the payload of a freed region is filled with a
//!   poison byte *before* the inner allocator can recycle it, so
//!   use-after-free reads surface as torn data in workload assertions.
//!
//! Violations are **collected, not panicked**: a simulated kernel thread
//! that panicked mid-launch would poison the executor's worker pool and
//! abort the whole benchmark sweep, whereas the survey's interest is
//! precisely in *how* an unstable manager misbehaves. Each violation is a
//! structured [`Violation`] (kind, thread/warp/SM coordinates, offsets)
//! recorded into a bounded sink and drained host-side via
//! [`Sanitized::take_report`].

use crate::sync::{AtomicU64, Ordering};
use std::collections::HashMap;
use std::sync::Mutex;

use crate::ctx::{ThreadCtx, WarpCtx};
use crate::error::AllocError;
use crate::info::ManagerInfo;
use crate::ptr::DevicePtr;
use crate::traits::DeviceAllocator;
use crate::util::mix64;

/// The violation taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ViolationKind {
    /// A malloc returned bytes that belong to another live allocation.
    Overlap = 0,
    /// A malloc returned a region not fully inside the managed heap.
    OutOfHeap = 1,
    /// A malloc returned a pointer violating the manager's declared
    /// alignment ([`ManagerInfo::alignment`]).
    Misaligned = 2,
    /// A free of a pointer that was already freed.
    DoubleFree = 3,
    /// A free of a pointer this manager never returned (or that the
    /// sanitizer never saw go live).
    UnknownFree = 4,
    /// The canary redzone behind an allocation was overwritten between
    /// malloc and free — an out-of-bounds write by the workload or by the
    /// manager's own metadata handling.
    RedzoneCorrupt = 5,
}

/// Number of [`ViolationKind`] values.
pub const VIOLATION_KINDS: usize = 6;

/// All kinds, in display order.
pub const ALL_VIOLATION_KINDS: [ViolationKind; VIOLATION_KINDS] = [
    ViolationKind::Overlap,
    ViolationKind::OutOfHeap,
    ViolationKind::Misaligned,
    ViolationKind::DoubleFree,
    ViolationKind::UnknownFree,
    ViolationKind::RedzoneCorrupt,
];

impl ViolationKind {
    /// Stable snake_case name, used for CSV headers and reports.
    pub const fn name(self) -> &'static str {
        match self {
            ViolationKind::Overlap => "overlap",
            ViolationKind::OutOfHeap => "out_of_heap",
            ViolationKind::Misaligned => "misaligned",
            ViolationKind::DoubleFree => "double_free",
            ViolationKind::UnknownFree => "unknown_free",
            ViolationKind::RedzoneCorrupt => "redzone_corrupt",
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded violation, with the SIMT coordinates of the offending call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// Global thread id of the call (`u32::MAX` for warp-collective frees).
    pub thread: u32,
    /// Warp id of the call.
    pub warp: u32,
    /// SM the call executed on.
    pub sm: u32,
    /// Raw pointer value involved (start offset, or `u64::MAX` for null).
    pub offset: u64,
    /// Requested size of the allocation involved (0 when unknown).
    pub size: u64,
    /// Conflicting byte offset, when one exists: the first overlapped byte
    /// for [`ViolationKind::Overlap`], the first corrupt canary byte for
    /// [`ViolationKind::RedzoneCorrupt`].
    pub conflict: Option<u64>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at offset {:#x} (size {}, thread {}, warp {}, sm {})",
            self.kind, self.offset, self.size, self.thread, self.warp, self.sm
        )?;
        if let Some(c) = self.conflict {
            write!(f, " conflicting byte {c:#x}")?;
        }
        Ok(())
    }
}

/// Canary bytes appended to every request.
const REDZONE: u64 = 32;
/// Fill byte of a freed payload.
const POISON_BYTE: u8 = 0xde;
/// Fill byte of the canary redzone.
const CANARY_BYTE: u8 = 0xc5;
/// [`Violation`] records kept; further violations are still counted (see
/// [`SanitizerReport::dropped`]) but not stored.
const MAX_RECORDED: usize = 1024;

/// Shadow metadata of one live allocation.
#[derive(Clone, Copy, Debug)]
struct LiveAlloc {
    /// Size the caller requested (without redzone).
    requested: u64,
    /// Size actually requested from the inner manager (with redzone).
    inflated: u64,
    /// Whether the region was in bounds and is tracked in the occupancy
    /// bitmap (out-of-heap returns are recorded but not bit-tracked).
    tracked: bool,
}

/// One shard of the shadow interval map.
#[derive(Default)]
struct Shard {
    /// Live allocations that start in this shard, keyed by start offset.
    live: HashMap<u64, LiveAlloc>,
    /// Start offsets freed at least once and not since reallocated — the
    /// evidence that separates a double-free from a free-of-unknown.
    freed: HashMap<u64, ()>,
}

/// Number of interval-map shards (power of two).
const SHARDS: usize = 64;

/// Byte-occupancy bitmap over the heap: one bit per byte, maintained with
/// relaxed RMW atomics so concurrent malloc/free paths never lock.
struct Occupancy {
    words: Box<[AtomicU64]>,
}

impl Occupancy {
    fn new(heap_len: u64) -> Self {
        let n_words = heap_len.div_ceil(64) as usize;
        Occupancy { words: (0..n_words).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Masks covering `[start, start+len)`, word by word.
    fn for_each_word(start: u64, len: u64, mut f: impl FnMut(usize, u64)) {
        let end = start + len;
        let mut byte = start;
        while byte < end {
            let word = (byte / 64) as usize;
            let lo = byte % 64;
            let hi = (end - byte + lo).min(64);
            let mask = if hi - lo == 64 { u64::MAX } else { ((1u64 << (hi - lo)) - 1) << lo };
            f(word, mask);
            byte += hi - lo;
        }
    }

    /// Marks a region live; returns the offset of the first byte that was
    /// already live (an overlap), if any.
    fn mark(&self, start: u64, len: u64) -> Option<u64> {
        let mut conflict = None;
        Self::for_each_word(start, len, |word, mask| {
            let prev = self.words[word].fetch_or(mask, Ordering::Relaxed);
            if conflict.is_none() && prev & mask != 0 {
                let bit = (prev & mask).trailing_zeros() as u64;
                conflict = Some(word as u64 * 64 + bit);
            }
        });
        conflict
    }

    /// Clears a region.
    fn unmark(&self, start: u64, len: u64) {
        Self::for_each_word(start, len, |word, mask| {
            self.words[word].fetch_and(!mask, Ordering::Relaxed);
        });
    }
}

/// The bounded violation sink plus per-kind totals.
struct Sink {
    counts: [AtomicU64; VIOLATION_KINDS],
    recorded: Mutex<Vec<Violation>>,
    dropped: AtomicU64,
}

/// Aggregated sanitizer findings, drained host-side.
#[derive(Clone, Debug, Default)]
pub struct SanitizerReport {
    /// Per-kind violation totals, indexed by `ViolationKind as usize`.
    pub counts: [u64; VIOLATION_KINDS],
    /// The recorded violation details (the first 1 024).
    pub recorded: Vec<Violation>,
    /// Violations counted but not recorded (sink was full).
    pub dropped: u64,
    /// Allocations still live in the shadow map when the report was taken.
    pub live: u64,
}

impl SanitizerReport {
    /// Total violations of one kind.
    pub fn by_kind(&self, kind: ViolationKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total violations across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether the run was violation-free.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

impl std::fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean ({} live)", self.live);
        }
        let mut first = true;
        for kind in ALL_VIOLATION_KINDS {
            let n = self.by_kind(kind);
            if n > 0 {
                if !first {
                    f.write_str(", ")?;
                }
                write!(f, "{kind}={n}")?;
                first = false;
            }
        }
        write!(f, " ({} live)", self.live)
    }
}

/// A [`DeviceAllocator`] wrapper that validates every malloc/free against a
/// shadow heap. See the [module docs](self) for the design.
///
/// `Sanitized` forwards every call to the wrapped manager (preserving its
/// warp-aggregation overrides on the malloc path) and never changes a
/// *successful* result: workloads observe the same pointers they would see
/// without the wrapper. The two exceptions, both deliberate: requests are
/// inflated by the redzone, and a free the shadow map proves
/// invalid (double-free / unknown pointer) is **not** forwarded — feeding a
/// provably bad pointer into an allocator under test could corrupt its
/// in-heap metadata and turn one detectable violation into a cascade.
/// Sharded warp-id → live-start-offsets map (see [`Sanitized::warp_live`]).
type WarpLiveShards = Box<[Mutex<HashMap<u32, Vec<u64>>>]>;

pub struct Sanitized<A: DeviceAllocator> {
    inner: A,
    info: ManagerInfo,
    shards: Box<[Mutex<Shard>]>,
    occupancy: Occupancy,
    /// Per-warp live starts, maintained only for warp-level-only managers
    /// (FDGMalloc) whose `free_warp_all` releases a whole warp's history.
    warp_live: Option<WarpLiveShards>,
    sink: Sink,
}

impl<A: DeviceAllocator> Sanitized<A> {
    /// Wraps `inner`: 32 B canary redzones, poison-on-free.
    pub fn new(inner: A) -> Self {
        let info = inner.info();
        let occupancy = Occupancy::new(inner.heap().len());
        let warp_live =
            info.warp_level_only.then(|| (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect());
        Sanitized {
            inner,
            info,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            occupancy,
            warp_live,
            sink: Sink {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                recorded: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            },
        }
    }

    /// The wrapped manager.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Allocations currently live in the shadow map.
    pub fn live_allocations(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().live.len() as u64).sum()
    }

    /// Total violations observed so far (cheap: atomics only).
    pub fn violation_count(&self) -> u64 {
        self.sink.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot of the findings without draining the recorded details.
    pub fn report(&self) -> SanitizerReport {
        SanitizerReport {
            counts: std::array::from_fn(|i| self.sink.counts[i].load(Ordering::Relaxed)),
            recorded: self.sink.recorded.lock().unwrap().clone(),
            dropped: self.sink.dropped.load(Ordering::Relaxed),
            live: self.live_allocations(),
        }
    }

    /// Drains the recorded violation details and returns the findings; the
    /// per-kind totals are left intact (they are cumulative).
    pub fn take_report(&self) -> SanitizerReport {
        SanitizerReport {
            counts: std::array::from_fn(|i| self.sink.counts[i].load(Ordering::Relaxed)),
            recorded: std::mem::take(&mut *self.sink.recorded.lock().unwrap()),
            dropped: self.sink.dropped.load(Ordering::Relaxed),
            live: self.live_allocations(),
        }
    }

    #[inline]
    fn shard_of(&self, start: u64) -> &Mutex<Shard> {
        &self.shards[(mix64(start) as usize) & (SHARDS - 1)]
    }

    fn record(&self, v: Violation) {
        self.sink.counts[v.kind as usize].fetch_add(1, Ordering::Relaxed);
        // Violations are rare by construction; fetching the metrics handle
        // per event is fine on this cold path.
        if let Some(rec) = self.inner.metrics().tracer() {
            rec.emit(
                v.sm,
                crate::trace::EventKind::SanitizerViolation,
                [v.kind as u64, v.offset, v.size, 0],
            );
        }
        let mut rec = self.sink.recorded.lock().unwrap();
        if rec.len() < MAX_RECORDED {
            rec.push(v);
        } else {
            self.sink.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Redzone bytes actually appended to a request of `size` (0 when the
    /// inflated size would overflow).
    #[inline]
    fn redzone_for(&self, size: u64) -> u64 {
        if size.checked_add(REDZONE).is_some() {
            REDZONE
        } else {
            0
        }
    }

    /// Validates and registers one granted allocation. `requested` is the
    /// caller's size; the inner manager granted `requested + redzone`.
    fn admit(&self, ctx: &ThreadCtx, ptr: DevicePtr, requested: u64, redzone: u64) {
        let start = ptr.raw();
        let inflated = requested + redzone;
        let heap_len = self.inner.heap().len();
        let in_bounds =
            !ptr.is_null() && start.checked_add(inflated).is_some_and(|end| end <= heap_len);
        let base = Violation {
            kind: ViolationKind::OutOfHeap,
            thread: ctx.thread_id,
            warp: ctx.warp,
            sm: ctx.sm,
            offset: start,
            size: requested,
            conflict: None,
        };
        if !in_bounds {
            self.record(base);
        }
        if !ptr.is_null() && !ptr.is_aligned(self.info.alignment) {
            self.record(Violation { kind: ViolationKind::Misaligned, ..base });
        }
        if in_bounds {
            if let Some(byte) = self.occupancy.mark(start, inflated.max(1)) {
                self.record(Violation {
                    kind: ViolationKind::Overlap,
                    conflict: Some(byte),
                    ..base
                });
            }
            if redzone > 0 {
                self.inner.heap().fill(ptr.add(requested), redzone, CANARY_BYTE);
            }
        }
        if ptr.is_null() {
            return;
        }
        let mut shard = self.shard_of(start).lock().unwrap();
        shard.freed.remove(&start);
        if shard.live.insert(start, LiveAlloc { requested, inflated, tracked: in_bounds }).is_some()
            && !in_bounds
        {
            // Exact duplicate grant while the first is still live. In-bounds
            // duplicates were already flagged by the occupancy bitmap; this
            // covers untracked out-of-heap twins the bitmap never sees.
            self.record(Violation { kind: ViolationKind::Overlap, conflict: Some(start), ..base });
        }
        drop(shard);
        if let Some(warp_live) = &self.warp_live {
            let mut map = warp_live[ctx.warp as usize & (SHARDS - 1)].lock().unwrap();
            map.entry(ctx.warp).or_default().push(start);
        }
    }

    /// Verifies the canary and poisons a claimed region; called with the
    /// allocation removed from the shadow map (exclusively owned).
    fn retire(&self, ctx: &ThreadCtx, ptr: DevicePtr, live: LiveAlloc) {
        let redzone = live.inflated - live.requested;
        if live.tracked && redzone > 0 {
            let mut buf = [0u8; 64];
            let mut checked = 0u64;
            while checked < redzone {
                let n = (redzone - checked).min(buf.len() as u64);
                self.inner
                    .heap()
                    .read_bytes(ptr.add(live.requested + checked), &mut buf[..n as usize]);
                if let Some(bad) = buf[..n as usize].iter().position(|&b| b != CANARY_BYTE) {
                    self.record(Violation {
                        kind: ViolationKind::RedzoneCorrupt,
                        thread: ctx.thread_id,
                        warp: ctx.warp,
                        sm: ctx.sm,
                        offset: ptr.raw(),
                        size: live.requested,
                        conflict: Some(ptr.raw() + live.requested + checked + bad as u64),
                    });
                    break;
                }
                checked += n;
            }
        }
        if live.tracked {
            self.inner.heap().fill(ptr, live.inflated.max(1), POISON_BYTE);
            self.occupancy.unmark(ptr.raw(), live.inflated.max(1));
        }
    }

    /// Undoes [`Sanitized::retire`] bookkeeping when the inner manager
    /// rejects a free the shadow map believed valid: the allocation is
    /// still live, so the shadow state must say so too.
    fn restore(&self, ptr: DevicePtr, live: LiveAlloc) {
        if live.tracked {
            self.occupancy.mark(ptr.raw(), live.inflated.max(1));
            let redzone = live.inflated - live.requested;
            if redzone > 0 {
                self.inner.heap().fill(ptr.add(live.requested), redzone, CANARY_BYTE);
            }
        }
        let mut shard = self.shard_of(ptr.raw()).lock().unwrap();
        shard.freed.remove(&ptr.raw());
        shard.live.insert(ptr.raw(), live);
    }

    /// Shadow-side free: claims the allocation, verifies, poisons, forwards
    /// to the inner manager, and restores the shadow state if the inner
    /// manager rejects the free after all.
    fn free_checked(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        let start = ptr.raw();
        let claimed = {
            let mut shard = self.shard_of(start).lock().unwrap();
            match shard.live.remove(&start) {
                Some(live) => {
                    shard.freed.insert(start, ());
                    Some(live)
                }
                None => None,
            }
        };
        let Some(live) = claimed else {
            let kind = if self.shard_of(start).lock().unwrap().freed.contains_key(&start) {
                ViolationKind::DoubleFree
            } else {
                ViolationKind::UnknownFree
            };
            self.record(Violation {
                kind,
                thread: ctx.thread_id,
                warp: ctx.warp,
                sm: ctx.sm,
                offset: start,
                size: 0,
                conflict: None,
            });
            return Err(AllocError::InvalidPointer);
        };
        self.retire(ctx, ptr, live);
        match self.inner.free(ctx, ptr) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.restore(ptr, live);
                Err(e)
            }
        }
    }
}

// `drain` forwards with no bookkeeping: a nested cache's drain pushes
// parked blocks through the inner `free`, below this wrapper, and the
// shadow map already untracked them when the caller freed.
impl<A: DeviceAllocator> crate::traits::Layer for Sanitized<A> {
    type Inner = A;

    fn inner(&self) -> &A {
        &self.inner
    }

    fn info(&self) -> ManagerInfo {
        self.info.clone()
    }

    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let redzone = self.redzone_for(size);
        // Cannot wrap: redzone_for returns 0 whenever size + redzone would
        // overflow.
        let ptr = self.inner.malloc(ctx, size + redzone)?;
        self.admit(ctx, ptr, size, redzone);
        Ok(ptr)
    }

    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        if !self.info.supports_free || ptr.is_null() {
            // Nothing to shadow-check: forward and let the inner manager's
            // contract speak (Atomic's Unsupported, null rejection).
            return self.inner.free(ctx, ptr);
        }
        self.free_checked(ctx, ptr)
    }

    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        debug_assert!(sizes.len() <= 32);
        let mut inflated = [0u64; 32];
        let mut redzones = [0u64; 32];
        for (i, &s) in sizes.iter().enumerate() {
            redzones[i] = self.redzone_for(s);
            inflated[i] = s + redzones[i];
        }
        self.inner.malloc_warp(warp, &inflated[..sizes.len()], out)?;
        for (lane, (&size, &slot)) in sizes.iter().zip(out.iter()).enumerate() {
            if !slot.is_null() {
                self.admit(&warp.lane(lane as u32), slot, size, redzones[lane]);
            }
        }
        Ok(())
    }

    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        // Lane-by-lane through the checked path, continuing past per-lane
        // failures (mirroring the default implementation's semantics).
        let mut first_err = None;
        for (lane, &ptr) in ptrs.iter().enumerate() {
            if ptr.is_null() {
                continue;
            }
            let ctx = warp.lane(lane as u32);
            if let Err(e) = crate::traits::Layer::free(self, &ctx, ptr) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn free_warp_all(&self, warp: &WarpCtx) -> Result<u64, AllocError> {
        if let Some(warp_live) = &self.warp_live {
            let starts = warp_live[warp.warp as usize & (SHARDS - 1)]
                .lock()
                .unwrap()
                .remove(&warp.warp)
                .unwrap_or_default();
            let ctx = warp.leader();
            for start in starts {
                let claimed = {
                    let mut shard = self.shard_of(start).lock().unwrap();
                    match shard.live.remove(&start) {
                        Some(live) => {
                            shard.freed.insert(start, ());
                            Some(live)
                        }
                        // Already released individually — not a violation:
                        // tidy-up legitimately sweeps what is left.
                        None => None,
                    }
                };
                if let Some(live) = claimed {
                    self.retire(&ctx, DevicePtr::new(start), live);
                }
            }
        }
        self.inner.free_warp_all(warp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicU64;
    use crate::util::align_up;
    use crate::{DeviceHeap, RegisterFootprint};
    use std::sync::Arc;

    /// Correct free-list allocator: bump plus LIFO recycling of exact sizes.
    struct GoodAlloc {
        heap: Arc<DeviceHeap>,
        top: AtomicU64,
        free_list: Mutex<Vec<(u64, u64)>>,
    }

    impl GoodAlloc {
        fn new(len: u64) -> Self {
            GoodAlloc {
                heap: Arc::new(DeviceHeap::new(len)),
                top: AtomicU64::new(0),
                free_list: Mutex::new(Vec::new()),
            }
        }
    }

    impl DeviceAllocator for GoodAlloc {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("Good").build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
            let sz = align_up(size.max(1), 16);
            if let Some(pos) = self.free_list.lock().unwrap().iter().position(|&(_, s)| s == sz) {
                let (off, _) = self.free_list.lock().unwrap().swap_remove(pos);
                return Ok(DevicePtr::new(off));
            }
            let off = self.top.fetch_add(sz, Ordering::Relaxed);
            if off + sz > self.heap.len() {
                return Err(AllocError::OutOfMemory(size));
            }
            Ok(DevicePtr::new(off))
        }
        fn free(&self, _ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
            if ptr.is_null() {
                return Err(AllocError::InvalidPointer);
            }
            // Sizes are recoverable only via the sanitizer's shadow in this
            // toy; record a 16-byte grain (good enough: tests free exact
            // sanitizer-inflated sizes through GoodAlloc's own ledger).
            self.free_list.lock().unwrap().push((ptr.offset(), 0));
            Ok(())
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 2, free: 2 }
        }
    }

    /// Broken allocator: hands the same region out twice every other call.
    struct DoubleGrant {
        heap: Arc<DeviceHeap>,
        calls: AtomicU64,
    }

    impl DoubleGrant {
        fn new() -> Self {
            DoubleGrant { heap: Arc::new(DeviceHeap::new(1 << 16)), calls: AtomicU64::new(0) }
        }
    }

    impl DeviceAllocator for DoubleGrant {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("DoubleGrant").build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, _ctx: &ThreadCtx, _size: u64) -> Result<DevicePtr, AllocError> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            // Calls 0 and 1 share offset 0; calls 2 and 3 share 4096, …
            Ok(DevicePtr::new((call / 2) * 4096))
        }
        fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
            Ok(())
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 1, free: 1 }
        }
    }

    fn ctx() -> ThreadCtx {
        ThreadCtx::host()
    }

    #[test]
    fn clean_workload_reports_clean() {
        let a = Sanitized::new(GoodAlloc::new(1 << 20));
        let mut ptrs = Vec::new();
        for i in 0..100u64 {
            ptrs.push(a.malloc(&ctx(), 16 + (i % 5) * 32).unwrap());
        }
        for p in ptrs {
            a.free(&ctx(), p).unwrap();
        }
        let rep = a.take_report();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.live, 0);
        assert_eq!(a.live_allocations(), 0);
    }

    #[test]
    fn overlap_detected_via_occupancy() {
        let a = Sanitized::new(DoubleGrant::new());
        let p1 = a.malloc(&ctx(), 64).unwrap();
        let p2 = a.malloc(&ctx(), 64).unwrap();
        assert_eq!(p1, p2, "the broken allocator really double-granted");
        let rep = a.report();
        assert_eq!(rep.by_kind(ViolationKind::Overlap), 1, "{rep}");
        assert_eq!(rep.recorded[0].kind, ViolationKind::Overlap);
        assert_eq!(rep.recorded[0].offset, 0);
        assert!(rep.recorded[0].conflict.is_some());
    }

    #[test]
    fn double_free_and_unknown_free_distinguished() {
        let a = Sanitized::new(GoodAlloc::new(1 << 20));
        let p = a.malloc(&ctx(), 64).unwrap();
        a.free(&ctx(), p).unwrap();
        assert_eq!(a.free(&ctx(), p), Err(AllocError::InvalidPointer));
        assert_eq!(
            a.free(&ctx(), DevicePtr::new(1 << 18)),
            Err(AllocError::InvalidPointer),
            "never-allocated pointer"
        );
        let rep = a.take_report();
        assert_eq!(rep.by_kind(ViolationKind::DoubleFree), 1, "{rep}");
        assert_eq!(rep.by_kind(ViolationKind::UnknownFree), 1, "{rep}");
    }

    #[test]
    fn redzone_corruption_detected_on_free() {
        let a = Sanitized::new(GoodAlloc::new(1 << 20));
        let p = a.malloc(&ctx(), 40).unwrap();
        // The workload writes one byte past its 40 requested bytes.
        a.heap().fill(p.add(40), 1, 0x77);
        let _ = a.free(&ctx(), p);
        let rep = a.take_report();
        assert_eq!(rep.by_kind(ViolationKind::RedzoneCorrupt), 1, "{rep}");
        assert_eq!(rep.recorded[0].conflict, Some(p.raw() + 40));
    }

    #[test]
    fn in_bounds_writes_do_not_trip_the_redzone() {
        let a = Sanitized::new(GoodAlloc::new(1 << 20));
        let p = a.malloc(&ctx(), 40).unwrap();
        a.heap().fill(p, 40, 0x77);
        a.free(&ctx(), p).unwrap();
        assert!(a.report().is_clean());
    }

    #[test]
    fn poison_on_free_fills_payload() {
        let a = Sanitized::new(GoodAlloc::new(1 << 20));
        let p = a.malloc(&ctx(), 64).unwrap();
        a.heap().fill(p, 64, 0x11);
        a.free(&ctx(), p).unwrap();
        assert_eq!(a.heap().read_u8(p, 0), 0xde);
        assert_eq!(a.heap().read_u8(p, 63), 0xde);
    }

    #[test]
    fn out_of_heap_and_misaligned_returns_recorded() {
        struct Wild {
            heap: Arc<DeviceHeap>,
        }
        impl DeviceAllocator for Wild {
            fn info(&self) -> ManagerInfo {
                ManagerInfo::builder("Wild").build()
            }
            fn heap(&self) -> &DeviceHeap {
                &self.heap
            }
            fn malloc(&self, _c: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
                // First an out-of-heap grant (aligned, so only one kind
                // trips), then an in-bounds misaligned one. `size` carries
                // the 32 B redzone.
                if size < 100 {
                    Ok(DevicePtr::new(self.heap.len()))
                } else {
                    Ok(DevicePtr::new(24)) // 24 % 16 == 8: misaligned
                }
            }
            fn free(&self, _c: &ThreadCtx, _p: DevicePtr) -> Result<(), AllocError> {
                Ok(())
            }
            fn register_footprint(&self) -> RegisterFootprint {
                RegisterFootprint { malloc: 1, free: 1 }
            }
        }
        let a = Sanitized::new(Wild { heap: Arc::new(DeviceHeap::new(1 << 16)) });
        let _ = a.malloc(&ctx(), 64).unwrap();
        let _ = a.malloc(&ctx(), 200).unwrap();
        let rep = a.report();
        assert_eq!(rep.by_kind(ViolationKind::OutOfHeap), 1, "{rep}");
        assert_eq!(rep.by_kind(ViolationKind::Misaligned), 1, "{rep}");
    }

    #[test]
    fn rejected_inner_free_restores_shadow_state() {
        struct NoFree {
            heap: Arc<DeviceHeap>,
            top: AtomicU64,
        }
        impl DeviceAllocator for NoFree {
            fn info(&self) -> ManagerInfo {
                ManagerInfo::builder("NoFree").build() // claims supports_free
            }
            fn heap(&self) -> &DeviceHeap {
                &self.heap
            }
            fn malloc(&self, _c: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
                Ok(DevicePtr::new(self.top.fetch_add(align_up(size, 16), Ordering::Relaxed)))
            }
            fn free(&self, _c: &ThreadCtx, _p: DevicePtr) -> Result<(), AllocError> {
                Err(AllocError::Contention("free rejected"))
            }
            fn register_footprint(&self) -> RegisterFootprint {
                RegisterFootprint { malloc: 1, free: 1 }
            }
        }
        let a = Sanitized::new(NoFree {
            heap: Arc::new(DeviceHeap::new(1 << 16)),
            top: AtomicU64::new(0),
        });
        let p = a.malloc(&ctx(), 64).unwrap();
        assert!(a.free(&ctx(), p).is_err());
        // The allocation is still live; a later free attempt is NOT a
        // double-free, and the canary survived the round trip.
        assert_eq!(a.live_allocations(), 1);
        assert!(a.free(&ctx(), p).is_err());
        let rep = a.report();
        assert_eq!(rep.by_kind(ViolationKind::DoubleFree), 0, "{rep}");
        assert_eq!(rep.by_kind(ViolationKind::RedzoneCorrupt), 0, "{rep}");
    }

    #[test]
    fn violation_sink_is_bounded() {
        let a = Sanitized::new(GoodAlloc::new(1 << 20));
        let n = MAX_RECORDED as u64 + 7;
        for i in 0..n {
            let _ = a.free(&ctx(), DevicePtr::new(1024 + i * 64));
        }
        let rep = a.take_report();
        assert_eq!(rep.by_kind(ViolationKind::UnknownFree), n);
        assert_eq!(rep.recorded.len(), MAX_RECORDED);
        assert_eq!(rep.dropped, 7);
    }

    #[test]
    fn occupancy_word_masks_cover_exact_ranges() {
        let occ = Occupancy::new(4096);
        assert_eq!(occ.mark(60, 8), None, "straddles a word boundary");
        assert_eq!(occ.mark(68, 4), None);
        assert!(occ.mark(64, 4).is_some(), "inside the straddle");
        occ.unmark(60, 8);
        occ.unmark(68, 4);
        assert_eq!(occ.mark(64, 1), None, "fully cleared");
    }

    #[test]
    fn report_display_formats() {
        let a = Sanitized::new(GoodAlloc::new(1 << 20));
        assert_eq!(a.report().to_string(), "clean (0 live)");
        let _ = a.free(&ctx(), DevicePtr::new(512));
        assert!(a.report().to_string().contains("unknown_free=1"));
    }

    #[test]
    fn display_of_violation_mentions_kind_and_offset() {
        let v = Violation {
            kind: ViolationKind::Overlap,
            thread: 7,
            warp: 0,
            sm: 1,
            offset: 0x40,
            size: 16,
            conflict: Some(0x44),
        };
        let s = v.to_string();
        assert!(s.contains("overlap") && s.contains("0x40") && s.contains("0x44"), "{s}");
    }
}

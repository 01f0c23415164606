//! Contention-observability counters (the survey's "why is it slow" layer).
//!
//! The paper explains the performance differences between managers through
//! their algorithmic structure — hash-probe chains in ScatterAlloc (§2.3),
//! FIFO spins in XMalloc (§2.2), queue dequeue retries in Ouroboros (§2.8),
//! free-list walks in Reg-Eff (§2.5) — but end-to-end wall-clock alone
//! cannot confirm those attributions. This module provides the event
//! counters that make them checkable:
//!
//! * [`Counter`] — the taxonomy: per-call accounting (`MallocCalls`,
//!   `FreeCalls`, failures) plus the contention counters `CasRetries`,
//!   `ProbeSteps`, `QueueSpins`, `ListHops`, `OomFallbacks`,
//!   `WarpCoalesced`.
//! * [`AllocCounters`] — a sharded, cache-line-padded block of relaxed
//!   atomics. Shards are indexed by the calling thread's SM id, so
//!   simulated SMs do not false-share counter cache lines; reads aggregate
//!   across shards.
//! * [`Metrics`] — the cheap, cloneable handle allocators embed. A disabled
//!   handle is a `None` and every record call is a single predictable
//!   branch, so benchmark timings stay honest when observability is off.
//! * [`CounterSnapshot`] — an aggregated point-in-time reading;
//!   [`CounterSnapshot::delta_since`] turns two readings, taken before and
//!   after a kernel, into that kernel's attribution.
//!
//! * [`Counted`] — the layer that keeps the four call-accounting counters
//!   for every manager by one rule; managers record only the contention
//!   counters they alone can see.
//!
//! Per-operation retry counts are not kept here: a `CasRetries` added
//! through a handle with a tracer is also handed to the traced operation in
//! flight, which stamps it on the operation's event.

use crate::ctx::{ThreadCtx, WarpCtx};
use crate::error::AllocError;
use crate::ptr::DevicePtr;
use crate::sync::{AtomicU64, Ordering};
use crate::traits::DeviceAllocator;
use std::sync::Arc;

/// Named event counters. The discriminant doubles as the slot index inside
/// one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `malloc` / `malloc_warp` lanes asked ([`Counted`]).
    MallocCalls = 0,
    /// Lanes that got no pointer ([`Counted`]).
    MallocFailures = 1,
    /// Pointers the caller freed ([`Counted`]).
    FreeCalls = 2,
    /// Lanes of a free call that returned an error ([`Counted`]).
    FreeFailures = 3,
    /// Failed `compare_exchange` attempts in hot loops (bit claims, count
    /// reservations, ring-buffer slots).
    CasRetries = 4,
    /// Steps taken by hash-probe or scan searches (ScatterAlloc page
    /// probing, Halloc bitmap hashing, CUDA-model validation walks).
    ProbeSteps = 5,
    /// Queue retry iterations: Ouroboros dequeue re-tries on stale entries,
    /// XMalloc FIFO slot spins.
    QueueSpins = 6,
    /// Linked-list / free-list hops (Reg-Eff circular walk, XMalloc
    /// superblock heap first-fit, CUDA-model class scans).
    ListHops = 7,
    /// Requests relayed to an embedded fallback allocator (the
    /// CUDA-Allocator sections inside Halloc / Ouroboros / FDGMalloc).
    OomFallbacks = 8,
    /// Lane requests served through a warp-aggregated fast path instead of
    /// an individual atomic (XMalloc / Halloc / FDGMalloc coalescing).
    WarpCoalesced = 9,
    /// Allocations served from a [`Cached`](crate::cache::Cached) per-SM
    /// magazine instead of the inner allocator's shared metadata.
    MagazineHits = 10,
    /// Cached-path allocations that fell through to the inner allocator
    /// (empty magazine, oversize, or caching disabled for the class).
    MagazineMisses = 11,
    /// Parked blocks evicted back to the inner allocator (magazine
    /// overflow or an explicit / drop-time drain).
    MagazineFlushes = 12,
}

/// Number of [`Counter`] slots.
pub const NUM_COUNTERS: usize = 13;

/// All counters in display order.
pub const ALL_COUNTERS: [Counter; NUM_COUNTERS] = [
    Counter::MallocCalls,
    Counter::MallocFailures,
    Counter::FreeCalls,
    Counter::FreeFailures,
    Counter::CasRetries,
    Counter::ProbeSteps,
    Counter::QueueSpins,
    Counter::ListHops,
    Counter::OomFallbacks,
    Counter::WarpCoalesced,
    Counter::MagazineHits,
    Counter::MagazineMisses,
    Counter::MagazineFlushes,
];

impl Counter {
    /// Stable snake_case name, used for CSV headers and reports.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::MallocCalls => "malloc_calls",
            Counter::MallocFailures => "malloc_failures",
            Counter::FreeCalls => "free_calls",
            Counter::FreeFailures => "free_failures",
            Counter::CasRetries => "cas_retries",
            Counter::ProbeSteps => "probe_steps",
            Counter::QueueSpins => "queue_spins",
            Counter::ListHops => "list_hops",
            Counter::OomFallbacks => "oom_fallbacks",
            Counter::WarpCoalesced => "warp_coalesced",
            Counter::MagazineHits => "magazine_hits",
            Counter::MagazineMisses => "magazine_misses",
            Counter::MagazineFlushes => "magazine_flushes",
        }
    }
}

/// One cache-line-padded counter shard. 128 B alignment covers the spatial
/// prefetcher pair-line granularity on current x86 parts.
#[repr(align(128))]
struct Shard {
    counters: [AtomicU64; NUM_COUNTERS],
}

impl Shard {
    fn new() -> Self {
        Shard { counters: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// The sharded counter block behind an enabled [`Metrics`] handle.
///
/// Writes go to the shard of the caller's SM (`sm & (shards − 1)`), reads
/// aggregate over all shards. All accesses are `Relaxed`: counters are
/// statistics, not synchronisation.
pub struct AllocCounters {
    shards: Box<[Shard]>,
}

impl AllocCounters {
    /// One shard per simulated SM, rounded up to a power of two so the
    /// hot-path shard selection is a mask, not a division.
    pub fn new(num_sms: u32) -> Self {
        let n = (num_sms.max(1) as usize).next_power_of_two();
        AllocCounters { shards: (0..n).map(|_| Shard::new()).collect() }
    }

    #[inline]
    fn shard(&self, sm: u32) -> &Shard {
        &self.shards[sm as usize & (self.shards.len() - 1)]
    }

    #[inline]
    fn add(&self, sm: u32, counter: Counter, n: u64) {
        self.shard(sm).counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Aggregates every shard into one reading.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut snap = CounterSnapshot::default();
        for shard in self.shards.iter() {
            for (i, c) in shard.counters.iter().enumerate() {
                snap.counters[i] += c.load(Ordering::Relaxed);
            }
        }
        snap
    }
}

/// The handle allocators embed: either disabled (`None`, free to clone and
/// nearly free to call) or an [`Arc`] of a shared [`AllocCounters`] block.
///
/// Cloning shares the underlying counters — a manager hands clones to its
/// embedded fallback allocator and helper structures, and [`Counted`] keeps
/// one, so every component reports into one block.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<AllocCounters>>,
    /// Attached trace recorder (see [`crate::trace`]). Checked only on
    /// paths that already found `inner` populated, so a disabled handle
    /// still costs one branch.
    tracer: Option<Arc<crate::trace::TraceRecorder>>,
}

impl Metrics {
    /// A handle that records nothing. This is the default state of every
    /// allocator; all record calls reduce to one branch on a `None`.
    pub fn disabled() -> Self {
        Metrics { inner: None, tracer: None }
    }

    /// A recording handle with one counter shard per simulated SM.
    pub fn enabled(num_sms: u32) -> Self {
        Metrics { inner: Some(Arc::new(AllocCounters::new(num_sms))), tracer: None }
    }

    /// True when this handle is the last owner of its counter block —
    /// every manager-side clone has been dropped, so the counters are
    /// frozen. The telemetry sink uses this to retire dead sources into a
    /// folded base snapshot instead of re-reading their shards forever.
    /// Trivially true for a disabled handle (there is nothing to read).
    pub fn is_sole_owner(&self) -> bool {
        self.inner.as_ref().is_none_or(|c| Arc::strong_count(c) == 1)
    }

    /// Attaches a trace recorder: `OomFallback` events and per-operation
    /// retry payloads recorded through this handle land in `rec`'s rings.
    /// Used by the manager builder's `.trace(..)` together with the
    /// [`Traced`](crate::trace::Traced) wrapper.
    pub fn with_tracer(mut self, rec: Arc<crate::trace::TraceRecorder>) -> Self {
        self.tracer = Some(rec);
        self
    }

    /// The attached trace recorder, if any.
    pub fn tracer(&self) -> Option<&Arc<crate::trace::TraceRecorder>> {
        self.tracer.as_ref()
    }

    /// Whether this handle records events.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to `counter` on the shard of `sm`. `n == 0` is a no-op
    /// (hot loops flush per-op tallies unconditionally; a zero tally must
    /// not cost an atomic).
    ///
    /// With a tracer attached, two counters also reach the trace: an
    /// `OomFallbacks` add is an `OomFallback` event, and a `CasRetries` add
    /// goes to the current thread's in-flight traced operation, so the
    /// `Traced` wrapper stamps its `MallocEnd`/`FreeEnd` event with the
    /// retries the inner call burned.
    #[inline]
    pub fn add(&self, sm: u32, counter: Counter, n: u64) {
        if let Some(c) = &self.inner {
            if n == 0 {
                return;
            }
            c.add(sm, counter, n);
            if let Some(rec) = &self.tracer {
                match counter {
                    Counter::OomFallbacks => {
                        rec.emit(sm, crate::trace::EventKind::OomFallback, [n, 0, 0, 0])
                    }
                    Counter::CasRetries => crate::trace::note_op_retries(n),
                    _ => {}
                }
            }
        }
    }

    /// Increments `counter` by one on the shard of `sm`.
    #[inline]
    pub fn tick(&self, sm: u32, counter: Counter) {
        self.add(sm, counter, 1);
    }

    /// Aggregated reading; all-zero for a disabled handle.
    pub fn snapshot(&self) -> CounterSnapshot {
        match &self.inner {
            Some(c) => c.snapshot(),
            None => CounterSnapshot::default(),
        }
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(c) => write!(f, "Metrics(enabled, {} shards)", c.shards.len()),
            None => f.write_str("Metrics(disabled)"),
        }
    }
}

/// Call accounting for a manager, by one rule for every manager: the
/// registry puts this layer innermost in each of its stacks (`Counted<M>`,
/// `Cached<Counted<M>>`, `Traced<Counted<M>>`, `Traced<Cached<Counted<M>>>`),
/// so it counts the calls that reach the manager, per caller lane:
///
/// * `malloc_calls` — lanes asked;
/// * `malloc_failures` — lanes that got no pointer, which is every lane of
///   a refused `malloc_warp`;
/// * `free_calls` — pointers the caller freed (the non-null lanes of a
///   `free_warp`) and the blocks a `free_warp_all` reports released; the
///   frees a manager issues itself, such as a refused warp's rollback,
///   count none;
/// * `free_failures` — the lanes of a free call that returned an error,
///   the rule `Traced`'s `FreeEnd.ok` uses.
///
/// An embedded fallback (the CUDA-Allocator section inside Halloc,
/// Ouroboros and FDGMalloc) is called by its manager, never through this
/// layer, so a relayed request is counted once. The handle is the inner
/// manager's own ([`DeviceAllocator::metrics`]); when it is disabled each
/// call costs one branch.
pub struct Counted<A> {
    inner: A,
    metrics: Metrics,
}

impl<A: DeviceAllocator> Counted<A> {
    /// Counts the calls that reach `inner` into `inner`'s metrics handle.
    pub fn new(inner: A) -> Self {
        Counted { metrics: inner.metrics(), inner }
    }

    /// Counts `lanes` lanes of one call, each of them failed when `failed`.
    #[inline]
    fn count(&self, sm: u32, calls: Counter, failures: Counter, lanes: u64, failed: bool) {
        if self.metrics.is_enabled() {
            self.metrics.add(sm, calls, lanes);
            if failed {
                self.metrics.add(sm, failures, lanes);
            }
        }
    }
}

impl<A: DeviceAllocator> crate::traits::Layer for Counted<A> {
    type Inner = A;

    fn inner(&self) -> &A {
        &self.inner
    }

    #[inline]
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let r = self.inner.malloc(ctx, size);
        self.count(ctx.sm, Counter::MallocCalls, Counter::MallocFailures, 1, r.is_err());
        r
    }

    #[inline]
    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        let r = self.inner.free(ctx, ptr);
        self.count(ctx.sm, Counter::FreeCalls, Counter::FreeFailures, 1, r.is_err());
        r
    }

    #[inline]
    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        let r = self.inner.malloc_warp(warp, sizes, out);
        let lanes = sizes.len() as u64;
        self.count(warp.sm, Counter::MallocCalls, Counter::MallocFailures, lanes, r.is_err());
        r
    }

    #[inline]
    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        let r = self.inner.free_warp(warp, ptrs);
        if self.metrics.is_enabled() {
            let lanes = ptrs.iter().filter(|p| !p.is_null()).count() as u64;
            self.count(warp.sm, Counter::FreeCalls, Counter::FreeFailures, lanes, r.is_err());
        }
        r
    }

    fn free_warp_all(&self, warp: &WarpCtx) -> Result<u64, AllocError> {
        let r = self.inner.free_warp_all(warp);
        if let Ok(&blocks) = r.as_ref() {
            self.count(warp.sm, Counter::FreeCalls, Counter::FreeFailures, blocks, false);
        }
        r
    }
}

/// A point-in-time aggregated reading of every counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    counters: [u64; NUM_COUNTERS],
}

impl CounterSnapshot {
    /// Reads one counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Allocation requests issued.
    pub fn malloc_calls(&self) -> u64 {
        self.get(Counter::MallocCalls)
    }

    /// Allocation requests that failed.
    pub fn malloc_failures(&self) -> u64 {
        self.get(Counter::MallocFailures)
    }

    /// Releases issued.
    pub fn free_calls(&self) -> u64 {
        self.get(Counter::FreeCalls)
    }

    /// Releases that failed.
    pub fn free_failures(&self) -> u64 {
        self.get(Counter::FreeFailures)
    }

    /// Failed CAS attempts.
    pub fn cas_retries(&self) -> u64 {
        self.get(Counter::CasRetries)
    }

    /// Probe/scan steps.
    pub fn probe_steps(&self) -> u64 {
        self.get(Counter::ProbeSteps)
    }

    /// Queue retry iterations.
    pub fn queue_spins(&self) -> u64 {
        self.get(Counter::QueueSpins)
    }

    /// Free-list hops.
    pub fn list_hops(&self) -> u64 {
        self.get(Counter::ListHops)
    }

    /// Relays to an embedded fallback allocator.
    pub fn oom_fallbacks(&self) -> u64 {
        self.get(Counter::OomFallbacks)
    }

    /// Lane requests served via warp aggregation.
    pub fn warp_coalesced(&self) -> u64 {
        self.get(Counter::WarpCoalesced)
    }

    /// Allocations served from a per-SM magazine.
    pub fn magazine_hits(&self) -> u64 {
        self.get(Counter::MagazineHits)
    }

    /// Cached-path allocations that fell through to the inner allocator.
    pub fn magazine_misses(&self) -> u64 {
        self.get(Counter::MagazineMisses)
    }

    /// Parked blocks evicted back to the inner allocator.
    pub fn magazine_flushes(&self) -> u64 {
        self.get(Counter::MagazineFlushes)
    }

    /// Successful allocations still unreleased at snapshot time, derived
    /// from the call accounting identity
    /// `malloc_calls == malloc_failures + free_calls - free_failures + live`.
    pub fn live(&self) -> u64 {
        let freed_ok = self.free_calls() - self.free_failures();
        self.malloc_calls().saturating_sub(self.malloc_failures()).saturating_sub(freed_ok)
    }

    /// Component-wise `self - earlier` (saturating): the events that
    /// happened between two readings.
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        for i in 0..NUM_COUNTERS {
            out.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        out
    }

    /// Component-wise `self + other` (saturating): combines the deltas of
    /// two disjoint observation windows (e.g. an alloc phase and a free
    /// phase) into one reading.
    pub fn merge(&self, other: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot::default();
        for i in 0..NUM_COUNTERS {
            out.counters[i] = self.counters[i].saturating_add(other.counters[i]);
        }
        out
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
    }

    /// True when no counter of `self` is below its value in `earlier` —
    /// the monotonicity law two snapshots of one handle must satisfy.
    pub fn dominates(&self, earlier: &CounterSnapshot) -> bool {
        self.counters.iter().zip(earlier.counters.iter()).all(|(a, b)| a >= b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.tick(0, Counter::CasRetries);
        m.add(3, Counter::ProbeSteps, 100);
        assert!(!m.is_enabled());
        assert!(m.snapshot().is_zero());
    }

    #[test]
    fn enabled_handle_aggregates_across_shards() {
        let m = Metrics::enabled(8);
        for sm in 0..16 {
            m.tick(sm, Counter::MallocCalls);
        }
        m.add(2, Counter::QueueSpins, 7);
        let s = m.snapshot();
        assert_eq!(s.malloc_calls(), 16);
        assert_eq!(s.queue_spins(), 7);
        assert_eq!(s.cas_retries(), 0);
    }

    #[test]
    fn clones_share_the_block() {
        let m = Metrics::enabled(4);
        let clone = m.clone();
        clone.tick(0, Counter::OomFallbacks);
        assert_eq!(m.snapshot().oom_fallbacks(), 1);
    }

    #[test]
    fn delta_and_monotonicity() {
        let m = Metrics::enabled(2);
        m.add(0, Counter::ListHops, 10);
        let a = m.snapshot();
        m.add(1, Counter::ListHops, 5);
        m.tick(0, Counter::MallocCalls);
        let b = m.snapshot();
        assert!(b.dominates(&a));
        let d = b.delta_since(&a);
        assert_eq!(d.list_hops(), 5);
        assert_eq!(d.malloc_calls(), 1);
        assert_eq!(d.queue_spins(), 0);
    }

    #[test]
    fn live_accounting_identity() {
        let m = Metrics::enabled(1);
        m.add(0, Counter::MallocCalls, 10);
        m.add(0, Counter::MallocFailures, 2);
        m.add(0, Counter::FreeCalls, 3);
        let s = m.snapshot();
        assert_eq!(s.live(), 5);
        assert_eq!(
            s.malloc_calls(),
            s.malloc_failures() + (s.free_calls() - s.free_failures()) + s.live()
        );
    }

    #[test]
    fn counter_names_are_snake_case() {
        for c in ALL_COUNTERS {
            assert!(c.name().chars().all(|ch| ch.is_ascii_lowercase() || ch == '_'));
        }
        assert_eq!(Counter::CasRetries.name(), "cas_retries");
    }

    #[test]
    fn a_shard_is_one_128_byte_line_pair() {
        assert_eq!(std::mem::size_of::<Shard>(), 128);
    }

    #[test]
    fn sharding_wraps_sm_ids() {
        let m = Metrics::enabled(2);
        m.tick(1000, Counter::FreeCalls); // sm far beyond shard count
        assert_eq!(m.snapshot().free_calls(), 1);
    }
}

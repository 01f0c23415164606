//! Event-tracing layer: per-SM ring-buffer trace recorder and its consumers.
//!
//! The [`Metrics`](crate::Metrics) counters (DESIGN.md §6) answer *how much*
//! contention a run saw; this module answers *when* and *where*. A
//! [`TraceRecorder`] collects a bounded stream of timestamped events —
//! allocation begin/end pairs with latency and CAS-retry payloads, frees,
//! OOM fallbacks, sanitizer violations, and warp/launch lifecycle markers
//! emitted by the executor — into fixed-capacity per-SM ring buffers. Three
//! consumers are derived from one recorded [`Trace`]:
//!
//! 1. [`OpLatencies`]: per-operation log2-bucketed latency histograms with
//!    p50/p95/p99 extraction ([`LatencyHistogram`]),
//! 2. [`occupancy_timeline`]: a heap-occupancy/fragmentation timeline that
//!    replays alloc/free events into live-byte counts and
//!    [`AddressRange`](crate::AddressRange) deltas over time,
//! 3. [`chrome_trace_json`]: a Chrome trace-event JSON exporter that loads
//!    directly in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`, with
//!    one track per SM, async spans for allocation lifetimes, and counter
//!    tracks for heap occupancy and CAS-retry rate.
//!
//! # Recording discipline
//!
//! The recorder follows the same zero-cost-when-disabled discipline as
//! `Metrics`: tracing is enabled by *attaching* a recorder to a `Metrics`
//! handle ([`Metrics::with_tracer`](crate::Metrics::with_tracer)) and
//! wrapping the allocator in [`Traced`]; an unattached handle costs the one
//! `Option` branch the counters already pay, and a default-built manager
//! records zero events.
//!
//! Each shard is a fixed-capacity array of 6-word slots. A writer claims a
//! slot with one `Relaxed` `fetch_add` on the shard's claim word — the only
//! read-modify-write a recorded event costs; a writer that finds the shard
//! full bumps a `dropped` counter instead and writes nothing, so memory
//! stays bounded and loss is observable (drop-newest). Slot words are plain
//! atomics written `Relaxed`; the meta word, carrying a nonzero tag, is
//! stored last with `Release` and is the slot's publication point: a reader
//! that `Acquire`-loads a nonzero tag sees the whole slot. Nothing
//! shard-wide says what is committed — commits land out of claim order, so
//! only the slot itself can say it is whole — and readers wait (bounded) on
//! the tag of a slot that is claimed but not yet published. All shards'
//! slots are one zeroed mapping (`backend.rs`'s `Map`, as the RAM heap is):
//! nothing is written to build it, and only the shards an SM owns are
//! committed up front.
//!
//! A slot holds one point event (`emit`/`emit_at`) or one *op record*:
//! [`Traced`] times a `malloc`/`free` with two clock reads and writes a
//! single record when the call returns, which decodes to the `MallocBegin` +
//! `MallocEnd` (or `FreeBegin` + `FreeEnd`) pair every consumer reads, with
//! `begin.ts_ns == end.ts_ns - latency`. [`TraceRecorder::recorded`] and
//! [`TraceRecorder::dropped`] stay in event units: an op record counts two.

use crate::backend::Map;
use crate::ctx::{ThreadCtx, WarpCtx};
use crate::error::AllocError;
use crate::frag::AddressRange;
use crate::ptr::DevicePtr;
use crate::sync::{AtomicU64, Ordering};
use crate::traits::DeviceAllocator;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default ring capacity per SM shard, in slots.
///
/// At 48 bytes per slot this bounds an 80-SM recorder to 30 MiB resident
/// (48 MiB of address space: 128 shards). A contention run of 10 000
/// threads writes 2 slots per thread (one op record each for its `malloc`
/// and its `free`, four events decoded) spread over the SMs the threads
/// land on, so the default holds a full default-scale run without drops.
pub const DEFAULT_EVENTS_PER_SM: usize = 8192;

/// Largest per-shard slot count the claim word can index: its low half
/// counts slots claimed, its high half the events they hold (two per op
/// record), so both stay below 2^32 with room for racing over-claims.
const MAX_EVENTS_PER_SM: usize = 1 << 30;

/// Number of log2 latency buckets — covers 1 ns ..= `u64::MAX` ns.
pub const LATENCY_BUCKETS: usize = 64;

/// What happened, encoded in the slot tag word. Payload word semantics are
/// listed per variant; unused words are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum EventKind {
    /// An allocation request entered the manager.
    /// `args = [requested_bytes, thread_id, 0, 0]` (warp-collective calls
    /// report the leader's thread id and the warp's total bytes). Decoded,
    /// with `ts_ns = end.ts_ns - latency_ns`, from the op record [`Traced`]
    /// writes when the call returns; that record keeps at most 16 MiB of a
    /// collective's bytes beyond its first lane's, larger totals saturate.
    MallocBegin = 0,
    /// An allocation request returned.
    /// `args = [ptr_raw (u64::MAX on failure), size_bytes, latency_ns,
    /// cas_retries]`. Warp-collective calls emit one `MallocEnd` per lane,
    /// each carrying the collective latency; retries are attributed to the
    /// first lane only so sums stay correct. An op record holds at most
    /// `u32::MAX` retries.
    MallocEnd = 1,
    /// A free request entered the manager.
    /// `args = [ptr_raw (u64::MAX for collective frees), thread_id,
    /// lane_count, 0]`. Decoded from the op record like `MallocBegin`; a
    /// `free_warp` that finds no live lane records nothing.
    FreeBegin = 2,
    /// A free request returned.
    /// `args = [ptr_raw, latency_ns, cas_retries, ok (1 = freed)]`.
    /// `ptr_raw == u64::MAX` marks a warp-collective bulk free
    /// (`free_warp_all`) whose individual pointers the manager never
    /// exposes.
    FreeEnd = 3,
    /// The manager fell back past its own heap (e.g. Halloc's CUDA
    /// fallback). `args = [count, 0, 0, 0]`.
    OomFallback = 4,
    /// The shadow-heap sanitizer recorded a violation.
    /// `args = [violation_kind, offset, size, 0]`.
    SanitizerViolation = 5,
    /// The executor handed a warp to a worker. `args = [warp_id, launch_id,
    /// 0, 0]`.
    WarpDispatched = 6,
    /// A warp finished its body. `args = [warp_id, launch_id, 0, 0]`.
    WarpRetired = 7,
    /// An observed launch started. `args = [launch_id, n_threads, n_warps,
    /// 0]`; recorded on shard 0.
    LaunchBegin = 8,
    /// An observed launch completed. `args = [launch_id, elapsed_ns, 0,
    /// 0]`; recorded on shard 0.
    LaunchEnd = 9,
    /// A [`Cached`](crate::cache::Cached) magazine served an allocation
    /// without touching the inner allocator.
    /// `args = [ptr_raw_or_lane_count, class_size, 0, warp (1 = collective)]`.
    CacheHit = 10,
    /// A `Cached` magazine evicted or drained parked blocks back to the
    /// inner allocator. `args = [count, class_size, 0, warp]`.
    CacheFlush = 11,
}

/// Number of event kinds.
pub const EVENT_KINDS: usize = 12;

/// All event kinds, in tag order.
pub const ALL_EVENT_KINDS: [EventKind; EVENT_KINDS] = [
    EventKind::MallocBegin,
    EventKind::MallocEnd,
    EventKind::FreeBegin,
    EventKind::FreeEnd,
    EventKind::OomFallback,
    EventKind::SanitizerViolation,
    EventKind::WarpDispatched,
    EventKind::WarpRetired,
    EventKind::LaunchBegin,
    EventKind::LaunchEnd,
    EventKind::CacheHit,
    EventKind::CacheFlush,
];

impl EventKind {
    /// Stable snake_case name (used in exports and reports).
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::MallocBegin => "malloc_begin",
            EventKind::MallocEnd => "malloc_end",
            EventKind::FreeBegin => "free_begin",
            EventKind::FreeEnd => "free_end",
            EventKind::OomFallback => "oom_fallback",
            EventKind::SanitizerViolation => "sanitizer_violation",
            EventKind::WarpDispatched => "warp_dispatched",
            EventKind::WarpRetired => "warp_retired",
            EventKind::LaunchBegin => "launch_begin",
            EventKind::LaunchEnd => "launch_end",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheFlush => "cache_flush",
        }
    }

    fn from_tag(tag: u32) -> Option<EventKind> {
        // Tag 0 is reserved for "slot not yet written" so a torn snapshot
        // can never mistake an unpublished slot for a real event; on-wire
        // tags are therefore discriminant + 1.
        match tag {
            1 => Some(EventKind::MallocBegin),
            2 => Some(EventKind::MallocEnd),
            3 => Some(EventKind::FreeBegin),
            4 => Some(EventKind::FreeEnd),
            5 => Some(EventKind::OomFallback),
            6 => Some(EventKind::SanitizerViolation),
            7 => Some(EventKind::WarpDispatched),
            8 => Some(EventKind::WarpRetired),
            9 => Some(EventKind::LaunchBegin),
            10 => Some(EventKind::LaunchEnd),
            11 => Some(EventKind::CacheHit),
            12 => Some(EventKind::CacheFlush),
            _ => None,
        }
    }

    const fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// One decoded trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch (its construction time).
    pub ts_ns: u64,
    /// Event kind; see [`EventKind`] for payload semantics.
    pub kind: EventKind,
    /// SM shard the event was recorded on.
    pub sm: u32,
    /// Kind-specific payload words.
    pub args: [u64; 4],
}

const SLOT_WORDS: usize = 6;

/// Slot tags past the event kinds: one *op record*, the Begin/End pair of a
/// timed operation in a single slot. Malloc payload: `[ptr, size, latency,
/// retries << 32 | thread_id]`, with the bytes the Begin reports beyond
/// `size` in the meta word's aux bits. Free payload: `[ptr, latency,
/// retries, ok << 63 | collective << 62 | lanes << 32 | thread_id]`.
const TAG_MALLOC_OP: u64 = EVENT_KINDS as u64 + 1;
const TAG_FREE_OP: u64 = EVENT_KINDS as u64 + 2;

/// Field widths: the meta word is `aux << 40 | tag << 32 | sm`, a collective
/// free's lane count has 30 bits.
const TAG_MASK: u64 = 0xff;
const AUX_MAX: u64 = (1 << 24) - 1;
const LANES_MAX: u64 = (1 << 30) - 1;
/// The claim word's low half (slots) and the unit of its high half (events);
/// a packed payload word's low half is the thread id.
const LOW_HALF: u64 = 0xffff_ffff;
const EVENT_UNIT: u64 = 1 << 32;

/// One fixed slot: `[ts, aux<<40|tag<<32|sm, a0, a1, a2, a3]`. All-zero
/// bytes are a slot nobody has published (tag 0), which is how the ring's
/// mapping arrives from the kernel.
struct Slot {
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    /// Appends the slot's event (or an op record's Begin/End pair) to `out`;
    /// `None` when the slot is not yet published.
    fn decode_into(&self, out: &mut Vec<TraceEvent>) -> Option<()> {
        // The meta word is the publication point: the writer stores it last
        // with Release, so once a valid tag is visible here, this Acquire
        // load synchronizes-with that store and every other word of the
        // slot is visible. An unpublished slot shows the reserved zero tag.
        let meta = self.words[1].load(Ordering::Acquire);
        let tag = (meta >> 32) & TAG_MASK;
        if tag == 0 {
            return None;
        }
        let (ts_ns, sm) = (self.words[0].load(Ordering::Relaxed), meta as u32);
        let args: [u64; 4] = std::array::from_fn(|i| self.words[i + 2].load(Ordering::Relaxed));
        let mut push = |ts_ns, kind, args| out.push(TraceEvent { ts_ns, kind, sm, args });
        match tag {
            TAG_MALLOC_OP => {
                let [ptr, size, latency, packed] = args;
                let requested = size.saturating_add(meta >> 40);
                let begin = [requested, packed & LOW_HALF, 0, 0];
                push(ts_ns.saturating_sub(latency), EventKind::MallocBegin, begin);
                push(ts_ns, EventKind::MallocEnd, [ptr, size, latency, packed >> 32]);
            }
            TAG_FREE_OP => {
                let [ptr, latency, retries, info] = args;
                let begin_ptr = if info >> 62 & 1 == 1 { u64::MAX } else { ptr };
                let begin = [begin_ptr, info & LOW_HALF, info >> 32 & LANES_MAX, 0];
                push(ts_ns.saturating_sub(latency), EventKind::FreeBegin, begin);
                push(ts_ns, EventKind::FreeEnd, [ptr, latency, retries, info >> 63]);
            }
            _ => push(ts_ns, EventKind::from_tag(tag as u32)?, args),
        }
        Some(())
    }
}

/// The cursors of one per-SM ring shard, on their own cache line so two
/// SMs' claim traffic does not false-share (same layout rationale as the
/// counter shards in `metrics`). The slots are the recorder's.
#[derive(Default)]
#[repr(align(128))]
struct TraceShard {
    /// The claim word. Low half: slots ever claimed (monotonic; exceeds
    /// capacity only by writers that raced for the last slot). High half:
    /// events held by the slots claimed within capacity.
    claimed: AtomicU64,
    /// Events discarded because the ring was full (drop-newest).
    dropped: AtomicU64,
}

impl TraceShard {
    /// Decodes the claimed ones of the shard's `slots` from `start` on into
    /// `out`, waiting (bounded, over the whole walk) on the tag of a slot a
    /// writer has claimed but not yet published. A slot that stays
    /// unpublished ends the walk when `stop_at_hole`, else it is skipped.
    /// Returns the index one past the last slot consumed.
    fn decode_from(
        &self,
        slots: &[Slot],
        start: usize,
        stop_at_hole: bool,
        out: &mut Vec<TraceEvent>,
    ) -> usize {
        let claims = (self.claimed.load(Ordering::Acquire) & LOW_HALF) as usize;
        let claims = claims.min(slots.len());
        // Loom explores each spin iteration as a branch; keep the bound
        // tight there and generous on real hardware.
        let mut spins: u32 = if cfg!(loom) { 100 } else { 1_000_000 };
        for (i, slot) in slots.iter().enumerate().take(claims).skip(start) {
            while slot.decode_into(out).is_none() {
                if spins == 0 {
                    if stop_at_hole {
                        return i;
                    }
                    break;
                }
                spins -= 1;
                crate::sync::hint::spin_loop();
            }
        }
        claims
    }
}

/// Lock-free, fixed-capacity, per-SM trace recorder.
///
/// Writers on any thread call [`TraceRecorder::emit`] (and [`Traced`] writes
/// one op record per operation); the cost per slot is one `Relaxed`
/// `fetch_add`, five `Relaxed` stores and one `Release` store. When a shard
/// fills, further events on it are counted in [`TraceRecorder::dropped`]
/// and discarded — memory stays bounded at `shards × events_per_sm × 48`
/// bytes of address space no matter how long the run, of which the shards of
/// the `num_sms` SMs are resident from construction; the shards the power of
/// two adds page in only if an out-of-range SM id folds onto them.
pub struct TraceRecorder {
    shards: Box<[TraceShard]>,
    /// Every shard's slots, shard after shard, in one zeroed mapping.
    ring: Map,
    /// Per-shard slot capacity.
    capacity: usize,
    /// [`clock_ns`] at construction.
    epoch_ns: u64,
    next_launch: AtomicU64,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("shards", &self.shards.len())
            .field("events_per_sm", &self.capacity)
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// The invariant time-stamp counter, read as a clock.
#[cfg(all(target_arch = "x86_64", not(miri), not(loom)))]
mod tsc {
    use std::arch::x86_64::{__cpuid, _rdtsc};
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    fn ticks() -> u64 {
        // SAFETY: RDTSC reads a counter into registers and touches no
        // memory; every x86_64 CPU implements it (the CPUID check below
        // decides only whether its rate makes it usable as a clock).
        unsafe { _rdtsc() }
    }

    /// An `Instant` and the tick count at the same moment: the tightest of
    /// a few bracketed reads, so a preemption between the two clocks cannot
    /// skew the ratio.
    fn paired_read() -> (Instant, u64) {
        let read = || {
            let (before, now, after) = (ticks(), Instant::now(), ticks());
            (after.wrapping_sub(before), now, before)
        };
        let (_, now, before) = (0..8).map(|_| read()).min_by_key(|r| r.0).expect("8 reads");
        (now, before)
    }

    /// Nanoseconds per tick in 32.32 fixed point, measured once per process
    /// against `Instant` over a window of at least 2 ms; `None` when the
    /// CPU does not advertise an invariant TSC (`CPUID.80000007H:EDX[8]`:
    /// constant rate across P-, C- and T-states).
    fn ns_per_tick() -> Option<u64> {
        static RATIO: OnceLock<Option<u64>> = OnceLock::new();
        *RATIO.get_or_init(|| {
            if __cpuid(0x8000_0000).eax < 0x8000_0007 || __cpuid(0x8000_0007).edx >> 8 & 1 == 0 {
                return None;
            }
            let (t0, c0) = paired_read();
            std::thread::sleep(Duration::from_millis(2));
            let (t1, c1) = paired_read();
            let (ns, ticks) = ((t1 - t0).as_nanos(), u128::from(c1.wrapping_sub(c0)));
            (ticks > 0).then(|| ((ns << 32) / ticks) as u64)
        })
    }

    /// Nanoseconds since the counter's zero, or `None` without the clock.
    #[inline]
    pub(super) fn now_ns() -> Option<u64> {
        ns_per_tick().map(|ratio| ((u128::from(ticks()) * u128::from(ratio)) >> 32) as u64)
    }
}

/// Nanoseconds on the process-wide trace clock (arbitrary origin): as a
/// kernel timing its own operations reads the SM cycle counter, the
/// invariant TSC where there is one, at under half the cost of `Instant`;
/// `Instant` on every other target, under miri and under loom. The only
/// function whose body forks on the target.
#[inline]
fn clock_ns() -> u64 {
    #[cfg(all(target_arch = "x86_64", not(miri), not(loom)))]
    if let Some(ns) = tsc::now_ns() {
        return ns;
    }
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl TraceRecorder {
    /// A recorder with one ring of `events_per_sm` slots per SM shard.
    /// The shard count is rounded up to a power of two (minimum 1) so SM ids
    /// beyond the configured count fold in with a mask, mirroring
    /// `AllocCounters`.
    ///
    /// # Panics
    ///
    /// When `events_per_sm` exceeds 2^30, the most the claim word indexes
    /// (a 48 GiB shard), or the ring is more than the host can map.
    pub fn new(num_sms: u32, events_per_sm: usize) -> Self {
        assert!(events_per_sm <= MAX_EVENTS_PER_SM, "events_per_sm {events_per_sm} exceeds 2^30");
        let sms = num_sms.max(1) as usize;
        let shards = sms.next_power_of_two();
        let capacity = events_per_sm.max(1);
        let shard_bytes = capacity * std::mem::size_of::<Slot>();
        let ring = shards
            .checked_mul(shard_bytes)
            .and_then(|bytes| Map::reserve(bytes, false))
            .unwrap_or_else(|| panic!("no room for {shards} trace shards of {capacity} slots"));
        ring.commit(0, (sms * shard_bytes) as u64).expect("trace ring of the SMs' shards commits");
        TraceRecorder {
            shards: (0..shards).map(|_| TraceShard::default()).collect(),
            ring,
            capacity,
            epoch_ns: clock_ns(),
            next_launch: AtomicU64::new(0),
        }
    }

    /// A recorder with [`DEFAULT_EVENTS_PER_SM`] slots per shard.
    pub fn with_default_capacity(num_sms: u32) -> Self {
        TraceRecorder::new(num_sms, DEFAULT_EVENTS_PER_SM)
    }

    /// Per-shard slot capacity.
    pub fn events_per_sm(&self) -> usize {
        self.capacity
    }

    /// The slots of shard `shard`.
    #[inline]
    fn slots(&self, shard: usize) -> &[Slot] {
        assert!(shard < self.shards.len());
        // SAFETY: the ring is `shards × capacity` slots of page-aligned,
        // zeroed memory that lives as long as `self`; a `Slot` is six
        // `AtomicU64`s (the layout of `u64`, `repr(transparent)` in the loom
        // shim too), for which every bit pattern is valid and shared
        // mutation is sound.
        unsafe {
            let first = (self.ring.base() as *const Slot).add(shard * self.capacity);
            std::slice::from_raw_parts(first, self.capacity)
        }
    }

    /// Nanoseconds elapsed since this recorder was constructed. All event
    /// timestamps share this epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        clock_ns().saturating_sub(self.epoch_ns)
    }

    /// Hands out monotonically increasing launch ids for
    /// [`EventKind::LaunchBegin`]/[`EventKind::LaunchEnd`] pairs.
    pub fn next_launch_id(&self) -> u64 {
        self.next_launch.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an event timestamped now.
    #[inline]
    pub fn emit(&self, sm: u32, kind: EventKind, args: [u64; 4]) {
        self.emit_at(self.now_ns(), sm, kind, args);
    }

    /// Records an event with an explicit timestamp (callers that time an
    /// operation themselves pass the operation's start or end instant).
    pub fn emit_at(&self, ts_ns: u64, sm: u32, kind: EventKind, args: [u64; 4]) {
        self.record(ts_ns, sm, kind.tag(), args);
    }

    /// One traced allocation that returned `end` (`MallocEnd`'s args) at
    /// `t1`, having asked for `requested` bytes, as a single op record.
    fn emit_malloc(&self, t1: u64, sm: u32, thread_id: u32, requested: u64, end: [u64; 4]) {
        let [ptr, size, latency, retries] = end;
        let aux = requested.saturating_sub(size).min(AUX_MAX);
        let packed = retries.min(u64::from(u32::MAX)) << 32 | u64::from(thread_id);
        self.record(t1, sm, TAG_MALLOC_OP | aux << 8, [ptr, size, latency, packed]);
    }

    /// One traced free that returned `end` (`FreeEnd`'s args) at `t1`, as a
    /// single op record; `lanes` is the live lane count of a collective
    /// free, `None` for a thread's own.
    fn emit_free(&self, t1: u64, sm: u32, thread_id: u32, lanes: Option<u64>, end: [u64; 4]) {
        let [ptr, latency, retries, ok] = end;
        let (collective, lanes) = lanes.map_or((0, 1), |n| (1, n.min(LANES_MAX)));
        let info = ok << 63 | collective << 62 | lanes << 32 | u64::from(thread_id);
        self.record(t1, sm, TAG_FREE_OP, [ptr, latency, retries, info]);
    }

    /// Writes one slot; `meta_hi` is the tag with any aux bits above it.
    fn record(&self, ts_ns: u64, sm: u32, meta_hi: u64, args: [u64; 4]) {
        let shard_idx = sm as usize & (self.shards.len() - 1);
        let shard = &self.shards[shard_idx];
        let events = if meta_hi & TAG_MASK > EVENT_KINDS as u64 { 2 } else { 1 };
        // A full ring costs one read-modify-write, and the claim word stops
        // growing once every writer has seen it full.
        if shard.claimed.load(Ordering::Relaxed) & LOW_HALF >= self.capacity as u64 {
            shard.dropped.fetch_add(events, Ordering::Relaxed);
            return;
        }
        let claim = shard.claimed.fetch_add(1 + events * EVENT_UNIT, Ordering::Relaxed);
        let idx = claim & LOW_HALF;
        if idx >= self.capacity as u64 {
            // Lost the race for the last slot: hand the events back.
            shard.claimed.fetch_sub(events * EVENT_UNIT, Ordering::Relaxed);
            shard.dropped.fetch_add(events, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots(shard_idx)[idx as usize];
        // The claim above made `idx` exclusively ours, so these Relaxed
        // stores race with nothing. The meta word (timestamp-independent
        // nonzero tag) is stored last with Release: it is the slot's own
        // publication point, so a reader that sees the tag sees the whole
        // slot. Commits on neighboring slots land in any order, hence
        // per-slot.
        slot.words[0].store(ts_ns, Ordering::Relaxed);
        slot.words[2].store(args[0], Ordering::Relaxed);
        slot.words[3].store(args[1], Ordering::Relaxed);
        slot.words[4].store(args[2], Ordering::Relaxed);
        slot.words[5].store(args[3], Ordering::Relaxed);
        slot.words[1].store(meta_hi << 32 | u64::from(sm), Ordering::Release);
    }

    /// Total events held by claimed slots across all shards (an op record
    /// counts two): the length of [`TraceRecorder::snapshot`] at a quiescent
    /// point, mid-flight including slots whose writer has yet to publish.
    pub fn recorded(&self) -> u64 {
        self.shards.iter().map(|s| s.claimed.load(Ordering::Relaxed) >> 32).sum()
    }

    /// Total events discarded because their shard was full.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped.load(Ordering::Relaxed)).sum()
    }

    /// Decodes every published event into a time-sorted [`Trace`].
    ///
    /// Meant for quiescent points (after the traced launches return). If a
    /// writer is caught between claim and publication the snapshot spins
    /// briefly on that slot's tag, then reads what is published; a
    /// still-unwritten slot shows the reserved zero tag and is skipped
    /// rather than misread.
    pub fn snapshot(&self) -> Trace {
        let mut events = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.decode_from(self.slots(i), 0, false, &mut events);
        }
        self.sorted_trace(events)
    }

    /// Incrementally decodes events published since the last call with the
    /// same cursor vector, returning each event exactly once across calls.
    ///
    /// The rings are drop-newest — a claimed slot is never recycled — so a
    /// per-shard slot index over the published prefix is an exact cursor,
    /// not a heuristic. Each call consumes the *contiguous* published
    /// prefix: a slot still between claim and publication stops this
    /// shard's walk (after the same bounded spin [`TraceRecorder::snapshot`]
    /// uses) and is picked up by the next call instead of being skipped or
    /// re-read. Both events of an op record arrive in the same call.
    ///
    /// This is the telemetry sampler's drain path: at kHz cadences a full
    /// [`TraceRecorder::snapshot`] per window re-decodes the entire ring
    /// (`capacity × num_sms` slots) every time, which is what dominated
    /// the sampler's measured overhead before this path existed.
    pub fn snapshot_since(&self, cursors: &mut Vec<u64>) -> Trace {
        cursors.resize(self.shards.len(), 0);
        let mut events = Vec::new();
        for (i, (shard, cursor)) in self.shards.iter().zip(cursors.iter_mut()).enumerate() {
            *cursor = shard.decode_from(self.slots(i), *cursor as usize, true, &mut events) as u64;
        }
        self.sorted_trace(events)
    }

    fn sorted_trace(&self, mut events: Vec<TraceEvent>) -> Trace {
        events.sort_by_key(|e| (e.ts_ns, e.sm));
        Trace { events, dropped: self.dropped(), events_per_sm: self.capacity }
    }
}

// Per-thread retry scope bridging `Metrics::record_retries` (called from
// inside the managers, which know nothing about tracing) to the `Traced`
// wrapper timing the enclosing operation on the same thread. Kernel bodies
// run entirely on one worker thread, so begin/accumulate/end never cross
// threads.
//
// The cell holds the innermost open operation's count, `None` outside any.
// Decorators nest — in `Traced<Cached<Traced<A>>>` the outer wrapper's
// operation encloses the inner wrapper's — so each `Traced` entry point
// swaps in a fresh count before calling inward, keeps the enclosing one in
// its own frame and puts it back when the call returns: retries noted by a
// layer land in the operation of the layer that caused them, neither
// double-counted by the outer record nor stolen from it. Nothing is
// allocated: a worker's first traced operation runs inside the kernel.
thread_local! {
    static OP_RETRIES: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Adds `n` CAS retries to the innermost in-flight traced operation on this
/// thread. Called by `Metrics::record_retries` when a tracer is attached;
/// a no-op when no traced operation is open (nothing to attribute to).
#[inline]
pub(crate) fn note_op_retries(n: u64) {
    OP_RETRIES.with(|c| c.set(c.get().map(|open| open.saturating_add(n))));
}

/// Opens a retry scope for one traced operation, returning the enclosing
/// scope for [`end_op_scope`] to restore.
fn begin_op_scope() -> Option<u64> {
    OP_RETRIES.replace(Some(0))
}

/// Closes the innermost scope and reopens `enclosing`, returning the retries
/// noted while it was open (excluding those captured by deeper scopes).
fn end_op_scope(enclosing: Option<u64>) -> u64 {
    OP_RETRIES.replace(enclosing).unwrap_or(0)
}

/// [`DeviceAllocator`] wrapper that records `MallocBegin/End` and
/// `FreeBegin/End` events (with latency and CAS-retry payloads) around every
/// entry point of the wrapped manager: two clock reads and one op record
/// per call, plus one `MallocEnd`/`FreeEnd` for every further lane of a
/// collective call (the occupancy replay needs every pointer).
///
/// Mirrors the `Sanitized` wrapper: apply it at construction time (the
/// builder's `.trace(true)` does this) and every manager gets tracing
/// without per-crate changes. The wrapped manager's `Metrics` handle must
/// carry the same recorder (`Metrics::with_tracer`) for retry payloads and
/// `OomFallback` events to land in the same trace.
pub struct Traced<A> {
    inner: A,
    rec: Arc<TraceRecorder>,
}

impl<A: DeviceAllocator> Traced<A> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: A, rec: Arc<TraceRecorder>) -> Self {
        Traced { inner, rec }
    }

    /// The recorder events land in.
    pub fn recorder(&self) -> &Arc<TraceRecorder> {
        &self.rec
    }

    /// Unwraps the inner manager.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// Runs `op` in a fresh retry scope between two clock reads. Returns its
    /// result, the end timestamp, the latency — clamped to 1 ns: the
    /// operation took nonzero time even when the clock's granularity says
    /// otherwise — and the retries noted meanwhile.
    #[inline]
    fn timed<R>(&self, op: impl FnOnce() -> R) -> (R, u64, u64, u64) {
        let t0 = self.rec.now_ns();
        let enclosing = begin_op_scope();
        let r = op();
        let retries = end_op_scope(enclosing);
        let t1 = self.rec.now_ns();
        (r, t1, t1.saturating_sub(t0).max(1), retries)
    }
}

// `drain` forwards without events of its own: the inner drain's frees are
// magazine publications, not caller-visible free calls, so this layer has
// no begin/end pair to record.
impl<A: DeviceAllocator> crate::traits::Layer for Traced<A> {
    type Inner = A;

    fn inner(&self) -> &A {
        &self.inner
    }

    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let (r, t1, latency, retries) = self.timed(|| self.inner.malloc(ctx, size));
        let ptr = r.as_ref().map_or(u64::MAX, |p| p.raw());
        self.rec.emit_malloc(t1, ctx.sm, ctx.thread_id, size, [ptr, size, latency, retries]);
        r
    }

    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        let (r, t1, latency, retries) = self.timed(|| self.inner.free(ctx, ptr));
        let end = [ptr.raw(), latency, retries, r.is_ok() as u64];
        self.rec.emit_free(t1, ctx.sm, ctx.thread_id, None, end);
        r
    }

    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        let total: u64 = sizes.iter().sum();
        let leader = warp.leader().thread_id;
        let (r, t1, latency, retries) = self.timed(|| self.inner.malloc_warp(warp, sizes, out));
        match &r {
            Ok(()) => {
                // The first lane's record carries the collective's Begin
                // (leader, total bytes) and all its retries.
                let mut lanes = sizes.iter().zip(out.iter());
                if let Some((&size, ptr)) = lanes.next() {
                    let end = [ptr.raw(), size, latency, retries];
                    self.rec.emit_malloc(t1, warp.sm, leader, total, end);
                }
                for (&size, ptr) in lanes {
                    let end = [ptr.raw(), size, latency, 0];
                    self.rec.emit_at(t1, warp.sm, EventKind::MallocEnd, end);
                }
            }
            Err(_) => {
                let end = [u64::MAX, total, latency, retries];
                self.rec.emit_malloc(t1, warp.sm, leader, total, end);
            }
        }
        r
    }

    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        let leader = warp.leader().thread_id;
        let (r, t1, latency, retries) = self.timed(|| self.inner.free_warp(warp, ptrs));
        // `ok` reflects the collective result: `free_warp` reports only the
        // first error, so on Err the occupancy replay conservatively keeps
        // all lanes live.
        let ok = r.is_ok() as u64;
        let mut live = ptrs.iter().filter(|p| !p.is_null());
        let lanes = live.clone().count() as u64;
        // As in `malloc_warp`, the first live lane's record carries the
        // collective's Begin and its retries.
        if let Some(ptr) = live.next() {
            let end = [ptr.raw(), latency, retries, ok];
            self.rec.emit_free(t1, warp.sm, leader, Some(lanes), end);
        }
        for ptr in live {
            self.rec.emit_at(t1, warp.sm, EventKind::FreeEnd, [ptr.raw(), latency, 0, ok]);
        }
        r
    }

    fn free_warp_all(&self, warp: &WarpCtx) -> Result<(), AllocError> {
        let leader = warp.leader().thread_id;
        let (r, t1, latency, retries) = self.timed(|| self.inner.free_warp_all(warp));
        // Bulk free: the individual pointers are the manager's private
        // state, so the event carries the null sentinel and the occupancy
        // replay leaves these allocations in place (documented limitation
        // for FDGMalloc-style tidy-up).
        let end = [u64::MAX, latency, retries, r.is_ok() as u64];
        self.rec.emit_free(t1, warp.sm, leader, Some(0), end);
        r
    }
}

/// A decoded, time-sorted snapshot of a recorder's contents.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Committed events, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events discarded because a shard was full.
    pub dropped: u64,
    /// The recorder's per-shard capacity (for drop-rate context).
    pub events_per_sm: usize,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Wall-clock span covered, first event to last, in nanoseconds.
    pub fn span_ns(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.ts_ns - a.ts_ns,
            _ => 0,
        }
    }
}

/// Log2-bucketed latency histogram with percentile extraction.
///
/// Bucket `k` holds samples whose nanosecond latency has its highest set
/// bit at position `k`, i.e. the range `[2^k, 2^(k+1))` (bucket 0 also
/// holds 0 ns, which the recording path clamps away). Percentiles report
/// the *upper bound* of the bucket the requested rank falls in, capped at
/// the exact observed maximum — pessimistic by at most 2×, never zero for a
/// non-empty histogram.
#[derive(Clone, Copy)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; LATENCY_BUCKETS], count: 0, sum_ns: 0, max_ns: 0 }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean_ns", &self.mean_ns())
            .field("p50_ns", &self.p50())
            .field("p95_ns", &self.p95())
            .field("p99_ns", &self.p99())
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        let bucket = if ns == 0 { 0 } else { 63 - ns.leading_zeros() as usize };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Arithmetic mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Latency at percentile `p` (0 < p <= 100), as the upper bound of the
    /// bucket containing that rank, capped at the observed maximum. Returns
    /// 0 only for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let upper = if k >= 63 { u64::MAX } else { (1u64 << (k + 1)) - 1 };
                return upper.min(self.max_ns).max(1);
            }
        }
        self.max_ns.max(1)
    }

    /// Median latency (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile latency (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile latency (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Per-operation latency histograms extracted from a trace.
#[derive(Clone, Debug, Default)]
pub struct OpLatencies {
    /// Latency of `malloc`/`malloc_warp` operations (per lane for
    /// collective calls).
    pub malloc: LatencyHistogram,
    /// Latency of `free`/`free_warp`/`free_warp_all` operations.
    pub free: LatencyHistogram,
}

impl OpLatencies {
    /// Builds the histograms from every `MallocEnd`/`FreeEnd` event in the
    /// trace (failed mallocs included — a refusal takes time too).
    pub fn from_trace(trace: &Trace) -> Self {
        let mut out = OpLatencies::default();
        for e in &trace.events {
            match e.kind {
                EventKind::MallocEnd => out.malloc.record(e.args[2]),
                EventKind::FreeEnd => out.free.record(e.args[1]),
                _ => {}
            }
        }
        out
    }
}

/// One point of the heap-occupancy timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OccupancySample {
    /// Timestamp of the alloc/free event that produced this sample.
    pub ts_ns: u64,
    /// Bytes live (allocated, not yet freed) at this instant.
    pub live_bytes: u64,
    /// Allocations live at this instant.
    pub live_allocs: u64,
    /// Span of the cumulative touched address range, in bytes
    /// ([`AddressRange::range`]): how far apart the manager has scattered
    /// its placements so far.
    pub range_span: u64,
}

/// The heap-occupancy/fragmentation timeline replayed from a trace.
#[derive(Clone, Debug, Default)]
pub struct OccupancyTimeline {
    /// Samples in time order, decimated to the requested maximum.
    pub samples: Vec<OccupancySample>,
    /// Peak live bytes over the run.
    pub peak_live_bytes: u64,
    /// Peak live allocation count over the run.
    pub peak_live_allocs: u64,
    /// Cumulative address range touched by all successful allocations.
    pub address_range: AddressRange,
    /// `FreeEnd` events whose pointer the replay never saw allocated
    /// (collective bulk frees, or `MallocEnd` events lost to ring drops).
    pub unmatched_frees: u64,
}

/// Replays the trace's alloc/free events into a heap-occupancy timeline:
/// live bytes, live allocation count and the cumulative
/// [`AddressRange`](crate::AddressRange) after every event, decimated to at
/// most `max_samples` points (the final state is always kept).
pub fn occupancy_timeline(trace: &Trace, max_samples: usize) -> OccupancyTimeline {
    let mut live: HashMap<u64, u64> = HashMap::new();
    let mut range = AddressRange::new();
    let mut out = OccupancyTimeline::default();
    let mut live_bytes = 0u64;
    let mut raw: Vec<OccupancySample> = Vec::new();
    for e in &trace.events {
        match e.kind {
            EventKind::MallocEnd if e.args[0] != u64::MAX => {
                let (ptr, size) = (e.args[0], e.args[1]);
                if live.insert(ptr, size).is_none() {
                    live_bytes += size;
                }
                range.record(DevicePtr::new(ptr), size);
            }
            EventKind::FreeEnd if e.args[0] != u64::MAX && e.args[3] == 1 => {
                match live.remove(&e.args[0]) {
                    Some(size) => live_bytes -= size,
                    None => out.unmatched_frees += 1,
                }
            }
            _ => continue,
        }
        let sample = OccupancySample {
            ts_ns: e.ts_ns,
            live_bytes,
            live_allocs: live.len() as u64,
            range_span: range.range(),
        };
        out.peak_live_bytes = out.peak_live_bytes.max(live_bytes);
        out.peak_live_allocs = out.peak_live_allocs.max(live.len() as u64);
        raw.push(sample);
    }
    out.address_range = range;
    out.samples = decimate(raw, max_samples);
    out
}

/// Keeps at most `max` evenly strided samples, always including the last.
fn decimate(raw: Vec<OccupancySample>, max: usize) -> Vec<OccupancySample> {
    let max = max.max(2);
    if raw.len() <= max {
        return raw;
    }
    let stride = raw.len().div_ceil(max);
    let last = *raw.last().expect("non-empty: len > max >= 2");
    let mut out: Vec<OccupancySample> = raw.into_iter().step_by(stride).collect();
    if out.last() != Some(&last) {
        out.push(last);
    }
    out
}

/// Maximum number of counter samples [`chrome_trace_json`] emits per
/// counter track, to keep exported files tractable.
const EXPORT_COUNTER_SAMPLES: usize = 1024;

/// Number of bins for the exported CAS-retry-rate counter track.
const EXPORT_RETRY_BINS: usize = 256;

/// Synthetic Chrome-trace thread id for the launch-lifecycle track (real SM
/// tracks use the SM id, which is far below this).
const LAUNCH_TRACK_TID: u32 = 1_000_000;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with sub-µs precision, the unit Chrome trace `ts`/`dur`
/// fields use.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Exports the trace as Chrome trace-event JSON (the "JSON array format"),
/// loadable in Perfetto (`ui.perfetto.dev`) and `chrome://tracing`.
///
/// Layout: one thread track per SM carrying complete (`"X"`) slices for
/// malloc/free operations and warp residency, a separate track for launch
/// spans, async (`"b"`/`"e"`) spans tying each successful allocation to its
/// free, and counter (`"C"`) tracks for live heap bytes, live allocation
/// count and CAS-retry rate. Instant (`"i"`) events mark OOM fallbacks and
/// sanitizer violations. Every event carries `ph`/`ts`/`pid`/`tid`.
pub fn chrome_trace_json(trace: &Trace, label: &str) -> String {
    let mut out = String::with_capacity(trace.events.len() * 128 + 1024);
    out.push_str("[\n");
    let mut first = true;
    let mut push = |line: String| {
        // Delimiting here keeps every emitter below a plain `push`.
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
        out.push(' ');
        out.push_str(&line);
    };

    push(format!(
        "{{\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"gpumemsurvey trace: {}\"}}}}",
        json_escape(label)
    ));

    let mut sms: Vec<u32> = trace.events.iter().map(|e| e.sm).collect();
    sms.sort_unstable();
    sms.dedup();
    for &sm in &sms {
        push(format!(
            "{{\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{sm},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"SM {sm}\"}}}}"
        ));
        push(format!(
            "{{\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{sm},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{sm}}}}}"
        ));
    }
    push(format!(
        "{{\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{LAUNCH_TRACK_TID},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"launches\"}}}}"
    ));

    // Open warp-dispatch and launch-begin events waiting for their close.
    let mut open_warps: HashMap<(u64, u64), u64> = HashMap::new();
    let mut open_launches: HashMap<u64, u64> = HashMap::new();
    // Successful allocations still live, for async alloc-lifetime spans:
    // ptr -> begin ts.
    let mut open_allocs: HashMap<u64, u64> = HashMap::new();

    for e in &trace.events {
        let sm = e.sm;
        match e.kind {
            EventKind::MallocEnd => {
                let latency = e.args[2];
                let start = e.ts_ns.saturating_sub(latency);
                let ok = e.args[0] != u64::MAX;
                push(format!(
                    "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{sm},\
                     \"cat\":\"malloc\",\"name\":\"{}\",\"args\":{{\"size\":{},\
                     \"retries\":{},\"ptr\":{}}}}}",
                    us(start),
                    us(latency),
                    if ok { "malloc" } else { "malloc (failed)" },
                    e.args[1],
                    e.args[3],
                    e.args[0]
                ));
                if ok && !open_allocs.contains_key(&e.args[0]) {
                    open_allocs.insert(e.args[0], e.ts_ns);
                    push(format!(
                        "{{\"ph\":\"b\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"cat\":\"alloc\",\
                         \"name\":\"allocation\",\"id\":\"{:#x}\",\
                         \"args\":{{\"size\":{}}}}}",
                        us(e.ts_ns),
                        e.args[0],
                        e.args[1]
                    ));
                }
            }
            EventKind::FreeEnd => {
                let latency = e.args[1];
                let start = e.ts_ns.saturating_sub(latency);
                push(format!(
                    "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{sm},\
                     \"cat\":\"free\",\"name\":\"free\",\"args\":{{\"ptr\":{},\
                     \"retries\":{},\"ok\":{}}}}}",
                    us(start),
                    us(latency),
                    e.args[0],
                    e.args[2],
                    e.args[3]
                ));
                if e.args[0] != u64::MAX
                    && e.args[3] == 1
                    && open_allocs.remove(&e.args[0]).is_some()
                {
                    push(format!(
                        "{{\"ph\":\"e\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"cat\":\"alloc\",\
                         \"name\":\"allocation\",\"id\":\"{:#x}\"}}",
                        us(e.ts_ns),
                        e.args[0]
                    ));
                }
            }
            EventKind::WarpDispatched => {
                open_warps.insert((e.args[1], e.args[0]), e.ts_ns);
            }
            EventKind::WarpRetired => {
                if let Some(t0) = open_warps.remove(&(e.args[1], e.args[0])) {
                    push(format!(
                        "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{sm},\
                         \"cat\":\"warp\",\"name\":\"warp {}\",\
                         \"args\":{{\"launch\":{}}}}}",
                        us(t0),
                        us(e.ts_ns.saturating_sub(t0)),
                        e.args[0],
                        e.args[1]
                    ));
                }
            }
            EventKind::LaunchBegin => {
                open_launches.insert(e.args[0], e.ts_ns);
            }
            EventKind::LaunchEnd => {
                if let Some(t0) = open_launches.remove(&e.args[0]) {
                    push(format!(
                        "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\
                         \"tid\":{LAUNCH_TRACK_TID},\"cat\":\"launch\",\
                         \"name\":\"launch {}\",\"args\":{{\"elapsed_ns\":{}}}}}",
                        us(t0),
                        us(e.ts_ns.saturating_sub(t0)),
                        e.args[0],
                        e.args[1]
                    ));
                }
            }
            EventKind::OomFallback => {
                push(format!(
                    "{{\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"s\":\"t\",\
                     \"cat\":\"oom\",\"name\":\"oom_fallback\",\"args\":{{\"count\":{}}}}}",
                    us(e.ts_ns),
                    e.args[0]
                ));
            }
            EventKind::SanitizerViolation => {
                push(format!(
                    "{{\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"s\":\"t\",\
                     \"cat\":\"sanitizer\",\"name\":\"violation\",\
                     \"args\":{{\"kind\":{},\"offset\":{},\"size\":{}}}}}",
                    us(e.ts_ns),
                    e.args[0],
                    e.args[1],
                    e.args[2]
                ));
            }
            EventKind::CacheHit => {
                push(format!(
                    "{{\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"s\":\"t\",\
                     \"cat\":\"cache\",\"name\":\"cache_hit\",\
                     \"args\":{{\"class_size\":{},\"warp\":{}}}}}",
                    us(e.ts_ns),
                    e.args[1],
                    e.args[3]
                ));
            }
            EventKind::CacheFlush => {
                push(format!(
                    "{{\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"s\":\"t\",\
                     \"cat\":\"cache\",\"name\":\"cache_flush\",\
                     \"args\":{{\"count\":{},\"class_size\":{}}}}}",
                    us(e.ts_ns),
                    e.args[0],
                    e.args[1]
                ));
            }
            EventKind::MallocBegin | EventKind::FreeBegin => {}
        }
    }

    // Counter track 1+2: heap occupancy replay.
    let occ = occupancy_timeline(trace, EXPORT_COUNTER_SAMPLES);
    for s in &occ.samples {
        push(format!(
            "{{\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"name\":\"heap occupancy\",\
             \"args\":{{\"live_bytes\":{},\"live_allocs\":{}}}}}",
            us(s.ts_ns),
            s.live_bytes,
            s.live_allocs
        ));
    }

    // Counter track 3: CAS-retry rate, binned over the trace span.
    if trace.span_ns() > 0 {
        let t0 = trace.events.first().expect("span > 0 implies events").ts_ns;
        let bin_ns = (trace.span_ns() / EXPORT_RETRY_BINS as u64).max(1);
        let mut bins = [0u64; EXPORT_RETRY_BINS];
        for e in &trace.events {
            let retries = match e.kind {
                EventKind::MallocEnd => e.args[3],
                EventKind::FreeEnd => e.args[2],
                _ => 0,
            };
            if retries > 0 {
                let bin = (((e.ts_ns - t0) / bin_ns) as usize).min(EXPORT_RETRY_BINS - 1);
                bins[bin] += retries;
            }
        }
        for (i, &n) in bins.iter().enumerate() {
            // Only emit non-empty bins and their edges to keep files small;
            // Perfetto draws steps between samples.
            let prev = i.checked_sub(1).map(|p| bins[p]).unwrap_or(0);
            if n != 0 || prev != 0 {
                push(format!(
                    "{{\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\
                     \"name\":\"cas retries\",\"args\":{{\"retries\":{n}}}}}",
                    us(t0 + i as u64 * bin_ns)
                ));
            }
        }
    }

    out.push_str("\n]\n");
    out
}

/// Validates `s` as Chrome trace-event JSON in the array format: a single
/// JSON array whose elements are objects each carrying `ph`, `ts`, `pid`
/// and `tid` keys. Returns the number of events.
///
/// This is a purpose-built structural checker (the workspace carries no
/// JSON dependency): it fully tokenizes the input, so malformed JSON —
/// not just missing keys — is rejected.
pub fn validate_chrome_json(s: &str) -> Result<usize, String> {
    let mut p = JsonParser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'[')?;
    let mut events = 0usize;
    p.skip_ws();
    if p.peek() == Some(b']') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let keys = p.object_keys()?;
            for required in ["ph", "ts", "pid", "tid"] {
                if !keys.iter().any(|k| k == required) {
                    return Err(format!("event {events} is missing required key \"{required}\""));
                }
            }
            events += 1;
            p.skip_ws();
            match p.next_byte()? {
                b',' => continue,
                b']' => break,
                c => return Err(format!("expected ',' or ']' after event, got '{}'", c as char)),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing data after the top-level array".into());
    }
    Ok(events)
}

/// Minimal JSON tokenizer backing [`validate_chrome_json`].
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or_else(|| "unexpected end of input".to_string())?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next_byte()? {
            b if b == want => Ok(()),
            b => Err(format!("expected '{}', got '{}'", want as char, b as char)),
        }
    }

    /// Parses an object, returning its top-level key names.
    fn object_keys(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'{')?;
        let mut keys = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.next_byte()? {
                b',' => continue,
                b'}' => return Ok(keys),
                c => return Err(format!("expected ',' or '}}' in object, got '{}'", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.next_byte()? {
                b'\\' => {
                    self.next_byte()?;
                }
                b'"' => {
                    return String::from_utf8(self.bytes[start..self.pos - 1].to_vec())
                        .map_err(|_| "invalid UTF-8 in string".to_string());
                }
                _ => {}
            }
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| "unexpected end of input".to_string())? {
            b'"' => self.string().map(|_| ()),
            b'{' => self.object_keys().map(|_| ()),
            b'[' => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.value()?;
                    self.skip_ws();
                    match self.next_byte()? {
                        b',' => continue,
                        b']' => return Ok(()),
                        c => {
                            return Err(format!(
                                "expected ',' or ']' in array, got '{}'",
                                c as char
                            ))
                        }
                    }
                }
            }
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            b'-' | b'0'..=b'9' => {
                while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
                    self.pos += 1;
                }
                Ok(())
            }
            c => Err(format!("unexpected character '{}'", c as char)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal, expected '{lit}'"))
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::{DeviceHeap, ManagerInfo, Metrics, RegisterFootprint};

    fn ev(ts: u64, kind: EventKind, sm: u32, args: [u64; 4]) -> TraceEvent {
        TraceEvent { ts_ns: ts, kind, sm, args }
    }

    #[test]
    fn emit_and_snapshot_roundtrip() {
        let rec = TraceRecorder::new(4, 16);
        rec.emit_at(10, 1, EventKind::MallocBegin, [64, 7, 0, 0]);
        rec.emit_at(20, 1, EventKind::MallocEnd, [0x100, 64, 10, 3]);
        rec.emit_at(5, 2, EventKind::FreeBegin, [0x100, 7, 1, 0]);
        let t = rec.snapshot();
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped, 0);
        // Sorted by timestamp.
        assert_eq!(t.events[0].kind, EventKind::FreeBegin);
        assert_eq!(t.events[0].sm, 2);
        assert_eq!(t.events[1], ev(10, EventKind::MallocBegin, 1, [64, 7, 0, 0]));
        assert_eq!(t.events[2].args, [0x100, 64, 10, 3]);
        assert_eq!(rec.recorded(), 3);
    }

    #[test]
    fn snapshot_since_returns_each_event_exactly_once() {
        let rec = TraceRecorder::new(4, 8);
        let mut cursors = Vec::new();

        rec.emit_at(10, 0, EventKind::MallocEnd, [0x100, 64, 5, 0]);
        rec.emit_at(20, 3, EventKind::MallocEnd, [0x200, 64, 5, 0]);
        let t1 = rec.snapshot_since(&mut cursors);
        assert_eq!(t1.len(), 2, "first drain sees everything committed so far");

        let t2 = rec.snapshot_since(&mut cursors);
        assert!(t2.events.is_empty(), "nothing new, nothing returned");

        rec.emit_at(30, 0, EventKind::FreeEnd, [0x100, 5, 0, 1]);
        let t3 = rec.snapshot_since(&mut cursors);
        assert_eq!(t3.len(), 1, "incremental drain sees only the new event");
        assert_eq!(t3.events[0].kind, EventKind::FreeEnd);

        // The incremental drains and a full snapshot agree on the stream.
        assert_eq!(rec.snapshot().len(), t1.len() + t3.len());

        // Cursors survive shard overflow: drop-newest never recycles slots,
        // so a full shard simply stops yielding.
        for i in 0..20 {
            rec.emit_at(40 + i, 0, EventKind::OomFallback, [1, 0, 0, 0]);
        }
        let t4 = rec.snapshot_since(&mut cursors);
        assert_eq!(t4.len() as u64, rec.recorded() - 3, "drains exactly the committed tail");
        assert!(rec.snapshot_since(&mut cursors).events.is_empty());
        assert!(rec.dropped() > 0, "overflow counted, not replayed");
    }

    #[test]
    fn full_shard_drops_and_counts() {
        let rec = TraceRecorder::new(1, 4);
        for i in 0..10 {
            rec.emit_at(i, 0, EventKind::OomFallback, [1, 0, 0, 0]);
        }
        assert_eq!(rec.recorded(), 4);
        assert_eq!(rec.dropped(), 6);
        let t = rec.snapshot();
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped, 6);
        // Drop-newest: the first four events survive.
        assert_eq!(t.events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(), vec![0, 1, 2, 3]);

        // The ring fills on an op record: the one that takes the last slot
        // counts two events recorded, the one turned away two dropped, and
        // the claim word stops moving once the shard is full.
        let rec = TraceRecorder::new(1, 3);
        rec.emit_at(1, 0, EventKind::OomFallback, [1, 0, 0, 0]);
        rec.emit_at(2, 0, EventKind::OomFallback, [1, 0, 0, 0]);
        rec.emit_malloc(13, 0, 7, 64, [0x40, 64, 10, 0]);
        let full = rec.shards[0].claimed.load(Ordering::Relaxed);
        rec.emit_free(24, 0, 7, None, [0x40, 10, 0, 1]);
        rec.emit_at(25, 0, EventKind::OomFallback, [1, 0, 0, 0]);
        assert_eq!((rec.recorded(), rec.dropped()), (4, 3));
        assert_eq!(rec.recorded() + rec.dropped(), 1 + 1 + 2 + 2 + 1, "every event attempted");
        assert_eq!(rec.snapshot().len() as u64, rec.recorded());
        assert_eq!(rec.shards[0].claimed.load(Ordering::Relaxed), full, "full ring: no claim");
    }

    #[test]
    #[should_panic(expected = "exceeds 2^30")]
    fn capacity_the_claim_word_cannot_index_is_rejected() {
        let _ = TraceRecorder::new(1, MAX_EVENTS_PER_SM + 1);
    }

    #[test]
    #[should_panic(expected = "no room for 4294967296 trace shards")]
    fn ring_beyond_the_address_space_is_rejected_before_it_is_mapped() {
        let _ = TraceRecorder::new(u32::MAX, 1 << 30);
    }

    /// A ring far from a page multiple (4 shards × 5 slots, 960 bytes):
    /// each SM's shard holds its five op records, the sixteenth is dropped.
    #[test]
    fn small_ring_round_trips_op_records_on_every_shard() {
        let rec = TraceRecorder::new(3, 5);
        assert_eq!(rec.ring.len(), 4 * 5 * 48);
        for i in 0..15u32 {
            rec.emit_malloc(100 + u64::from(i), i % 3, i, 64, [u64::from(i) * 64, 64, 10, 0]);
        }
        rec.emit_malloc(200, 1, 99, 64, [0x4000, 64, 10, 0]);
        assert_eq!((rec.recorded(), rec.dropped()), (30, 2));
        let t = rec.snapshot();
        for sm in 0..3 {
            let ends: Vec<u64> = t
                .events
                .iter()
                .filter(|e| e.sm == sm && e.kind == EventKind::MallocEnd)
                .map(|e| e.args[0])
                .collect();
            let expect: Vec<u64> = (0..5).map(|k| u64::from(sm + 3 * k) * 64).collect();
            assert_eq!(ends, expect, "sm {sm}");
        }
    }

    /// Shards 80–127 of an 80-SM recorder exist only because the shard count
    /// is a power of two: they are address space until an out-of-range SM id
    /// folds onto one, and dropping the recorder unmaps all of it.
    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn fold_over_shards_page_in_on_demand_and_drop_unmaps() {
        use crate::backend::probe::{is_mapped, resident_bytes};
        let shard_bytes = DEFAULT_EVENTS_PER_SM * 48;
        // Another test thread may map the hole the instant it opens: one
        // sighting of the address unmapped is the proof (a leak never shows).
        let unmapped = (0..8).any(|_| {
            let rec = TraceRecorder::with_default_capacity(80);
            let base = rec.ring.base() as usize;
            assert_eq!(rec.ring.len(), 128 * shard_bytes);
            assert_eq!(resident_bytes(base, 80 * shard_bytes), 80 * shard_bytes);
            assert_eq!(resident_bytes(base + 80 * shard_bytes, 48 * shard_bytes), 0);
            rec.emit_at(7, 100, EventKind::OomFallback, [3, 0, 0, 0]);
            let folded = rec.snapshot().events;
            assert_eq!(folded, [ev(7, EventKind::OomFallback, 100, [3, 0, 0, 0])]);
            assert_ne!(resident_bytes(base + 100 * shard_bytes, shard_bytes), 0);
            drop(rec);
            !is_mapped(base)
        });
        assert!(unmapped);
    }

    /// Op records and point events interleaved on one shard: every event
    /// comes back exactly once across incremental drains, both halves of an
    /// op in the same drain, and the drains add up to a full snapshot.
    #[test]
    fn snapshot_since_with_op_records_and_point_events_interleaved() {
        let rec = TraceRecorder::new(1, 16);
        let mut cursors = Vec::new();
        rec.emit_malloc(20, 0, 3, 64, [0x100, 64, 10, 2]);
        rec.emit_at(21, 0, EventKind::CacheHit, [0x100, 64, 0, 0]);
        let t1 = rec.snapshot_since(&mut cursors);
        let kinds = |t: &Trace| t.events.iter().map(|e| e.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&t1), [EventKind::MallocBegin, EventKind::MallocEnd, EventKind::CacheHit]);
        assert_eq!(cursors, [2], "the cursor counts slots, not events");

        rec.emit_at(30, 0, EventKind::OomFallback, [1, 0, 0, 0]);
        rec.emit_free(45, 0, 3, None, [0x100, 10, 0, 1]);
        rec.emit_free(60, 0, 96, Some(2), [0x200, 5, 1, 0]);
        let t2 = rec.snapshot_since(&mut cursors);
        assert_eq!(
            kinds(&t2),
            [
                EventKind::OomFallback,
                EventKind::FreeBegin,
                EventKind::FreeEnd,
                EventKind::FreeBegin,
                EventKind::FreeEnd
            ]
        );
        // A collective free's Begin carries the sentinel, the leader and
        // the live lane count; its End the first lane's pointer.
        assert_eq!(t2.events[3], ev(55, EventKind::FreeBegin, 0, [u64::MAX, 96, 2, 0]));
        assert_eq!(t2.events[4], ev(60, EventKind::FreeEnd, 0, [0x200, 5, 1, 0]));
        assert!(rec.snapshot_since(&mut cursors).events.is_empty());

        let all = rec.snapshot();
        assert_eq!(all.len(), t1.len() + t2.len());
        assert_eq!(rec.recorded(), all.len() as u64);
        let mut drained = t1.events.clone();
        drained.extend(&t2.events);
        assert_eq!(drained, all.events);
    }

    /// A collective malloc's first-lane record reports the warp's total
    /// bytes in its Begin and the lane's own size in its End.
    #[test]
    fn malloc_op_record_keeps_requested_bytes_beyond_the_lane_size() {
        let rec = TraceRecorder::new(1, 4);
        rec.emit_malloc(100, 5, 64, 32 * 48, [0x1000, 48, 40, u64::MAX]);
        let t = rec.snapshot();
        assert_eq!(t.events[0], ev(60, EventKind::MallocBegin, 5, [32 * 48, 64, 0, 0]));
        let end = [0x1000, 48, 40, u64::from(u32::MAX)];
        assert_eq!(t.events[1], ev(100, EventKind::MallocEnd, 5, end));
    }

    #[test]
    fn sm_ids_fold_into_shards() {
        let rec = TraceRecorder::new(4, 8);
        // SM 5 folds into shard 1 (mask 3) but the event keeps its real id.
        rec.emit_at(1, 5, EventKind::WarpDispatched, [9, 0, 0, 0]);
        let t = rec.snapshot();
        assert_eq!(t.events[0].sm, 5);
    }

    #[test]
    fn concurrent_emitters_lose_nothing_within_capacity() {
        let rec = Arc::new(TraceRecorder::new(8, 4096));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        rec.emit(t as u32, EventKind::MallocEnd, [i, t, 1, 0]);
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        let t = rec.snapshot();
        assert_eq!(t.len(), 4000);
        assert_eq!(t.dropped, 0);
        for sm in 0..4u64 {
            let seen: Vec<u64> =
                t.events.iter().filter(|e| e.args[1] == sm).map(|e| e.args[0]).collect();
            assert_eq!(seen.len(), 1000, "sm {sm} lost events");
        }
    }

    #[test]
    fn launch_ids_are_unique() {
        let rec = TraceRecorder::new(1, 4);
        assert_eq!(rec.next_launch_id(), 0);
        assert_eq!(rec.next_launch_id(), 1);
        assert_eq!(rec.next_launch_id(), 2);
    }

    #[test]
    fn event_kind_tags_roundtrip() {
        for kind in ALL_EVENT_KINDS {
            assert_eq!(EventKind::from_tag(kind.tag() as u32), Some(kind), "{}", kind.name());
        }
        assert_eq!(EventKind::from_tag(0), None, "tag 0 is reserved for unwritten slots");
        assert_eq!(EventKind::from_tag(EVENT_KINDS as u32 + 1), None);
    }

    #[test]
    fn histogram_percentiles_hand_computed() {
        let mut h = LatencyHistogram::new();
        // 90 samples in [16,32), 9 in [1024,2048), 1 at 1 << 20.
        for _ in 0..90 {
            h.record(20);
        }
        for _ in 0..9 {
            h.record(1500);
        }
        h.record(1 << 20);
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 31); // upper bound of [16,32)
        assert_eq!(h.p95(), 2047); // rank 95 falls in [1024,2048)
        assert_eq!(h.p99(), 2047);
        assert_eq!(h.percentile(100.0), 1 << 20); // capped at observed max
        assert_eq!(h.max_ns(), 1 << 20);
        assert_eq!(h.mean_ns(), (90 * 20 + 9 * 1500 + (1 << 20)) / 100);
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        let mut h = LatencyHistogram::new();
        h.record(1);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p99(), 1);
        // Non-empty histograms never report 0, even for clamped samples.
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.p50(), 1);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 1..=100u64 {
            if i % 2 == 0 {
                a.record(i * 10)
            } else {
                b.record(i * 10)
            }
            both.record(i * 10);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.p50(), both.p50());
        assert_eq!(a.p99(), both.p99());
        assert_eq!(a.max_ns(), both.max_ns());
    }

    #[test]
    fn op_latencies_split_malloc_and_free() {
        let t = Trace {
            events: vec![
                ev(10, EventKind::MallocEnd, 0, [0x40, 64, 100, 0]),
                ev(20, EventKind::MallocEnd, 0, [u64::MAX, 64, 900, 2]),
                ev(30, EventKind::FreeEnd, 0, [0x40, 50, 0, 1]),
                ev(40, EventKind::WarpRetired, 0, [0, 0, 0, 0]),
            ],
            dropped: 0,
            events_per_sm: 16,
        };
        let lat = OpLatencies::from_trace(&t);
        assert_eq!(lat.malloc.count(), 2);
        assert_eq!(lat.free.count(), 1);
        assert_eq!(lat.malloc.max_ns(), 900);
        assert_eq!(lat.free.max_ns(), 50);
    }

    #[test]
    fn occupancy_replay_tracks_live_bytes_and_range() {
        let t = Trace {
            events: vec![
                ev(10, EventKind::MallocEnd, 0, [0, 100, 5, 0]),
                ev(20, EventKind::MallocEnd, 0, [100, 50, 5, 0]),
                ev(30, EventKind::FreeEnd, 0, [0, 5, 0, 1]),
                // Failed free: stays live.
                ev(40, EventKind::FreeEnd, 0, [100, 5, 0, 0]),
                // Unknown pointer.
                ev(50, EventKind::FreeEnd, 0, [9999, 5, 0, 1]),
                // Failed malloc: ignored.
                ev(60, EventKind::MallocEnd, 0, [u64::MAX, 64, 5, 0]),
            ],
            dropped: 0,
            events_per_sm: 64,
        };
        let occ = occupancy_timeline(&t, 1000);
        assert_eq!(occ.peak_live_bytes, 150);
        assert_eq!(occ.peak_live_allocs, 2);
        assert_eq!(occ.unmatched_frees, 1);
        let last = occ.samples.last().unwrap();
        assert_eq!(last.live_bytes, 50);
        assert_eq!(last.live_allocs, 1);
        // Allocations covered [0,100) and [100,150) -> span 150.
        assert_eq!(occ.address_range.range(), 150);
        assert_eq!(occ.address_range.count(), 2);
    }

    #[test]
    fn occupancy_decimation_keeps_last_sample() {
        let events: Vec<TraceEvent> =
            (0..100).map(|i| ev(i, EventKind::MallocEnd, 0, [i * 64, 64, 5, 0])).collect();
        let t = Trace { events, dropped: 0, events_per_sm: 256 };
        let occ = occupancy_timeline(&t, 10);
        assert!(occ.samples.len() <= 11, "got {}", occ.samples.len());
        assert_eq!(occ.samples.last().unwrap().live_allocs, 100);
        assert_eq!(occ.peak_live_bytes, 6400);
    }

    #[test]
    fn chrome_export_validates_and_carries_tracks() {
        let t = Trace {
            events: vec![
                ev(1000, EventKind::LaunchBegin, 0, [0, 64, 2, 0]),
                ev(1100, EventKind::WarpDispatched, 1, [0, 0, 0, 0]),
                ev(1200, EventKind::MallocEnd, 1, [0x80, 64, 100, 7]),
                ev(1300, EventKind::FreeEnd, 1, [0x80, 50, 1, 1]),
                ev(1400, EventKind::WarpRetired, 1, [0, 0, 0, 0]),
                ev(1500, EventKind::OomFallback, 1, [1, 0, 0, 0]),
                ev(1600, EventKind::SanitizerViolation, 2, [3, 64, 16, 0]),
                ev(1700, EventKind::LaunchEnd, 0, [0, 700, 0, 0]),
            ],
            dropped: 0,
            events_per_sm: 64,
        };
        let json = chrome_trace_json(&t, "test \"quoted\" label");
        let n = validate_chrome_json(&json).expect("export must be valid");
        assert!(n >= 8, "expected metadata + events, got {n}");
        for needle in [
            "\"ph\":\"X\"",
            "\"ph\":\"M\"",
            "\"ph\":\"C\"",
            "\"ph\":\"b\"",
            "\"ph\":\"e\"",
            "\"ph\":\"i\"",
            "thread_name",
            "heap occupancy",
            "cas retries",
            "launches",
            "test \\\"quoted\\\" label",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn chrome_export_of_empty_trace_is_valid() {
        let json = chrome_trace_json(&Trace::default(), "empty");
        let n = validate_chrome_json(&json).expect("valid");
        assert!(n >= 1, "metadata events expected");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("").is_err());
        assert!(validate_chrome_json("{}").is_err(), "top level must be an array");
        assert!(validate_chrome_json("[{\"ph\":\"X\"}]").is_err(), "missing ts/pid/tid");
        assert!(
            validate_chrome_json("[{\"ph\":\"X\",\"ts\":1,\"pid\":0,\"tid\":0}").is_err(),
            "unterminated array"
        );
        assert!(
            validate_chrome_json("[{\"ph\":\"X\",\"ts\":1,\"pid\":0,\"tid\":0}]x").is_err(),
            "trailing garbage"
        );
        assert_eq!(
            validate_chrome_json(
                "[{\"ph\":\"X\",\"ts\":1.5,\"pid\":0,\"tid\":0,\"args\":{\"a\":[1,null,true]}}]"
            ),
            Ok(1)
        );
        assert_eq!(validate_chrome_json("[]"), Ok(0));
    }

    #[test]
    fn retry_accumulator_is_per_thread() {
        let enclosing = begin_op_scope();
        note_op_retries(5);
        note_op_retries(2);
        let h = std::thread::spawn(|| {
            let enclosing = begin_op_scope();
            note_op_retries(100);
            end_op_scope(enclosing)
        });
        assert_eq!(h.join().unwrap(), 100);
        assert_eq!(end_op_scope(enclosing), 7);
        assert_eq!(end_op_scope(None), 0, "no open scope drains to zero");
    }

    #[test]
    fn retries_outside_any_scope_are_dropped() {
        note_op_retries(9);
        let enclosing = begin_op_scope();
        assert_eq!(end_op_scope(enclosing), 0, "orphan retries must not leak into the next op");
    }

    #[test]
    fn nested_scopes_attribute_retries_per_layer() {
        let none = begin_op_scope(); // outer wrapper's operation
        note_op_retries(2); // middle layer's own retries
        let outer = begin_op_scope(); // inner wrapper's operation
        note_op_retries(3); // innermost manager's retries
        assert_eq!(end_op_scope(outer), 3, "inner op sees only its own retries");
        assert_eq!(end_op_scope(none), 2, "outer op keeps the middle layer's retries");
    }

    /// Regression test for the nested-decorator retry bridge: in
    /// `Traced<Middle<Traced<Inner>>>` the outer `MallocEnd` must carry
    /// only the middle layer's retries (2) and the inner `MallocEnd` only
    /// the innermost manager's (3) — with a single shared accumulator the
    /// inner wrapper's clear-on-begin destroyed the middle layer's count
    /// and its drain misattributed the total.
    #[test]
    fn nested_traced_wrappers_scope_retries_per_layer() {
        struct Inner {
            heap: Arc<DeviceHeap>,
            m: Metrics,
        }
        impl DeviceAllocator for Inner {
            fn info(&self) -> ManagerInfo {
                ManagerInfo::builder("Inner").supports_free(true).build()
            }
            fn heap(&self) -> &DeviceHeap {
                &self.heap
            }
            fn malloc(&self, ctx: &ThreadCtx, _size: u64) -> Result<DevicePtr, AllocError> {
                self.m.record_retries(ctx.sm, 3);
                Ok(DevicePtr::new(0))
            }
            fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
                Ok(())
            }
            fn register_footprint(&self) -> RegisterFootprint {
                RegisterFootprint { malloc: 1, free: 1 }
            }
            fn metrics(&self) -> Metrics {
                self.m.clone()
            }
        }

        struct Middle<A> {
            inner: A,
            m: Metrics,
        }
        impl<A: DeviceAllocator> crate::traits::Layer for Middle<A> {
            type Inner = A;

            fn inner(&self) -> &A {
                &self.inner
            }
            fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
                // The middle layer burns retries of its own (e.g. magazine
                // CAS contention) before delegating.
                self.m.record_retries(ctx.sm, 2);
                self.inner.malloc(ctx, size)
            }
            fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
                self.inner.free(ctx, ptr)
            }
            fn malloc_warp(
                &self,
                warp: &WarpCtx,
                sizes: &[u64],
                out: &mut [DevicePtr],
            ) -> Result<(), AllocError> {
                self.inner.malloc_warp(warp, sizes, out)
            }
            fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
                self.inner.free_warp(warp, ptrs)
            }
        }

        let rec = Arc::new(TraceRecorder::new(1, 16));
        let m = Metrics::enabled(1).with_tracer(Arc::clone(&rec));
        let inner = Inner { heap: Arc::new(DeviceHeap::new(4096)), m: m.clone() };
        let stack = Traced::new(
            Middle { inner: Traced::new(inner, Arc::clone(&rec)), m: m.relay() },
            Arc::clone(&rec),
        );

        let ctx = ThreadCtx::host();
        stack.malloc(&ctx, 64).unwrap();

        let trace = rec.snapshot();
        let retries: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::MallocEnd)
            .map(|e| e.args[3])
            .collect();
        // Events sort by timestamp: the inner wrapper's end precedes the
        // outer's.
        assert_eq!(retries, vec![3, 2], "inner op keeps 3, outer op keeps 2");
        let total: u64 = retries.iter().sum();
        assert_eq!(total, 5, "no retry double-counted or lost across layers");
    }
}

// Loom model of the claim/publish protocol: the writer of an op record and
// the writer of a point event race a reader that drains incrementally. With
// no shard-wide commit count, the per-slot tag is all that stands between
// the reader and a half-written slot.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;

    #[test]
    fn loom_claim_commit_publishes_whole_slots() {
        crate::sync::model(|| {
            let rec = Arc::new(TraceRecorder::new(1, 4));
            let op = {
                let rec = Arc::clone(&rec);
                crate::sync::thread::spawn(move || rec.emit_malloc(7, 0, 7, 7, [7; 4]))
            };
            let point = {
                let rec = Arc::clone(&rec);
                crate::sync::thread::spawn(move || {
                    rec.emit_at(9, 0, EventKind::OomFallback, [9; 4]);
                })
            };
            // Whatever a drain returns is whole: an op record shows both of
            // its halves or neither, and no payload word is torn.
            let whole = |t: &Trace| {
                for ev in &t.events {
                    let want = match ev.kind {
                        EventKind::MallocBegin => (0, [7, 7, 0, 0]),
                        EventKind::MallocEnd => (7, [7; 4]),
                        EventKind::OomFallback => (9, [9; 4]),
                        other => panic!("nobody wrote a {other:?}"),
                    };
                    assert_eq!((ev.ts_ns, ev.args), want);
                }
                assert_eq!(t.count(EventKind::MallocBegin), t.count(EventKind::MallocEnd));
            };
            let mut cursors = Vec::new();
            let mid = rec.snapshot_since(&mut cursors);
            whole(&mid);
            op.join().unwrap();
            point.join().unwrap();
            let rest = rec.snapshot_since(&mut cursors);
            whole(&rest);
            assert_eq!(mid.len() + rest.len(), 3, "each event in exactly one drain");
            assert_eq!(rec.recorded(), 3);
        });
    }
}

//! Event-tracing layer: per-SM ring-buffer trace recorder and its consumers.
//!
//! The [`Metrics`](crate::Metrics) counters (DESIGN.md §6) answer *how much*
//! contention a run saw; this module answers *when* and *where*. A
//! [`TraceRecorder`] collects a bounded stream of timestamped events — one
//! per allocation and per free, with latency and CAS-retry payloads, plus
//! OOM fallbacks, sanitizer violations, magazine hits and flushes, and the
//! launch markers a runner writes — into fixed-capacity per-SM ring buffers.
//! Three consumers are derived from one recorded [`Trace`]:
//!
//! 1. [`OpLatencies`]: per-operation log2-bucketed latency histograms with
//!    p50/p95/p99 extraction ([`LatencyHistogram`]),
//! 2. [`LiveSet`]: the replay of alloc/free events into the blocks live at
//!    each instant, their bytes and their fragmentation,
//! 3. [`chrome_trace_json`]: a Chrome trace-event JSON exporter that loads
//!    directly in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`, with
//!    one track per SM, async spans for allocation lifetimes, counter
//!    tracks for heap occupancy and CAS-retry rate, and one counter sample
//!    per launch window. It is the repo's one per-run export.
//!
//! The export and `repro trace`'s summary replay the live set through one
//! [`LiveSet`]. The telemetry sampler (`crate::telemetry`) folds counters
//! only: every fold of trace events is the export's.
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
//! Each shard is a fixed-capacity array of 6-word slots, one event each. A
//! writer claims a slot with one `Relaxed` `fetch_add` on the shard's slot
//! counter — the only read-modify-write a recorded event costs; a writer
//! that finds the shard full bumps a `dropped` counter instead and writes
//! nothing, so memory stays bounded and loss is observable (drop-newest).
//! Slot words are plain atomics written `Relaxed`; the meta word, carrying
//! a nonzero tag, is stored last with `Release` and is the slot's
//! publication point: a reader that `Acquire`-loads a nonzero tag sees the
//! whole slot. Nothing shard-wide says what is committed — commits land out
//! of claim order, so only the slot itself can say it is whole — and
//! readers wait (bounded) on the tag of a slot that is claimed but not yet
//! published. All shards' slots are one zeroed mapping (`backend.rs`'s
//! `Map`, as the RAM heap is): nothing is written or committed to build it.
//! The writer that claims slot 0 of a shard commits that whole shard before
//! it writes, so a recorder costs memory only for the shards events land on.
//!
//! [`Traced`] writes one `MallocEnd`/`FreeEnd` when a `malloc`/`free`
//! returns, stamped per warp pass (about 0.28 clock reads per call; see
//! [`Traced`]), with ties in claim order on one SM's shard. One call in
//! [`TIMED_ONE_IN`] on each thread also reads the clock when it starts and
//! carries its latency (at least 1 ns); the others carry latency 0, which
//! means "not timed". Ordering, the occupancy replay and the Perfetto
//! lifetimes need only the end stamps; the latency histograms are built
//! from the timed calls. On a shard that is already full `Traced` skips the
//! clock: the event will be dropped anyway.

use crate::backend::Map;
use crate::ctx::{ThreadCtx, WarpCtx};
use crate::error::AllocError;
use crate::frag::{AddressRange, FragmentationStats};
use crate::json::{quote, Json};
use crate::ptr::DevicePtr;
use crate::sync::{AtomicU64, Ordering};
use crate::traits::DeviceAllocator;
use crate::WARP_SIZE;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default ring capacity per SM shard, in slots.
///
/// At 48 bytes per slot an 80-SM recorder maps 48 MiB of address space
/// (128 shards of 384 KiB), of which only the shards events land on become
/// resident: at most 30 MiB for 80 SMs. A contention run of 10 000
/// threads writes 2 events per thread (one for its `malloc`, one for its
/// `free`) spread over the SMs the threads land on, so the default holds a
/// full default-scale run without drops.
pub const DEFAULT_EVENTS_PER_SM: usize = 8192;

/// Number of log2 latency buckets — covers 1 ns ..= `u64::MAX` ns.
const LATENCY_BUCKETS: usize = 64;

/// What happened, encoded in the slot tag word. Payload word semantics are
/// listed per variant; unused words are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum EventKind {
    /// An allocation request returned; `ts_ns` is the thread's last clock
    /// reading when it did (see [`Traced`]).
    /// `args = [ptr_raw (u64::MAX on failure), size_bytes, latency_ns,
    /// cas_retries]`. `latency_ns` is 0 for a call [`Traced`] did not time
    /// (see [`TraceEvent::latency`]). Warp-collective calls emit one
    /// `MallocEnd` per lane, each carrying the collective latency; retries
    /// are attributed to the first lane only so sums stay correct. A failed
    /// collective emits one `MallocEnd` carrying the warp's total bytes.
    MallocEnd = 0,
    /// A free request returned; `ts_ns` as in `MallocEnd`.
    /// `args = [ptr_raw, latency_ns, cas_retries, ok (1 = freed)]`, with
    /// `latency_ns` as in `MallocEnd`.
    /// `ptr_raw == u64::MAX` marks a warp-collective bulk free
    /// (`free_warp_all`) whose individual pointers the manager never
    /// exposes; a `free_warp` emits one `FreeEnd` per live lane, retries on
    /// the first.
    FreeEnd = 1,
    /// The manager fell back past its own heap (e.g. Halloc's CUDA
    /// fallback). `args = [count, 0, 0, 0]`.
    OomFallback = 2,
    /// The shadow-heap sanitizer recorded a violation.
    /// `args = [violation_kind, offset, size, 0]`.
    SanitizerViolation = 3,
    /// A traced launch started. `args = [launch_id, n_threads, n_warps,
    /// 0]`; recorded on shard 0 by the runner that launches it.
    LaunchBegin = 4,
    /// A traced launch completed. `args = [launch_id, elapsed_ns, 0, 0]`;
    /// recorded on shard 0.
    LaunchEnd = 5,
    /// A [`Cached`](crate::cache::Cached) magazine served an allocation
    /// without touching the inner allocator.
    /// `args = [ptr_raw_or_lane_count, class_size, 0, warp (1 = collective)]`.
    CacheHit = 6,
    /// A `Cached` magazine evicted or drained parked blocks back to the
    /// inner allocator. `args = [count, class_size, 0, warp]`.
    CacheFlush = 7,
}

/// Number of event kinds.
pub const EVENT_KINDS: usize = 8;

impl EventKind {
    /// Stable snake_case name (used in exports and reports).
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::MallocEnd => "malloc_end",
            EventKind::FreeEnd => "free_end",
            EventKind::OomFallback => "oom_fallback",
            EventKind::SanitizerViolation => "sanitizer_violation",
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
            1 => Some(EventKind::MallocEnd),
            2 => Some(EventKind::FreeEnd),
            3 => Some(EventKind::OomFallback),
            4 => Some(EventKind::SanitizerViolation),
            5 => Some(EventKind::LaunchBegin),
            6 => Some(EventKind::LaunchEnd),
            7 => Some(EventKind::CacheHit),
            8 => Some(EventKind::CacheFlush),
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

impl TraceEvent {
    /// The block a successful `MallocEnd` adds to the live set:
    /// `(ptr_raw, size_bytes)`. The one rule every live-set replay uses.
    pub fn grant(&self) -> Option<(u64, u64)> {
        let [ptr, size, ..] = self.args;
        (self.kind == EventKind::MallocEnd && ptr != u64::MAX).then_some((ptr, size))
    }

    /// The pointer a `FreeEnd` retires from the live set: a free that
    /// succeeded and names its pointer (a bulk free's sentinel names none).
    pub fn release(&self) -> Option<u64> {
        let [ptr, _, _, ok] = self.args;
        (self.kind == EventKind::FreeEnd && ok == 1 && ptr != u64::MAX).then_some(ptr)
    }

    /// The latency of a `MallocEnd` or `FreeEnd` whose call [`Traced`]
    /// timed, in nanoseconds (at least 1). `None` for a call it only
    /// stamped, whose latency word is 0, and for every other kind. The one
    /// rule every latency consumer uses.
    pub fn latency(&self) -> Option<u64> {
        let ns = match self.kind {
            EventKind::MallocEnd => self.args[2],
            EventKind::FreeEnd => self.args[1],
            _ => 0,
        };
        (ns != 0).then_some(ns)
    }
}

const SLOT_WORDS: usize = 6;

/// One fixed slot: `[ts, tag<<32|sm, a0, a1, a2, a3]`. All-zero bytes are a
/// slot nobody has published (tag 0), which is how the ring's mapping
/// arrives from the kernel.
struct Slot {
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    /// Appends the slot's event to `out`; `None` when the slot is not yet
    /// published.
    fn decode_into(&self, out: &mut Vec<TraceEvent>) -> Option<()> {
        // The meta word is the publication point: the writer stores it last
        // with Release, so once a valid tag is visible here, this Acquire
        // load synchronizes-with that store and every other word of the
        // slot is visible. An unpublished slot shows the reserved zero tag.
        let meta = self.words[1].load(Ordering::Acquire);
        let kind = EventKind::from_tag((meta >> 32) as u32)?;
        let ts_ns = self.words[0].load(Ordering::Relaxed);
        let args = std::array::from_fn(|i| self.words[i + 2].load(Ordering::Relaxed));
        out.push(TraceEvent { ts_ns, kind, sm: meta as u32, args });
        Some(())
    }
}

/// The cursors of one per-SM ring shard, on their own cache line so two
/// SMs' claim traffic does not false-share (same layout rationale as the
/// counter shards in `metrics`). The slots are the recorder's.
#[derive(Default)]
#[repr(align(128))]
struct TraceShard {
    /// Slots ever claimed (monotonic; exceeds capacity only by writers
    /// that raced for the last slot).
    claimed: AtomicU64,
    /// Events discarded because the ring was full (drop-newest).
    dropped: AtomicU64,
}

impl TraceShard {
    /// Decodes the claimed ones of the shard's `slots` into `out`, waiting
    /// (bounded, over the whole walk) on the tag of a slot a writer has
    /// claimed but not yet published. A slot that stays unpublished is
    /// skipped.
    fn decode(&self, slots: &[Slot], out: &mut Vec<TraceEvent>) {
        let claims = (self.claimed.load(Ordering::Acquire) as usize).min(slots.len());
        // Loom explores each spin iteration as a branch; keep the bound
        // tight there and generous on real hardware.
        let mut spins: u32 = if cfg!(loom) { 100 } else { 1_000_000 };
        for slot in &slots[..claims] {
            while slot.decode_into(out).is_none() {
                if spins == 0 {
                    break;
                }
                spins -= 1;
                crate::sync::hint::spin_loop();
            }
        }
    }
}

/// Lock-free, fixed-capacity, per-SM trace recorder.
///
/// Writers on any thread call [`TraceRecorder::emit`] (and [`Traced`] writes
/// one event per operation); the cost per event is one `Relaxed`
/// `fetch_add`, five `Relaxed` stores and one `Release` store. When a shard
/// fills, further events on it are counted in [`TraceRecorder::dropped`]
/// and discarded — memory stays bounded at `shards × events_per_sm × 48`
/// bytes of address space no matter how long the run. Nothing of it is
/// resident after construction: a shard is committed, whole, by the writer
/// that claims its first slot, so the shards no event lands on — the SMs a
/// launch never reaches and the ones the power of two adds — cost nothing.
pub struct TraceRecorder {
    shards: Box<[TraceShard]>,
    /// Every shard's slots, shard after shard, in one zeroed mapping.
    ring: Map,
    /// Per-shard slot capacity.
    capacity: usize,
    /// The clock every timestamp is read on; its origin is construction.
    clock: Clock,
    /// Nanoseconds one clock read took when the recorder was built.
    clock_read_ns: u64,
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

    #[inline(always)]
    pub(super) fn ticks() -> u64 {
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
    pub(super) fn ns_per_tick() -> Option<u64> {
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
}

/// Nanoseconds per tick of the identity ratio, 32.32 fixed point.
const ONE_NS_PER_TICK: u64 = 1 << 32;

/// `ticks` at `ns_per_tick` (32.32 fixed point), in nanoseconds. The
/// product is taken in 128 bits, so a run of any length converts without
/// overflow.
#[inline]
fn ticks_to_ns(ticks: u64, ns_per_tick: u64) -> u64 {
    ((u128::from(ticks) * u128::from(ns_per_tick)) >> 32) as u64
}

/// The trace clock, fixed when a recorder is built: a tick source, the
/// tick count at that moment (the recorder's zero) and the ratio that
/// turns ticks into nanoseconds. As a kernel timing its own operations
/// reads the SM cycle counter, the ticks are the invariant TSC where there
/// is one, at under half the cost of `Instant`. On every other target, under
/// miri and under loom they are `Instant` nanoseconds at the identity
/// ratio. A read is the bare counter: the ratio is looked up once, here,
/// and a reading is converted only when an event is written.
#[derive(Clone, Copy, Debug)]
struct Clock {
    /// Whether ticks are TSC reads (else `Instant` nanoseconds).
    #[cfg(all(target_arch = "x86_64", not(miri), not(loom)))]
    tsc: bool,
    /// Nanoseconds per tick, 32.32 fixed point.
    ns_per_tick: u64,
    /// Ticks at construction.
    origin: u64,
}

impl Clock {
    fn new() -> Self {
        #[cfg(all(target_arch = "x86_64", not(miri), not(loom)))]
        let ratio = tsc::ns_per_tick();
        #[cfg(not(all(target_arch = "x86_64", not(miri), not(loom))))]
        let ratio = None;
        let mut clock = Clock {
            #[cfg(all(target_arch = "x86_64", not(miri), not(loom)))]
            tsc: ratio.is_some(),
            ns_per_tick: ratio.unwrap_or(ONE_NS_PER_TICK),
            origin: 0,
        };
        clock.origin = clock.ticks();
        clock
    }

    /// The current tick count. The only function whose body forks on the
    /// target.
    #[inline(always)]
    fn ticks(&self) -> u64 {
        #[cfg(all(target_arch = "x86_64", not(miri), not(loom)))]
        if self.tsc {
            return tsc::ticks();
        }
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the origin to `ticks`.
    #[inline]
    fn ns(&self, ticks: u64) -> u64 {
        ticks_to_ns(ticks.saturating_sub(self.origin), self.ns_per_tick)
    }

    /// Nanoseconds one read takes: the tightest of 8 back-to-back reads.
    fn read_ns(&self) -> u64 {
        let reads: Vec<u64> = (0..9).map(|_| self.ticks()).collect();
        let fastest = reads.windows(2).map(|w| w[1].saturating_sub(w[0])).min();
        ticks_to_ns(fastest.expect("8 reads"), self.ns_per_tick)
    }
}

impl TraceRecorder {
    /// A recorder with one ring of `events_per_sm` slots per SM shard.
    /// The shard count is rounded up to a power of two (minimum 1) so SM ids
    /// beyond the configured count fold in with a mask, mirroring
    /// `AllocCounters`.
    ///
    /// The ring is address space only; see [`TraceRecorder::emit_at`] for
    /// when a shard is committed.
    ///
    /// # Panics
    ///
    /// When the ring is more than the host can map.
    pub fn new(num_sms: u32, events_per_sm: usize) -> Self {
        let shards = (num_sms.max(1) as usize).next_power_of_two();
        let capacity = events_per_sm.max(1);
        let ring = shards
            .checked_mul(capacity.saturating_mul(std::mem::size_of::<Slot>()))
            .and_then(|bytes| Map::reserve(bytes, false))
            .unwrap_or_else(|| panic!("no room for {shards} trace shards of {capacity} slots"));
        let clock = Clock::new();
        TraceRecorder {
            shards: (0..shards).map(|_| TraceShard::default()).collect(),
            ring,
            capacity,
            clock,
            clock_read_ns: clock.read_ns(),
        }
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
    /// timestamps share this epoch, [`Traced`]'s included. The reading
    /// becomes the thread's last, which continues a warp pass.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        let ticks = self.clock.ticks();
        OP_SCOPE.with(|s| s.last.set(ticks));
        self.clock.ns(ticks)
    }

    /// Records an event timestamped now.
    #[inline]
    pub fn emit(&self, sm: u32, kind: EventKind, args: [u64; 4]) {
        self.emit_at(self.now_ns(), sm, kind, args);
    }

    /// The index of the shard SM `sm` records on, and its cursors.
    #[inline]
    fn shard(&self, sm: u32) -> (usize, &TraceShard) {
        let idx = sm as usize & (self.shards.len() - 1);
        (idx, &self.shards[idx])
    }

    /// Whether SM `sm`'s shard has no free slot left, so every event
    /// emitted on it from now on is dropped: `claimed` never falls.
    #[inline]
    fn is_full(&self, sm: u32) -> bool {
        self.shard(sm).1.claimed.load(Ordering::Relaxed) >= self.capacity as u64
    }

    /// Records an event with an explicit timestamp (callers that time an
    /// operation themselves pass the instant it returned).
    ///
    /// The writer that claims slot 0 of a shard commits the whole shard
    /// first; `fetch_add` hands slot 0 out once, so there is one committer
    /// and no flag. Writers racing into the shard's later slots do not wait
    /// for it — a page they touch first faults in — and the commit keeps
    /// what they write. A commit the kernel refuses is ignored: the pages
    /// then fault in one at a time as they are written.
    #[inline]
    pub fn emit_at(&self, ts_ns: u64, sm: u32, kind: EventKind, args: [u64; 4]) {
        let (shard_idx, shard) = self.shard(sm);
        // A full ring costs one read-modify-write, and the slot counter
        // stops growing once every writer has seen it full.
        if shard.claimed.load(Ordering::Relaxed) >= self.capacity as u64 {
            shard.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = shard.claimed.fetch_add(1, Ordering::Relaxed);
        if idx >= self.capacity as u64 {
            // Lost the race for the last slot.
            shard.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if idx == 0 {
            self.commit_shard(shard_idx);
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
        slot.words[1].store(kind.tag() << 32 | u64::from(sm), Ordering::Release);
    }

    /// Commits shard `shard_idx`, once per recorder: off the recording path,
    /// which inlines into every `Traced` entry point.
    #[cold]
    #[inline(never)]
    fn commit_shard(&self, shard_idx: usize) {
        let shard_bytes = (self.capacity * std::mem::size_of::<Slot>()) as u64;
        let _ = self.ring.commit(shard_idx as u64 * shard_bytes, shard_bytes);
    }

    /// Total events in claimed slots across all shards: the length of
    /// [`TraceRecorder::snapshot`] at a quiescent point, mid-flight
    /// including slots whose writer has yet to publish.
    pub fn recorded(&self) -> u64 {
        let capacity = self.capacity as u64;
        self.shards.iter().map(|s| s.claimed.load(Ordering::Relaxed).min(capacity)).sum()
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
            shard.decode(self.slots(i), &mut events);
        }
        events.sort_by_key(|e| (e.ts_ns, e.sm));
        Trace { events, dropped: self.dropped(), clock_read_ns: self.clock_read_ns }
    }
}

/// [`Traced`] times one call in this many on each thread; the others read
/// the clock only when they return. Each aligned run of this many calls of
/// a thread (calls 0–7, 8–15, …) holds exactly one timed call, the first
/// call included. Its place in the run steps by one every [`WARP_SIZE`]
/// calls, so the timed calls visit every lane of the warps a thread runs
/// in turn: a fixed stride of 8 would time the same four lanes of every
/// warp, and a lane whose calls differ (the first of a warp often meets
/// cold lines) would weigh 8× in the sample or not at all. A power of two,
/// as is the warp, so picking the timed calls costs a few shifts and masks.
pub const TIMED_ONE_IN: u32 = 8;
const _: () = assert!(TIMED_ONE_IN.is_power_of_two() && WARP_SIZE.is_multiple_of(TIMED_ONE_IN));

// Per-thread state of the traced operations on a thread. Kernel bodies run
// entirely on one worker thread, so begin/accumulate/end never cross
// threads, and nothing is allocated: a worker's first traced operation runs
// inside the kernel.
//
// `retries` bridges `Metrics::add(_, CasRetries, n)` (called from inside
// the managers, which know nothing about tracing) to the `Traced` wrapper
// recording the enclosing operation. It holds the innermost open
// operation's count, `None` outside any. Decorators nest — in
// `Traced<Cached<Traced<A>>>` the outer wrapper's operation encloses the
// inner wrapper's — so each `Traced` entry point swaps in a fresh count
// before calling inward, keeps the enclosing one in its own frame and puts
// it back when the call returns: retries noted by a layer land in the
// operation of the layer that caused them, neither double-counted by the
// outer record nor stolen from it.
//
// `calls` numbers the traced calls the thread has begun; it picks the timed
// ones (`TIMED_ONE_IN`).
//
// `last` is the thread's last clock reading in ticks, for any recorder, and
// `pass` where its last traced call ran: `sm << 32 | warp` and the lane,
// `u32::MAX` when no lane continues it (see `Traced` for the stamp rule).
struct OpScope {
    retries: Cell<Option<u64>>,
    calls: Cell<u32>,
    last: Cell<u64>,
    pass: Cell<(u64, u32)>,
}

thread_local! {
    static OP_SCOPE: OpScope = const {
        OpScope {
            retries: Cell::new(None),
            calls: Cell::new(0),
            last: Cell::new(0),
            pass: Cell::new((0, u32::MAX)),
        }
    };
}

/// Adds `n` CAS retries to the innermost in-flight traced operation on this
/// thread. Called by `Metrics::add` for `CasRetries` when a tracer is attached;
/// a no-op when no traced operation is open (nothing to attribute to).
#[inline]
pub(crate) fn note_op_retries(n: u64) {
    OP_SCOPE.with(|s| s.retries.set(s.retries.get().map(|open| open.saturating_add(n))));
}

/// Opens a retry scope for one traced operation, returning the enclosing
/// scope for [`end_op_scope`] to restore and whether the operation is one
/// of the calls this thread times.
#[inline]
fn begin_op_scope() -> (Option<u64>, bool) {
    OP_SCOPE.with(|s| {
        let call = s.calls.get();
        s.calls.set(call.wrapping_add(1));
        let timed = call % TIMED_ONE_IN == call / WARP_SIZE % TIMED_ONE_IN;
        (s.retries.replace(Some(0)), timed)
    })
}

/// Closes the innermost scope and reopens `enclosing`, returning the retries
/// noted while it was open (excluding those captured by deeper scopes) and,
/// given a `stamp` `(clock, pass, read)`, the call's end stamp in ticks: the
/// thread's last reading if it continues the warp pass, unless it must `read`.
#[inline]
fn end_op_scope(enclosing: Option<u64>, stamp: Option<(&Clock, (u64, u32), bool)>) -> (u64, u64) {
    OP_SCOPE.with(|s| {
        let retries = s.retries.replace(enclosing).unwrap_or(0);
        let Some((clock, pass, read)) = stamp else { return (retries, 0) };
        let (at, lane) = s.pass.replace(pass);
        if read || at != pass.0 || lane >= pass.1 {
            s.last.set(clock.ticks());
        }
        (retries, s.last.get())
    })
}

/// [`DeviceAllocator`] wrapper that records a `MallocEnd` or `FreeEnd`
/// event (with latency and CAS-retry payloads) for every entry point of the
/// wrapped manager: one event per call, plus one for every further lane of
/// a collective call (the occupancy replay needs every pointer).
///
/// Events are stamped per warp pass, as the paper times launches: a call
/// reads the clock when it returns if it is timed, collective, or not the
/// next lane of the warp this thread stamped last (other SM or warp, or a
/// lane at or below the last); else it takes the thread's last reading. So
/// stamps on a thread never decrease, and equal ones sit on one SM's shard,
/// in claim order. One call in [`TIMED_ONE_IN`] per thread also reads the
/// clock as it starts and records its latency; every other call records
/// latency 0. A collective call is one call: its lanes share one latency.
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

    /// Runs `op`, issued on SM `sm` by `lane` of `warp` (`None`: all lanes),
    /// in a fresh retry scope and stamps its end as [`Traced`] says, in
    /// nanoseconds. Returns its result, the end timestamp, the latency and
    /// the retries noted meanwhile. The latency is 0 unless the call is one
    /// in [`TIMED_ONE_IN`] on this thread, which also reads the clock before
    /// `op`; a timed latency is clamped to 1 ns: the operation took nonzero
    /// time even when the clock's granularity says otherwise.
    ///
    /// When `sm`'s shard is already full, every event of the operation will
    /// be dropped, so the clock is not read and the end stamp is 0; the
    /// retry scope still opens, so an enclosing `Traced` keeps only its own
    /// layer's retries. `op` has one call site on purpose: a second one in
    /// an early return for the full case cost the recording path 3–5 ns.
    #[inline]
    fn timed<R>(
        &self,
        sm: u32,
        warp: u32,
        lane: Option<u32>,
        op: impl FnOnce() -> R,
    ) -> (R, u64, u64, u64) {
        let clock = &self.rec.clock;
        let stamped = !self.rec.is_full(sm);
        let (enclosing, sampled) = begin_op_scope();
        let timed = stamped && sampled;
        let t0 = if timed { clock.ticks() } else { 0 };
        let r = op();
        let pass = (u64::from(sm) << 32 | u64::from(warp), lane.unwrap_or(u32::MAX));
        let stamp = stamped.then_some((clock, pass, timed || lane.is_none()));
        let (retries, t1) = end_op_scope(enclosing, stamp);
        let (end, latency) = if stamped {
            let latency = if timed {
                ticks_to_ns(t1.saturating_sub(t0), clock.ns_per_tick).max(1)
            } else {
                0
            };
            (clock.ns(t1), latency)
        } else {
            (0, 0)
        };
        (r, end, latency, retries)
    }
}

// `drain` forwards without events of its own: the inner drain's frees are
// magazine publications, not caller-visible free calls, so this layer has
// no operation to record.
impl<A: DeviceAllocator> crate::traits::Layer for Traced<A> {
    type Inner = A;

    fn inner(&self) -> &A {
        &self.inner
    }

    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        let (r, t1, latency, retries) =
            self.timed(ctx.sm, ctx.warp, Some(ctx.lane), || self.inner.malloc(ctx, size));
        let ptr = r.as_ref().map_or(u64::MAX, |p| p.raw());
        self.rec.emit_at(t1, ctx.sm, EventKind::MallocEnd, [ptr, size, latency, retries]);
        r
    }

    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        let (r, t1, latency, retries) =
            self.timed(ctx.sm, ctx.warp, Some(ctx.lane), || self.inner.free(ctx, ptr));
        let args = [ptr.raw(), latency, retries, r.is_ok() as u64];
        self.rec.emit_at(t1, ctx.sm, EventKind::FreeEnd, args);
        r
    }

    fn malloc_warp(
        &self,
        warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        let (r, t1, latency, mut retries) =
            self.timed(warp.sm, warp.warp, None, || self.inner.malloc_warp(warp, sizes, out));
        if r.is_ok() {
            // The first lane carries all the collective's retries.
            for (&size, ptr) in sizes.iter().zip(out.iter()) {
                let args = [ptr.raw(), size, latency, std::mem::take(&mut retries)];
                self.rec.emit_at(t1, warp.sm, EventKind::MallocEnd, args);
            }
        } else {
            // Saturating: a refused warp may hold a near-max lane.
            let asked = sizes.iter().fold(0u64, |sum, &s| sum.saturating_add(s));
            let args = [u64::MAX, asked, latency, retries];
            self.rec.emit_at(t1, warp.sm, EventKind::MallocEnd, args);
        }
        r
    }

    fn free_warp(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        let (r, t1, latency, mut retries) =
            self.timed(warp.sm, warp.warp, None, || self.inner.free_warp(warp, ptrs));
        // `ok` reflects the collective result: `free_warp` reports only the
        // first error, so on Err the occupancy replay conservatively keeps
        // all lanes live. As in `malloc_warp`, the first live lane carries
        // the retries.
        let ok = r.is_ok() as u64;
        for ptr in ptrs.iter().filter(|p| !p.is_null()) {
            let args = [ptr.raw(), latency, std::mem::take(&mut retries), ok];
            self.rec.emit_at(t1, warp.sm, EventKind::FreeEnd, args);
        }
        r
    }

    fn free_warp_all(&self, warp: &WarpCtx) -> Result<u64, AllocError> {
        let (r, t1, latency, retries) =
            self.timed(warp.sm, warp.warp, None, || self.inner.free_warp_all(warp));
        // Bulk free: the individual pointers are the manager's private
        // state, so the event carries the null sentinel and the occupancy
        // replay leaves these allocations in place (documented limitation
        // for FDGMalloc-style tidy-up).
        let args = [u64::MAX, latency, retries, r.is_ok() as u64];
        self.rec.emit_at(t1, warp.sm, EventKind::FreeEnd, args);
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
    /// Nanoseconds one read of the recorder's clock took (0 when unknown).
    pub clock_read_ns: u64,
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
}

/// Per-operation latency histograms extracted from a trace: a sample of
/// the operations, the one call in [`TIMED_ONE_IN`] per thread that
/// [`Traced`] timed. The trace's event counts are the operation counts.
#[derive(Clone, Debug, Default)]
pub struct OpLatencies {
    /// Latency of timed `malloc`/`malloc_warp` operations (per lane for
    /// collective calls).
    pub malloc: LatencyHistogram,
    /// Latency of timed `free`/`free_warp`/`free_warp_all` operations.
    pub free: LatencyHistogram,
}

impl OpLatencies {
    /// Builds the histograms from every timed `MallocEnd`/`FreeEnd` event
    /// in the trace (failed mallocs included — a refusal takes time too).
    pub fn from_trace(trace: &Trace) -> Self {
        let mut out = OpLatencies::default();
        for e in &trace.events {
            match (e.kind, e.latency()) {
                (EventKind::MallocEnd, Some(ns)) => out.malloc.record(ns),
                (EventKind::FreeEnd, Some(ns)) => out.free.record(ns),
                _ => {}
            }
        }
        out
    }
}

/// The live set a stream of trace events replays into: every block granted
/// by a [`TraceEvent::grant`] and not yet retired by a
/// [`TraceEvent::release`]. The one replay behind [`chrome_trace_json`]
/// and `repro trace`'s summary.
///
/// A pointer granted again while still live (its `FreeEnd` was lost to a
/// full shard, or a bulk `free_warp_all` released it without naming it)
/// takes the new size, and the live bytes change by the difference.
#[derive(Clone, Debug, Default)]
pub struct LiveSet {
    blocks: HashMap<u64, u64>,
    bytes: u64,
    unmatched_frees: u64,
}

impl LiveSet {
    /// An empty live set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays `e`. `None` when it is neither a grant nor a release;
    /// otherwise whether it opened a block that was not live (a grant) or
    /// closed one that was (a release).
    pub fn apply(&mut self, e: &TraceEvent) -> Option<bool> {
        if let Some((ptr, size)) = e.grant() {
            // Added before the old size is taken off: `bytes` holds it.
            self.bytes += size;
            let old = self.blocks.insert(ptr, size);
            self.bytes -= old.unwrap_or(0);
            Some(old.is_none())
        } else if let Some(ptr) = e.release() {
            let size = self.blocks.remove(&ptr);
            self.bytes -= size.unwrap_or(0);
            self.unmatched_frees += u64::from(size.is_none());
            Some(size.is_some())
        } else {
            None
        }
    }

    /// Bytes live.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Allocations live.
    pub fn allocs(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Releases of a pointer the replay never saw granted (`MallocEnd`
    /// events lost to ring drops, or frees before the trace began).
    pub fn unmatched_frees(&self) -> u64 {
        self.unmatched_frees
    }

    /// The live set as one point of the exported occupancy counter track.
    fn occupancy_at(&self, ts_ns: u64) -> OccupancySample {
        OccupancySample { ts_ns, live_bytes: self.bytes, live_allocs: self.allocs() }
    }

    /// Fragmentation of the live set ([`FragmentationStats`]): percent by
    /// which the address range the live blocks span exceeds their bytes.
    /// It walks the set.
    pub fn frag_percent(&self) -> f64 {
        let mut range = AddressRange::new();
        for (&ptr, &size) in &self.blocks {
            range.record(DevicePtr::new(ptr), size);
        }
        FragmentationStats::from_range(&range).percent_over_baseline()
    }
}

/// One point of the exported heap-occupancy counter track.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct OccupancySample {
    /// Timestamp of the alloc/free event that produced this sample.
    ts_ns: u64,
    /// Bytes live (allocated, not yet freed) at this instant.
    live_bytes: u64,
    /// Allocations live at this instant.
    live_allocs: u64,
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

/// Microseconds with sub-µs precision, the unit Chrome trace `ts`/`dur`
/// fields use.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Exports the trace as Chrome trace-event JSON (the "JSON array format"),
/// loadable in Perfetto (`ui.perfetto.dev`) and `chrome://tracing`.
///
/// Layout: one thread track per SM carrying complete (`"X"`) slices for
/// malloc/free operations — an operation [`Traced`] did not time is a
/// zero-length slice at the instant it returned — a separate track for
/// launch spans, async (`"b"`/`"e"`) spans tying each successful allocation
/// to its free, and counter (`"C"`) tracks for live heap bytes, live
/// allocation count and CAS-retry rate. Every `LaunchEnd` also closes a
/// `launch window` counter sample: the mallocs, frees and retries since the
/// previous one, the timed mallocs' p50/p99, and the live set's bytes and
/// fragmentation at that instant. Instant (`"i"`) events mark OOM
/// fallbacks and sanitizer violations. The `process_name` metadata carries
/// the events the recorder dropped and one clock read's cost
/// (`clock_read_ns`). Every event carries
/// `ph`/`ts`/`pid`/`tid`.
///
/// One pass over the events feeds every track; the live set is one
/// [`LiveSet`] replay.
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
         \"args\":{{\"name\":{},\"dropped\":{},\"clock_read_ns\":{}}}}}",
        quote(&format!("gpumemsurvey trace: {label}")),
        trace.dropped,
        trace.clock_read_ns
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

    // Launch-begin events waiting for their close: launch id -> begin ts.
    let mut open_launches: HashMap<u64, u64> = HashMap::new();
    // Allocation spans open and close with the live set's blocks.
    let mut live = LiveSet::new();
    let mut occupancy: Vec<OccupancySample> = Vec::new();
    // The launch window since the previous `LaunchEnd`.
    let (mut mallocs, mut frees, mut retries) = (0u64, 0u64, 0u64);
    let mut malloc_ns = LatencyHistogram::new();
    // CAS retries binned over the trace span.
    let t0 = trace.events.first().map_or(0, |e| e.ts_ns);
    let bin_ns = (trace.span_ns() / EXPORT_RETRY_BINS as u64).max(1);
    let mut retry_bins = [0u64; EXPORT_RETRY_BINS];

    for e in &trace.events {
        let sm = e.sm;
        let opened = live.apply(e);
        if opened.is_some() {
            occupancy.push(live.occupancy_at(e.ts_ns));
        }
        let op_retries = match e.kind {
            EventKind::MallocEnd => e.args[3],
            EventKind::FreeEnd => e.args[2],
            _ => 0,
        };
        retries += op_retries;
        retry_bins[(((e.ts_ns - t0) / bin_ns) as usize).min(EXPORT_RETRY_BINS - 1)] += op_retries;
        match e.kind {
            EventKind::MallocEnd => {
                mallocs += 1;
                if let Some(ns) = e.latency() {
                    malloc_ns.record(ns);
                }
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
                if opened == Some(true) {
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
                frees += 1;
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
                if opened == Some(true) {
                    push(format!(
                        "{{\"ph\":\"e\",\"ts\":{},\"pid\":0,\"tid\":{sm},\"cat\":\"alloc\",\
                         \"name\":\"allocation\",\"id\":\"{:#x}\"}}",
                        us(e.ts_ns),
                        e.args[0]
                    ));
                }
            }
            EventKind::LaunchBegin => {
                open_launches.insert(e.args[0], e.ts_ns);
            }
            EventKind::LaunchEnd => {
                if let Some(begin) = open_launches.remove(&e.args[0]) {
                    push(format!(
                        "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\
                         \"tid\":{LAUNCH_TRACK_TID},\"cat\":\"launch\",\
                         \"name\":\"launch {}\",\"args\":{{\"elapsed_ns\":{}}}}}",
                        us(begin),
                        us(e.ts_ns.saturating_sub(begin)),
                        e.args[0],
                        e.args[1]
                    ));
                }
                push(format!(
                    "{{\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"name\":\"launch window\",\
                     \"args\":{{\"mallocs\":{mallocs},\"frees\":{frees},\"retries\":{retries},\
                     \"malloc_p50_ns\":{},\"malloc_p99_ns\":{},\"live_bytes\":{},\
                     \"frag_percent\":{:.2}}}}}",
                    us(e.ts_ns),
                    malloc_ns.p50(),
                    malloc_ns.p99(),
                    live.bytes(),
                    live.frag_percent()
                ));
                (mallocs, frees, retries) = (0, 0, 0);
                malloc_ns = LatencyHistogram::new();
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
        }
    }

    // Counter tracks: heap occupancy, then the CAS-retry rate.
    for s in &decimate(occupancy, EXPORT_COUNTER_SAMPLES) {
        push(format!(
            "{{\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"name\":\"heap occupancy\",\
             \"args\":{{\"live_bytes\":{},\"live_allocs\":{}}}}}",
            us(s.ts_ns),
            s.live_bytes,
            s.live_allocs
        ));
    }
    if trace.span_ns() > 0 {
        for (i, &n) in retry_bins.iter().enumerate() {
            // Only emit non-empty bins and their edges to keep files small;
            // Perfetto draws steps between samples.
            let prev = i.checked_sub(1).map(|p| retry_bins[p]).unwrap_or(0);
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
/// The document is read with [`Json::parse`], so malformed JSON — not just
/// missing keys — is rejected; the parser's lenient `NaN`/`Infinity` tokens
/// are refused here, anywhere in the document, since trace viewers do not
/// accept them.
pub fn validate_chrome_json(s: &str) -> Result<usize, String> {
    let doc = Json::parse(s).map_err(|(at, why)| format!("byte {at}: {why}"))?;
    if !all_finite(&doc) {
        return Err("non-finite number (NaN or Infinity)".into());
    }
    let events = doc.as_array().ok_or("top level must be an array")?;
    for (i, event) in events.iter().enumerate() {
        let keys = event.as_object().ok_or_else(|| format!("event {i} is not an object"))?;
        for required in ["ph", "ts", "pid", "tid"] {
            if !keys.iter().any(|(k, _)| k == required) {
                return Err(format!("event {i} is missing required key \"{required}\""));
            }
        }
    }
    Ok(events.len())
}

fn all_finite(v: &Json) -> bool {
    match v {
        Json::Number(n) => n.is_finite(),
        Json::Array(items) => items.iter().all(all_finite),
        Json::Object(fields) => fields.iter().all(|(_, v)| all_finite(v)),
        Json::Null | Json::Bool(_) | Json::String(_) => true,
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::{Counter, DeviceHeap, ManagerInfo, Metrics, RegisterFootprint};
    use std::collections::HashSet;

    fn ev(ts: u64, kind: EventKind, sm: u32, args: [u64; 4]) -> TraceEvent {
        TraceEvent { ts_ns: ts, kind, sm, args }
    }

    #[test]
    fn emit_and_snapshot_roundtrip() {
        let rec = TraceRecorder::new(4, 16);
        rec.emit_at(10, 1, EventKind::OomFallback, [1, 0, 0, 0]);
        rec.emit_at(20, 1, EventKind::MallocEnd, [0x100, 64, 10, 3]);
        rec.emit_at(5, 2, EventKind::FreeEnd, [0x100, 7, 1, 1]);
        let t = rec.snapshot();
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped, 0);
        // Sorted by timestamp.
        assert_eq!(t.events[0].kind, EventKind::FreeEnd);
        assert_eq!(t.events[0].sm, 2);
        assert_eq!(t.events[1], ev(10, EventKind::OomFallback, 1, [1, 0, 0, 0]));
        assert_eq!(t.events[2].args, [0x100, 64, 10, 3]);
        assert_eq!(rec.recorded(), 3);
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
        // Drop-newest costs no claim: the slot counter stops at capacity.
        assert_eq!(rec.shards[0].claimed.load(Ordering::Relaxed), 4, "full ring: no claim");
    }

    #[test]
    #[should_panic(expected = "no room for 4294967296 trace shards")]
    fn ring_beyond_the_address_space_is_rejected_before_it_is_mapped() {
        let _ = TraceRecorder::new(u32::MAX, 1 << 30);
    }

    /// A ring far from a page multiple (4 shards × 5 slots, 960 bytes):
    /// each SM's shard holds its five events, the sixteenth is dropped.
    #[test]
    fn small_ring_round_trips_events_on_every_shard() {
        let rec = TraceRecorder::new(3, 5);
        assert_eq!(rec.ring.len(), 4 * 5 * 48);
        for i in 0..15u32 {
            let ptr = u64::from(i) * 64;
            rec.emit_at(100 + u64::from(i), i % 3, EventKind::MallocEnd, [ptr, 64, 10, 0]);
        }
        rec.emit_at(200, 1, EventKind::MallocEnd, [0x4000, 64, 10, 0]);
        assert_eq!((rec.recorded(), rec.dropped()), (15, 1));
        let t = rec.snapshot();
        for sm in 0..3 {
            let ptrs: Vec<u64> =
                t.events.iter().filter(|e| e.sm == sm).map(|e| e.args[0]).collect();
            let expect: Vec<u64> = (0..5).map(|k| u64::from(sm + 3 * k) * 64).collect();
            assert_eq!(ptrs, expect, "sm {sm}");
        }
    }

    /// A recorder is address space until events land: the writer of a
    /// shard's first event commits that shard whole, a shard no event lands
    /// on stays out of memory — the fold-over shards 80–127 of an 80-SM
    /// recorder page in only when an out-of-range SM id lands on one — and
    /// dropping the recorder unmaps all of it.
    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn shards_page_in_on_their_first_event_and_drop_unmaps() {
        use crate::backend::probe::{is_mapped, resident_bytes};
        let shard_bytes = DEFAULT_EVENTS_PER_SM * 48;
        // Shards are 384 KiB in a huge-page advised ring, so one write can
        // page in a whole 2 MiB page around it. Shard 7 (2.6–3 MiB) lies
        // inside one such page; shard 10 (3.75–4.1 MiB) straddles two, and
        // only a commit pages in its second. Shard 40 (15 MiB in) is more
        // than a huge page from every shard written here (100 is 37.5 MiB
        // in, on a fold-over SM id).
        let far = 40 * shard_bytes;
        // Another test thread may map the hole the instant it opens: one
        // sighting of the address unmapped is the proof (a leak never shows).
        let unmapped = (0..8).any(|_| {
            let rec = TraceRecorder::new(80, DEFAULT_EVENTS_PER_SM);
            let base = rec.ring.base() as usize;
            assert_eq!(rec.ring.len(), 128 * shard_bytes);
            assert_eq!(resident_bytes(base, 128 * shard_bytes), 0, "new commits nothing");
            let written = [7, 10, 100];
            for (ts, &sm) in written.iter().enumerate() {
                rec.emit_at(ts as u64, sm, EventKind::OomFallback, [u64::from(sm), 0, 0, 0]);
                let shard = base + sm as usize * shard_bytes;
                assert_eq!(resident_bytes(shard, shard_bytes), shard_bytes, "shard {sm}");
                assert_eq!(resident_bytes(base + far, shard_bytes), 0, "shard 40 saw no event");
            }
            let events = rec.snapshot().events;
            let expect: Vec<TraceEvent> = (written.iter().enumerate())
                .map(|(ts, &sm)| {
                    ev(ts as u64, EventKind::OomFallback, sm, [u64::from(sm), 0, 0, 0])
                })
                .collect();
            assert_eq!(events, expect);
            drop(rec);
            !is_mapped(base)
        });
        assert!(unmapped);
    }

    #[test]
    fn sm_ids_fold_into_shards() {
        let rec = TraceRecorder::new(4, 8);
        // SM 5 folds into shard 1 (mask 3) but the event keeps its real id.
        rec.emit_at(1, 5, EventKind::OomFallback, [9, 0, 0, 0]);
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

    /// Four threads race for slot 0 of one fresh shard, so the commit runs
    /// while the losers already write slots 1.. of it: it keeps their
    /// words, and every event decodes whole. Eight fresh recorders, since
    /// one race is one draw of the interleaving.
    #[test]
    fn racing_first_claims_keep_every_event_whole() {
        for _ in 0..8 {
            let rec = Arc::new(TraceRecorder::new(2, 4096));
            let start = Arc::new(std::sync::Barrier::new(4));
            let threads: Vec<_> = (0..4u64)
                .map(|t| {
                    let (rec, start) = (Arc::clone(&rec), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        for i in 0..1000u64 {
                            rec.emit_at(i, 1, EventKind::MallocEnd, [t, i, t ^ i, !i]);
                        }
                    })
                })
                .collect();
            for h in threads {
                h.join().unwrap();
            }
            assert_eq!((rec.recorded(), rec.dropped()), (4000, 0));
            let mut seen = HashSet::new();
            for e in rec.snapshot().events {
                let [thread, i, mix, not_i] = e.args;
                assert_eq!((e.ts_ns, e.sm, mix, not_i), (i, 1, thread ^ i, !i), "torn: {e:?}");
                assert!(seen.insert((thread, i)), "decoded twice: {e:?}");
            }
            assert_eq!(seen.len(), 4000, "events lost");
        }
    }

    #[test]
    fn event_kind_tags_roundtrip() {
        for tag in 1..=EVENT_KINDS as u32 {
            let kind = EventKind::from_tag(tag).expect("every tag up to EVENT_KINDS decodes");
            assert_eq!(kind.tag(), u64::from(tag), "{}", kind.name());
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
    fn op_latencies_split_malloc_and_free() {
        let t = Trace {
            events: vec![
                ev(10, EventKind::MallocEnd, 0, [0x40, 64, 100, 0]),
                ev(20, EventKind::MallocEnd, 0, [u64::MAX, 64, 900, 2]),
                ev(30, EventKind::FreeEnd, 0, [0x40, 50, 0, 1]),
                ev(40, EventKind::LaunchEnd, 0, [0, 0, 0, 0]),
                // Untimed: stamped, latency word 0, in no histogram.
                ev(50, EventKind::MallocEnd, 0, [0x80, 64, 0, 0]),
                ev(60, EventKind::FreeEnd, 0, [0x80, 0, 0, 1]),
            ],
            dropped: 0,
            clock_read_ns: 0,
        };
        let lat = OpLatencies::from_trace(&t);
        assert_eq!(lat.malloc.count(), 2);
        assert_eq!(lat.free.count(), 1);
        let latencies: Vec<_> = t.events.iter().map(TraceEvent::latency).collect();
        assert_eq!(latencies, [Some(100), Some(900), Some(50), None, None, None]);
        assert_eq!(lat.malloc.max_ns(), 900);
        assert_eq!(lat.free.max_ns(), 50);
    }

    /// `(live bytes, live allocations)` after each grant or release of `t`,
    /// and the live set they leave.
    fn replay(t: &Trace) -> (Vec<(u64, u64)>, LiveSet) {
        let mut set = LiveSet::new();
        let steps = (t.events.iter())
            .filter_map(|e| set.apply(e).map(|_| (set.bytes(), set.allocs())))
            .collect();
        (steps, set)
    }

    #[test]
    fn live_set_replay_tracks_live_bytes() {
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
            clock_read_ns: 0,
        };
        let (steps, set) = replay(&t);
        assert_eq!(steps, [(100, 1), (150, 2), (50, 1), (50, 1)]);
        assert_eq!(set.unmatched_frees(), 1);
    }

    /// A pointer granted again while it is still live (its `FreeEnd` lost
    /// to a full shard, or released by a bulk free that names no pointer)
    /// takes its new size: the release then leaves nothing live, where
    /// keeping the old size would underflow the live bytes.
    #[test]
    fn live_set_replay_of_a_regrant_takes_the_new_size() {
        let t = Trace {
            events: vec![
                ev(1, EventKind::MallocEnd, 0, [0, 16, 0, 0]),
                ev(2, EventKind::MallocEnd, 0, [0, 64, 0, 0]),
                ev(3, EventKind::FreeEnd, 0, [0, 0, 0, 1]),
            ],
            dropped: 0,
            clock_read_ns: 0,
        };
        let (steps, set) = replay(&t);
        assert_eq!(steps, [(16, 1), (64, 1), (0, 0)]);
        assert_eq!(set.unmatched_frees(), 0);
        let mut set = LiveSet::new();
        let opened: Vec<Option<bool>> = t.events.iter().map(|e| set.apply(e)).collect();
        assert_eq!(opened, [Some(true), Some(false), Some(true)], "the re-grant opens no block");
        validate_chrome_json(&chrome_trace_json(&t, "regrant")).expect("export must be valid");
    }

    #[test]
    fn occupancy_decimation_keeps_last_sample() {
        let raw: Vec<OccupancySample> = (0..100)
            .map(|i| OccupancySample { ts_ns: i, live_bytes: i * 64, live_allocs: i })
            .collect();
        let last = *raw.last().unwrap();
        let thin = decimate(raw, 10);
        assert!(thin.len() <= 11, "got {}", thin.len());
        assert_eq!(thin.last(), Some(&last));
    }

    #[test]
    fn chrome_export_validates_and_carries_tracks() {
        let t = Trace {
            events: vec![
                ev(1000, EventKind::LaunchBegin, 0, [0, 64, 2, 0]),
                ev(1200, EventKind::MallocEnd, 1, [0x80, 64, 100, 7]),
                ev(1300, EventKind::FreeEnd, 1, [0x80, 50, 1, 1]),
                ev(1400, EventKind::MallocEnd, 1, [0xc0, 64, 0, 0]),
                ev(1500, EventKind::OomFallback, 1, [1, 0, 0, 0]),
                ev(1600, EventKind::SanitizerViolation, 2, [3, 64, 16, 0]),
                ev(1700, EventKind::LaunchEnd, 0, [0, 700, 0, 0]),
            ],
            dropped: 0,
            clock_read_ns: 0,
        };
        let json = chrome_trace_json(&t, "test \"quoted\" label");
        let n = validate_chrome_json(&json).expect("export must be valid");
        assert!(n >= 6, "expected metadata + events, got {n}");
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
            // The untimed malloc: a zero-length slice where it returned.
            "\"ts\":1.400,\"dur\":0.000",
            // The launch's window: both mallocs and the free with their
            // retries, the one timed malloc, and the 64 B left live.
            "\"name\":\"launch window\",\"args\":{\"mallocs\":2,\"frees\":1,\"retries\":8,\
             \"malloc_p50_ns\":100,\"malloc_p99_ns\":100,\"live_bytes\":64,\"frag_percent\":0.00}",
            "\"dropped\":0",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert_eq!(json.matches("launch window").count(), 1, "one window per LaunchEnd");

        // The export reports its own losses and its clock's cost: a shard
        // that filled up shows its drops in the process metadata, beside
        // the clock read the recorder measured when it was built.
        let rec = TraceRecorder::new(1, 2);
        for i in 0..5 {
            rec.emit_at(i, 0, EventKind::MallocEnd, [i * 64, 64, 0, 0]);
        }
        let trace = rec.snapshot();
        assert_eq!(trace.clock_read_ns, rec.clock_read_ns);
        let json = chrome_trace_json(&trace, "full shard");
        validate_chrome_json(&json).expect("export must be valid");
        assert!(json.contains("\"name\":\"gpumemsurvey trace: full shard\",\"dropped\":3"));
        let doc = Json::parse(&json).expect("strict JSON");
        let field = |obj: &Json, key: &str| {
            let fields = obj.as_object().expect("an object");
            fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).expect(key)
        };
        let meta = field(&doc.as_array().expect("an array")[0], "args");
        let read_ns = field(&meta, "clock_read_ns").as_number();
        assert_eq!(read_ns, Some(rec.clock_read_ns as f64), "{json}");
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
    fn validator_rejects_what_strict_json_rejects() {
        let event = |extra: &str| format!("[{{\"ph\":\"X\",\"ts\":1,\"pid\":0,\"tid\":0{extra}}}]");
        assert_eq!(validate_chrome_json(&event(",\"args\":{\"a\":\"b\"}")), Ok(1));
        for bad in [
            event(",\"dur\":NaN"),
            event(",\"dur\":Infinity"),
            event(",\"dur\":-Infinity"),
            event(",\"args\":[1,]"),
            event(",\"args\":{\"a\" 1}"),
            event(",\"name\":\"unterminated"),
        ] {
            assert!(validate_chrome_json(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn retry_accumulator_is_per_thread() {
        let (enclosing, _) = begin_op_scope();
        note_op_retries(5);
        note_op_retries(2);
        let h = std::thread::spawn(|| {
            let (enclosing, _) = begin_op_scope();
            note_op_retries(100);
            end_op_scope(enclosing, None).0
        });
        assert_eq!(h.join().unwrap(), 100);
        assert_eq!(end_op_scope(enclosing, None).0, 7);
        assert_eq!(end_op_scope(None, None).0, 0, "no open scope drains to zero");
    }

    #[test]
    fn retries_outside_any_scope_are_dropped() {
        note_op_retries(9);
        let (enclosing, _) = begin_op_scope();
        assert_eq!(
            end_op_scope(enclosing, None).0,
            0,
            "orphan retries must not leak into the next op"
        );
    }

    #[test]
    fn nested_scopes_attribute_retries_per_layer() {
        let (none, _) = begin_op_scope(); // outer wrapper's operation
        note_op_retries(2); // middle layer's own retries
        let (outer, _) = begin_op_scope(); // inner wrapper's operation
        note_op_retries(3); // innermost manager's retries
        assert_eq!(end_op_scope(outer, None).0, 3, "inner op sees only its own retries");
        assert_eq!(end_op_scope(none, None).0, 2, "outer op keeps the middle layer's retries");
    }

    /// A manager that notes 3 retries per `malloc`.
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
        fn malloc(&self, _ctx: &ThreadCtx, _size: u64) -> Result<DevicePtr, AllocError> {
            self.m.add(0, Counter::CasRetries, 3);
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

    /// A layer that notes 2 retries of its own per `malloc` before
    /// delegating (e.g. magazine CAS contention).
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
            self.m.add(ctx.sm, Counter::CasRetries, 2);
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

    /// `Traced<Middle<Traced<Inner>>>` over a one-SM ring of `capacity`
    /// slots, and the ring.
    fn nested_stack(capacity: usize) -> (impl DeviceAllocator, Arc<TraceRecorder>) {
        let rec = Arc::new(TraceRecorder::new(1, capacity));
        let m = Metrics::enabled(1).with_tracer(Arc::clone(&rec));
        let inner = Inner { heap: Arc::new(DeviceHeap::new(4096)), m: m.clone() };
        let stack = Traced::new(
            Middle { inner: Traced::new(inner, Arc::clone(&rec)), m: m.clone() },
            Arc::clone(&rec),
        );
        (stack, rec)
    }

    /// Regression test for the nested-decorator retry bridge: in
    /// `Traced<Middle<Traced<Inner>>>` the outer `MallocEnd` must carry
    /// only the middle layer's retries (2) and the inner `MallocEnd` only
    /// the innermost manager's (3) — with a single shared accumulator the
    /// inner wrapper's clear-on-begin destroyed the middle layer's count
    /// and its drain misattributed the total.
    #[test]
    fn nested_traced_wrappers_scope_retries_per_layer() {
        let (stack, rec) = nested_stack(16);
        stack.malloc(&ThreadCtx::host(), 64).unwrap();

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

    /// The tick-to-nanosecond conversion at fixed ratios: the identity,
    /// 2 ns per tick and 2 ticks per ns, and a century of a 3 GHz counter,
    /// whose product with the ratio only fits in 128 bits.
    #[test]
    fn clock_converts_ticks_at_a_fixed_ratio() {
        for t in [0, 1, 12_345, u64::MAX] {
            assert_eq!(ticks_to_ns(t, ONE_NS_PER_TICK), t);
        }
        assert_eq!(ticks_to_ns(1_000, 2 * ONE_NS_PER_TICK), 2_000);
        assert_eq!(ticks_to_ns(1_001, ONE_NS_PER_TICK / 2), 500);

        let ticks = 3_000_000_000u64 * 86_400 * 36_525;
        let ratio = ONE_NS_PER_TICK / 3;
        assert!(ticks.checked_mul(ratio).is_none(), "the product needs 128 bits");
        let ns = ticks_to_ns(ticks, ratio);
        assert!(ns <= ticks / 3 && ns >= ticks / 3 - (ticks >> 32) - 1, "{ns} vs {}", ticks / 3);

        let clock = Clock { tsc: false, ns_per_tick: 2 * ONE_NS_PER_TICK, origin: 100 };
        assert_eq!(clock.ns(150), 100, "counted from the origin");
        assert_eq!(clock.ns(50), 0, "a reading before the origin is the origin");
    }

    /// `Traced` converts its own raw reads on the recorder's clock: a
    /// `now_ns()` stamp taken between two operations sorts between their
    /// events, and one call in `TIMED_ONE_IN` carries a latency.
    #[test]
    fn traced_stamps_share_the_recorders_epoch() {
        let rec = Arc::new(TraceRecorder::new(1, 512));
        let m = Metrics::enabled(1).with_tracer(Arc::clone(&rec));
        let inner = Inner { heap: Arc::new(DeviceHeap::new(4096)), m };
        let a = Traced::new(inner, Arc::clone(&rec));
        let ctx = ThreadCtx::host();
        for i in 0..128 {
            let p = a.malloc(&ctx, 64).unwrap();
            rec.emit_at(rec.now_ns(), 0, EventKind::LaunchBegin, [i, 0, 0, 0]);
            a.free(&ctx, p).unwrap();
        }
        let trace = rec.snapshot();
        assert_eq!(trace.len(), 3 * 128);
        for (i, ops) in trace.events.chunks(3).enumerate() {
            let kinds: Vec<_> = ops.iter().map(|e| e.kind).collect();
            assert_eq!(
                kinds,
                [EventKind::MallocEnd, EventKind::LaunchBegin, EventKind::FreeEnd],
                "round {i}: {ops:?}"
            );
            assert_eq!(ops[1].args[0], i as u64);
        }
        let timed = trace.events.iter().filter_map(TraceEvent::latency).count();
        assert_eq!(timed, 2 * 128 / TIMED_ONE_IN as usize);
    }

    /// On a full shard `Traced` skips the clock but not the retry scope:
    /// each layer's event is still dropped once, and no layer's retries
    /// leak into the operation enclosing the stack.
    #[test]
    fn full_shard_drops_once_per_layer_and_keeps_retry_scopes() {
        let (stack, rec) = nested_stack(1);
        let ctx = ThreadCtx::host();
        // The inner wrapper takes the one slot; the outer one finds it full.
        stack.malloc(&ctx, 64).unwrap();
        assert_eq!((rec.recorded(), rec.dropped()), (1, 1));
        for round in 1..=3 {
            let (enclosing, _) = begin_op_scope();
            stack.malloc(&ctx, 64).unwrap();
            assert_eq!(end_op_scope(enclosing, None).0, 0, "round {round}: retries leaked outward");
            assert_eq!((rec.recorded(), rec.dropped()), (1, 1 + 2 * round));
        }
        assert_eq!(rec.snapshot().events[0].args[3], 3, "the recorded event kept its retries");
    }
}

// Loom model of the claim/publish protocol: two writers — a `Traced`-shaped
// `MallocEnd` and a point event — race for the first slot of an empty shard
// while a reader takes a snapshot, so the winner's commit of the shard
// runs between the claims, the loser's stores and the reads. With no
// shard-wide commit count, the per-slot tag is all that stands between the
// reader and a half-written slot. The shards are 192 bytes, so shard 1's
// commit covers the page that holds shard 0's slots too, one of them
// already published: the commit must keep it.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;

    #[test]
    fn loom_claim_commit_publishes_whole_slots() {
        crate::sync::model(|| {
            let rec = Arc::new(TraceRecorder::new(2, 4));
            rec.emit_at(5, 0, EventKind::CacheHit, [5; 4]);
            let writer = |ts: u64, kind: EventKind| {
                let rec = Arc::clone(&rec);
                crate::sync::thread::spawn(move || rec.emit_at(ts, 1, kind, [ts; 4]))
            };
            let malloc = writer(7, EventKind::MallocEnd);
            let oom = writer(9, EventKind::OomFallback);
            // Whatever a snapshot returns is whole: no word of a slot is torn.
            let whole = |t: &Trace| {
                for ev in &t.events {
                    let ts = match ev.kind {
                        EventKind::CacheHit => 5,
                        EventKind::MallocEnd => 7,
                        EventKind::OomFallback => 9,
                        other => panic!("nobody wrote a {other:?}"),
                    };
                    assert_eq!((ev.ts_ns, ev.args), (ts, [ts; 4]));
                }
            };
            whole(&rec.snapshot());
            malloc.join().unwrap();
            oom.join().unwrap();
            let all = rec.snapshot();
            whole(&all);
            assert_eq!(all.len(), 3, "every event published once the writers join");
            assert_eq!(rec.recorded(), 3);
        });
    }
}

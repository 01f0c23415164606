//! Experiment runners — one function per test-case family of Section 4.
//!
//! Every runner creates a *fresh* manager per cell (as the artifact's
//! scripts do between runs), executes the kernel(s) on the simulated
//! device, and returns what its callers read: the matrix scenarios turn it
//! into anchor metrics, `repro trace` into its latency CSV,
//! `tests/paper_shapes.rs` into its timing ratios. A result carries no
//! label of its cell; the caller knows which manager and size it asked
//! for. The allocate-then-free runners launch through
//! `gpu_workloads::round`, so how a manager frees is decided in one place.

use std::time::{Duration, Instant};

use gpu_sim::Device;
use gpu_workloads::round::{self, Round};
use gpu_workloads::{churn, sizes, workgen, write_test};
use gpumem_core::frag::{AddressRange, FragmentationStats};
use gpumem_core::sanitize::{Sanitized, VIOLATION_KINDS};
use gpumem_core::trace::{chrome_trace_json, EventKind, LiveSet, OpLatencies, Trace};
use gpumem_core::{
    AllocError, CounterSnapshot, DeviceAllocator, DevicePtr, HeapSpec, Pretouch, WarpCtx, WARP_SIZE,
};

use crate::registry::{ManagerBuilder, ManagerKind};

/// Timed rounds per [`alloc_timing`] cell, whose mean it reports (the
/// paper uses 100; the CPU port uses 2). The counted runners the matrix
/// calls run one round.
pub const TIMED_ROUNDS: u32 = 2;

/// The one per-cell timeout (the artifact's per-process cut, Fig. 11b's
/// hour): a perf cell that outlives it makes the matrix skip the manager's
/// larger sizes, and an OOM storm stops there.
pub const CELL_TIMEOUT: Duration = Duration::from_secs(30);

/// Shared experiment context.
pub struct Bench {
    /// The simulated device (spec + worker pool).
    pub device: Device,
    /// Workload seed.
    pub seed: u64,
    /// When set, overrides the demand-derived [`heap_for`] size for every
    /// cell — how `--heap-mb 8192` pins the paper's full 8 GiB heap — and
    /// reserves it [`Pretouch::Lazy`] (see [`pretouch_for`]).
    pub heap_override: Option<u64>,
    /// Wrap every manager in the `Cached` magazine decorator. A cached perf
    /// cell ([`alloc_perf`], [`mixed_perf`]) also runs one warm-up round
    /// before the round it counts.
    pub cached: bool,
}

impl Bench {
    /// Context with CPU-scaled defaults on the given device.
    pub fn new(device: Device) -> Self {
        Bench { device, seed: 0x5eed, heap_override: None, cached: false }
    }

    fn num_sms(&self) -> u32 {
        self.device.spec().num_sms
    }

    /// The builder every runner starts from: this context's SM count and
    /// magazine choice.
    pub fn builder(&self, kind: ManagerKind) -> ManagerBuilder {
        kind.builder().sms(self.num_sms()).cached(self.cached)
    }

    /// The heap spec for a cell with a demand of `num × max_size` bytes:
    /// [`heap_for`] sizing, unless overridden.
    pub fn heap_spec(&self, num: u32, max_size: u64) -> HeapSpec {
        self.heap_spec_bytes(heap_for(num, max_size))
    }

    /// Like [`Bench::heap_spec`] but surfaces a demand-computation overflow
    /// as a typed [`SizingError`] instead of saturating — the path matrix
    /// scenarios take, where a wrapped size must abort the anchor rather
    /// than silently under-provision it.
    pub fn try_heap_spec(&self, num: u32, max_size: u64) -> Result<HeapSpec, SizingError> {
        Ok(self.heap_spec_bytes(try_heap_for(num, max_size)?))
    }

    /// A heap spec of exactly `bytes`, unless overridden, committed as
    /// [`pretouch_for`] says.
    pub fn heap_spec_bytes(&self, bytes: u64) -> HeapSpec {
        HeapSpec::ram(self.heap_override.unwrap_or(bytes))
            .with_pretouch(pretouch_for(self.heap_override))
    }
}

/// The commit policy of a cell's heap. A demand-sized heap fits memory and
/// is committed in full, so no timed round takes a first-touch fault. A heap
/// the caller sized with `--heap-mb` may exceed RAM, as the paper's 8 GiB
/// heap does, so it is reserved sparse.
pub fn pretouch_for(heap_override: Option<u64>) -> Pretouch {
    if heap_override.is_some() {
        Pretouch::Lazy
    } else {
        Pretouch::Full
    }
}

/// Typed sizing failures of the demand arithmetic in this module. Before
/// these, `heap_for` and the graph demand sums used unchecked multiplies
/// that could wrap at matrix scale (1M–10M allocations × KiB-to-page sizes)
/// and silently under-provision the heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizingError {
    /// `num × max_size` does not fit in `u64`.
    DemandOverflow { num: u32, size: u64 },
    /// A per-vertex adjacency demand (`next_pow2(degree × 4)`) has no
    /// representable power-of-two size.
    AdjacencyOverflow { vertex: u32, degree: u64 },
    /// The per-vertex demand sum (plus update headroom) overflowed `u64`.
    DemandSumOverflow { vertices: u32 },
}

impl std::fmt::Display for SizingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SizingError::DemandOverflow { num, size } => {
                write!(f, "heap demand {num} x {size} B overflows u64")
            }
            SizingError::AdjacencyOverflow { vertex, degree } => {
                write!(f, "adjacency demand of vertex {vertex} (degree {degree}) overflows u64")
            }
            SizingError::DemandSumOverflow { vertices } => {
                write!(f, "graph demand sum over {vertices} vertices overflows u64")
            }
        }
    }
}

impl std::error::Error for SizingError {}

/// Sizes a per-manager heap for a demand of `num × max_size` bytes: six-fold
/// headroom (fragmentation, per-manager metadata, repeated iterations for
/// managers without free), clamped to sane host bounds.
///
/// On demand overflow the result saturates to the 6 GiB clamp ceiling —
/// the same size any over-demand cell gets — instead of wrapping below it.
/// Callers that must *distinguish* overflow use [`try_heap_for`].
pub fn heap_for(num: u32, max_size: u64) -> u64 {
    try_heap_for(num, max_size).unwrap_or(6 << 30)
}

/// Checked [`heap_for`]: a `num × max_size` product that does not fit in
/// `u64` is a typed [`SizingError`], not a wrapped (under-provisioned) size.
pub fn try_heap_for(num: u32, max_size: u64) -> Result<u64, SizingError> {
    let demand = (num as u64)
        .checked_mul(max_size.max(16))
        .ok_or(SizingError::DemandOverflow { num, size: max_size })?;
    let raw = (demand.saturating_mul(6)).clamp(64 << 20, 6 << 30);
    Ok(raw.div_ceil(4 << 20) * (4 << 20))
}

/// One cell of the allocation-performance experiments (Figures 9/10),
/// counted: one malloc and free round on a manager with metrics on.
#[derive(Clone, Debug)]
pub struct AllocPerfCell {
    /// Requests of the round that got no pointer.
    pub failures: u64,
    /// The round outlived [`CELL_TIMEOUT`]: the matrix skips the manager's
    /// larger sizes (the artifact's per-process timeout).
    pub timed_out: bool,
    /// Counter delta of the round.
    pub counters: CounterSnapshot,
}

/// Counts one (manager, size, num) cell of Fig. 9/10: `num` allocations of
/// `size` bytes (thread-based, or one per warp when `warp`), then the
/// matching deallocations.
pub fn alloc_perf(
    bench: &Bench,
    kind: ManagerKind,
    num: u32,
    size: u64,
    warp: bool,
) -> AllocPerfCell {
    perf_cell(bench, kind, num, size, |alloc, _| {
        if warp {
            round::malloc_warps(alloc, &bench.device, num, |_| size)
        } else {
            round::malloc_threads(alloc, &bench.device, num, |_| size)
        }
    })
}

/// Counts one mixed-allocation cell (Fig. 9h): per-thread sizes uniform in
/// `[4, upper]`, drawn afresh for every round.
pub fn mixed_perf(bench: &Bench, kind: ManagerKind, num: u32, upper: u64) -> AllocPerfCell {
    perf_cell(bench, kind, num, upper, |alloc, seed| {
        round::malloc_threads(alloc, &bench.device, num, |t| sizes::thread_size(seed, t, 4, upper))
    })
}

/// The round behind [`alloc_perf`] and [`mixed_perf`]: a fresh manager
/// sized for `num × size` with metrics on, one warm-up round when
/// `bench.cached`, then one malloc and free round at `bench.seed`; `malloc`
/// runs one allocation round for a round seed. The counters are the delta
/// across that round; on the inline device the delta is deterministic.
///
/// The warm-up round populates the magazine layer with its frees, so the
/// counted round sees the steady-state hot path instead of the cold first
/// fill. A distinct seed keeps the warm-up's size stream from matching the
/// counted round's exactly — the magazines must pay off via class
/// rounding, not size identity.
fn perf_cell(
    bench: &Bench,
    kind: ManagerKind,
    num: u32,
    size: u64,
    malloc: impl Fn(&dyn DeviceAllocator, u64) -> Round,
) -> AllocPerfCell {
    let alloc = bench.builder(kind).heap_spec(bench.heap_spec(num, size)).metrics(true).build();
    let (alloc, device) = (alloc.as_ref(), &bench.device);
    if bench.cached {
        round::free(alloc, device, &malloc(alloc, !bench.seed));
    }
    let before = alloc.metrics().snapshot();
    let started = Instant::now();
    let r = malloc(alloc, bench.seed);
    round::free(alloc, device, &r);
    AllocPerfCell {
        failures: r.failures,
        timed_out: started.elapsed() > CELL_TIMEOUT,
        counters: alloc.metrics().snapshot().delta_since(&before),
    }
}

/// Mean wall clock of a cell's malloc and free rounds.
#[derive(Clone, Copy, Debug)]
pub struct AllocTiming {
    pub alloc: Duration,
    /// `None` when the manager cannot free (Atomic).
    pub free: Option<Duration>,
}

/// Times a thread-based Fig. 9 cell: on one manager with metrics off,
/// [`TIMED_ROUNDS`] rounds of `num` allocations of `size` bytes and their
/// frees. The timing-ratio shapes read it; the matrix counts instead
/// ([`alloc_perf`]).
pub fn alloc_timing(bench: &Bench, kind: ManagerKind, num: u32, size: u64) -> AllocTiming {
    let alloc = bench.builder(kind).heap_spec(bench.heap_spec(num, size)).build();
    let (alloc, device) = (alloc.as_ref(), &bench.device);
    let mut alloc_total = Duration::ZERO;
    let mut free_total = Some(Duration::ZERO);
    for _ in 0..TIMED_ROUNDS {
        let r = round::malloc_threads(alloc, device, num, |_| size);
        alloc_total += r.elapsed;
        let freed = round::free(alloc, device, &r);
        free_total = free_total.zip(freed).map(|(total, t)| total + t);
    }
    AllocTiming { alloc: alloc_total / TIMED_ROUNDS, free: free_total.map(|t| t / TIMED_ROUNDS) }
}

/// One cell of the fragmentation experiment (Fig. 11a).
#[derive(Clone, Debug)]
pub struct FragCell {
    /// Address range after the initial `num` allocations.
    pub initial: FragmentationStats,
    /// Maximum address range observed across the alloc/free cycles.
    pub max_range_after_cycles: u64,
}

/// Runs the fragmentation test: `num` allocations of `size`, address range
/// recorded, then `cycles` iterations of free-all + allocate-all.
pub fn fragmentation(
    bench: &Bench,
    kind: ManagerKind,
    num: u32,
    size: u64,
    cycles: u32,
) -> FragCell {
    let alloc = bench.builder(kind).heap_spec(bench.heap_spec(num, size)).build();
    let (alloc, device) = (alloc.as_ref(), &bench.device);
    let range_of = |r: &Round| {
        let mut range = AddressRange::new();
        for &p in &r.ptrs {
            range.record(p, size);
        }
        range
    };

    let mut r = round::malloc_threads(alloc, device, num, |_| size);
    let initial = FragmentationStats::from_range(&range_of(&r));
    let mut max_range = initial.address_range;
    for _ in 0..cycles {
        // A manager that cannot free keeps its first layout: no cycles.
        if round::free(alloc, device, &r).is_none() {
            break;
        }
        r = round::malloc_threads(alloc, device, num, |_| size);
        max_range = max_range.max(range_of(&r).range());
    }
    FragCell { initial, max_range_after_cycles: max_range }
}

/// One cell of the out-of-memory experiment (Fig. 11b).
#[derive(Clone, Debug)]
pub struct OomCell {
    /// Achieved demand as a share of the heap the manager was built over
    /// (the "% of baseline" axis).
    pub utilization: f64,
    /// The storm outlived [`CELL_TIMEOUT`] before the first denial.
    pub timed_out: bool,
}

/// Allocates `size` until the manager reports OOM (or [`CELL_TIMEOUT`]
/// fires, like the artifact's one-hour kill) and reports heap utilization:
/// granted bytes over the heap the manager got, which is `heap_bytes`
/// unless `bench.heap_override` replaced it.
///
/// The storm runs through [`Device::launch`] in waves of four blocks, so
/// every request carries real launch coordinates (block size from the
/// device spec, not a hard-coded 256) and SM-scattered managers see the
/// thread/SM keys they shard by — a single-host-thread loop fabricating
/// `ThreadCtx`s fed every request through one shard and missed the
/// contention the figure is about.
pub fn oom(bench: &Bench, kind: ManagerKind, heap_bytes: u64, size: u64) -> OomCell {
    use gpumem_core::sync::{AtomicU64, Ordering};

    let alloc = bench.builder(kind).heap_spec(bench.heap_spec_bytes(heap_bytes)).build();
    let start = Instant::now();
    let mut count = 0u64;
    let mut timed_out = false;
    let wave = bench.device.spec().default_block_size * 4;
    loop {
        let granted = AtomicU64::new(0);
        let denied = AtomicU64::new(0);
        bench.device.launch(wave, |ctx| match alloc.malloc(ctx, size) {
            Ok(_) => {
                granted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                denied.fetch_add(1, Ordering::Relaxed);
            }
        });
        count += granted.load(Ordering::Relaxed);
        if denied.load(Ordering::Relaxed) > 0 {
            break;
        }
        if start.elapsed() > CELL_TIMEOUT {
            timed_out = true;
            break;
        }
    }
    OomCell {
        // f64 throughout: `count * size` in u64 can overflow once a full-tier
        // storm grants billions of bytes.
        utilization: count as f64 * size as f64 / alloc.heap().len() as f64,
        timed_out,
    }
}

/// One cell of the work-generation experiment (Fig. 11c/d) or of the
/// baseline series.
#[derive(Clone, Debug)]
pub struct WorkGenCell {
    /// Wall clock of the work-generation kernel.
    pub elapsed: Duration,
    pub failures: u64,
}

/// Work generation through a manager: allocate per-thread work and write it.
pub fn work_generation(
    bench: &Bench,
    kind: ManagerKind,
    threads: u32,
    lo: u64,
    hi: u64,
) -> WorkGenCell {
    let alloc = bench.builder(kind).heap_spec(bench.heap_spec(threads, hi)).build();
    let r = workgen::run_managed(alloc.as_ref(), &bench.device, threads, bench.seed, lo, hi);
    WorkGenCell { elapsed: r.elapsed, failures: r.failures }
}

/// The prefix-sum baseline row for the same workload.
pub fn work_generation_baseline(bench: &Bench, threads: u32, lo: u64, hi: u64) -> WorkGenCell {
    let heap = gpumem_core::DeviceHeap::try_new(bench.heap_spec(threads, hi))
        .unwrap_or_else(|e| panic!("{e}"));
    let r = workgen::run_baseline(&bench.device, &heap, threads, bench.seed, lo, hi);
    WorkGenCell { elapsed: r.elapsed, failures: r.failures }
}

/// One cell of the write/access-performance experiment (Fig. 11e).
#[derive(Clone, Debug)]
pub struct WriteCell {
    /// Memory transactions relative to the coalesced baseline (≥ 1.0).
    pub relative_cost: f64,
    pub failures: u64,
}

/// Prices each manager's allocation layout with the coalescing model.
pub fn write_performance(
    bench: &Bench,
    kind: ManagerKind,
    threads: u32,
    pattern: write_test::WritePattern,
) -> WriteCell {
    let max = match pattern {
        write_test::WritePattern::Uniform { bytes } => bytes,
        write_test::WritePattern::Mixed { hi, .. } => hi,
    };
    let alloc = bench.builder(kind).heap_spec(bench.heap_spec(threads, max)).build();
    let r = write_test::run(alloc.as_ref(), &bench.device, threads, bench.seed, pattern);
    WriteCell { relative_cost: r.stats.relative_cost(), failures: r.failures }
}

/// One cell of the graph-initialisation experiment (Fig. 11f).
#[derive(Clone, Debug)]
pub struct GraphCell {
    /// Wall clock of the build launch.
    pub elapsed: Duration,
    pub failures: u64,
}

/// Total adjacency-array demand of `csr` (each vertex's list rounded up to
/// the next power of two, 4 B per edge slot) plus 64 B of headroom per
/// expected update edge — all checked: a pathological degree or vertex
/// count surfaces as a [`SizingError`] instead of wrapping the sum and
/// under-provisioning the heap (the `next_pow2(degree*4)` sums were
/// previously unchecked).
pub fn graph_demand(csr: &dyn_graph::CsrGraph, extra_edges: u32) -> Result<u64, SizingError> {
    let mut demand = 0u64;
    for v in 0..csr.vertices() {
        let degree = csr.degree(v);
        let slot = degree
            .max(1)
            .checked_mul(4)
            .and_then(gpumem_core::util::checked_next_pow2)
            .ok_or(SizingError::AdjacencyOverflow { vertex: v, degree })?;
        demand = demand
            .checked_add(slot)
            .ok_or(SizingError::DemandSumOverflow { vertices: csr.vertices() })?;
    }
    demand
        .checked_add(extra_edges as u64 * 64)
        .ok_or(SizingError::DemandSumOverflow { vertices: csr.vertices() })
}

/// Graph initialisation (Fig. 11f).
pub fn graph_init(
    bench: &Bench,
    kind: ManagerKind,
    csr: &dyn_graph::CsrGraph,
) -> Result<GraphCell, SizingError> {
    let demand = graph_demand(csr, 0)?;
    let alloc = bench.builder(kind).heap_spec(bench.try_heap_spec(1, demand.max(1 << 20))?).build();
    let (g, elapsed) = dyn_graph::DynGraph::init(alloc.as_ref(), &bench.device, csr);
    Ok(GraphCell { elapsed, failures: g.failures() })
}

/// Graph updates (Fig. 11g): insert `n_edges`, focused or uniform, into a
/// freshly built graph; returns the failed allocations of build and
/// updates.
pub fn graph_update(
    bench: &Bench,
    kind: ManagerKind,
    csr: &dyn_graph::CsrGraph,
    n_edges: u32,
    focused: bool,
) -> Result<u64, SizingError> {
    // Updates grow a few adjacencies dramatically; generous headroom.
    let demand = graph_demand(csr, n_edges)?;
    let heap = bench.try_heap_spec(1, demand.max(1 << 20))?;
    let alloc = bench.builder(kind).heap_spec(heap).build();
    let (g, _) = dyn_graph::DynGraph::init(alloc.as_ref(), &bench.device, csr);
    let edges = if focused {
        dyn_graph::focused_edges(csr.vertices(), n_edges, 20, bench.seed)
    } else {
        dyn_graph::uniform_edges(csr.vertices(), n_edges, bench.seed)
    };
    g.insert_edges(&bench.device, &edges);
    Ok(g.failures())
}

/// One cell of the initialisation & register experiment (§4.1).
#[derive(Clone, Debug)]
pub struct InitCell {
    /// Wall clock of the manager's construction.
    pub init: Duration,
    pub malloc_regs: u32,
    pub free_regs: u32,
}

/// Measures manager construction time and the register-footprint proxy.
pub fn init_performance(bench: &Bench, kind: ManagerKind, heap_bytes: u64) -> InitCell {
    // Pre-create the heap so the measurement isolates the manager's own
    // initialisation, as the artifact does.
    let heap = std::sync::Arc::new(
        gpumem_core::DeviceHeap::try_new(bench.heap_spec_bytes(heap_bytes))
            .unwrap_or_else(|e| panic!("{e}")),
    );
    let start = Instant::now();
    let alloc = bench.builder(kind).heap_shared(heap).build();
    let init = start.elapsed();
    let regs = alloc.register_footprint();
    InitCell { init, malloc_regs: regs.malloc, free_regs: regs.free }
}

/// Result of one manager's traced run (`repro trace`): the decoded event
/// stream and what is derived from it.
#[derive(Clone, Debug)]
pub struct TraceRun {
    /// The decoded, time-sorted event stream.
    pub trace: Trace,
    /// Latency histograms of the timed ops (p50/p95/p99 in the CSV).
    pub latencies: OpLatencies,
    /// Peak live bytes and live allocations of the trace's live set.
    pub peak_live_bytes: u64,
    pub peak_live_allocs: u64,
    /// Address range every successful allocation of the trace touched.
    pub address_range: AddressRange,
    /// The live set at the end of the trace.
    pub live: LiveSet,
    /// Chrome trace-event JSON export (Perfetto-loadable).
    pub json: String,
}

/// Runs the mixed-size alloc/free workload on `kind` with the event-tracing
/// layer attached, and derives the latency histograms, one [`LiveSet`]
/// replay's peaks and address range, and the Perfetto export. A single traced
/// pass (no min-of-N averaging): the product here is the *time axis*, not a
/// robust scalar. Each round is bracketed by a `LaunchBegin`/`LaunchEnd`
/// pair on shard 0, which the Perfetto export draws as the launch track; a
/// manager that cannot free gets one launch.
pub fn trace_profile(bench: &Bench, kind: ManagerKind, num: u32, events_per_sm: usize) -> TraceRun {
    const SIZE_LO: u64 = 16;
    const SIZE_HI: u64 = 1024;
    let alloc = bench
        .builder(kind)
        .heap_spec(bench.heap_spec(num, SIZE_HI))
        .trace_capacity(events_per_sm)
        .build();
    let m = alloc.metrics();
    let rec = m.tracer().expect("trace_capacity attaches a recorder");
    // Launch `id` ran from `t0` until now, `elapsed` of it in the kernel.
    let (threads, warps) = (u64::from(num), u64::from(num.div_ceil(WARP_SIZE)));
    let span = |id: u64, t0: u64, elapsed: Duration| {
        rec.emit_at(t0, 0, EventKind::LaunchBegin, [id, threads, warps, 0]);
        rec.emit(0, EventKind::LaunchEnd, [id, elapsed.as_nanos() as u64, 0, 0]);
    };
    let t0 = rec.now_ns();
    let r = round::malloc_threads(alloc.as_ref(), &bench.device, num, |t| {
        sizes::thread_size(bench.seed, t, SIZE_LO, SIZE_HI)
    });
    span(0, t0, r.elapsed);
    let t1 = rec.now_ns();
    if let Some(free) = round::free(alloc.as_ref(), &bench.device, &r) {
        span(1, t1, free);
    }
    let trace = rec.snapshot();
    let latencies = OpLatencies::from_trace(&trace);
    let mut live = LiveSet::new();
    let (mut peak_live_bytes, mut peak_live_allocs) = (0, 0);
    let mut address_range = AddressRange::new();
    for e in &trace.events {
        live.apply(e);
        if let Some((ptr, size)) = e.grant() {
            address_range.record(DevicePtr::new(ptr), size);
        }
        peak_live_bytes = peak_live_bytes.max(live.bytes());
        peak_live_allocs = peak_live_allocs.max(live.allocs());
    }
    let json = chrome_trace_json(&trace, kind.label());
    TraceRun { trace, latencies, peak_live_bytes, peak_live_allocs, address_range, live, json }
}

/// One manager's row of the `sanitize` scenario: violation totals of a
/// churn + mixed-size run executed under [`Sanitized`].
#[derive(Clone, Debug)]
pub struct SanitizeCell {
    /// Allocation failures across both phases (not violations — a manager
    /// may legitimately refuse).
    pub failures: u64,
    /// Per-kind violation totals, indexed like
    /// [`gpumem_core::sanitize::ALL_VIOLATION_KINDS`].
    pub counts: [u64; VIOLATION_KINDS],
    /// Shadow-map allocations still live after the final free phase (> 0
    /// for managers without free support, or when frees failed).
    pub live_after: u64,
}

/// Runs the churn workload plus a mixed-size alloc/free phase on `kind`
/// wrapped in [`Sanitized`] (32 B canary redzones, poison-on-free) and
/// reports the violation totals.
pub fn sanitize_run(bench: &Bench, kind: ManagerKind, num: u32, cycles: u32) -> SanitizeCell {
    const MIXED_MAX: u64 = 1024;
    let inner = bench.builder(kind).heap_spec(bench.heap_spec(num, MIXED_MAX)).build();
    let san = Sanitized::new(inner);
    let mut failures = 0u64;

    // Phase 1: fixed-size churn (the paper's repeated alloc/free cycle).
    failures += churn::run(&san, &bench.device, num, 256, cycles);

    // Phase 2: mixed sizes in [16, 1024] — exercises class boundaries and
    // the redzone across every size class the manager serves.
    let r = round::malloc_threads(&san, &bench.device, num, |t| {
        sizes::thread_size(bench.seed, t, 16, MIXED_MAX)
    });
    failures += r.failures;
    round::free(&san, &bench.device, &r);

    let report = san.take_report();
    SanitizeCell { failures, counts: report.counts, live_after: report.live }
}

/// Sanity helper shared by tests and the quickstart example: allocate,
/// write, read back, free.
pub fn smoke_test(alloc: &dyn DeviceAllocator) -> Result<(), AllocError> {
    let ctx = gpumem_core::ThreadCtx::host();
    let p = alloc.malloc(&ctx, 256)?;
    alloc.heap().fill(p, 256, 0x5c);
    assert_eq!(alloc.heap().read_u8(p, 255), 0x5c);
    if alloc.info().supports_free {
        alloc.free(&ctx, p)?;
    } else if alloc.info().warp_level_only {
        alloc.free_warp_all(&WarpCtx { warp: 0, block: 0, sm: 0 })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn bench() -> Bench {
        Bench::new(Device::with_workers(DeviceSpec::titan_v(), 2))
    }

    #[test]
    fn heap_sizing_bounds() {
        assert_eq!(heap_for(1, 16) % (4 << 20), 0);
        assert!(heap_for(1, 16) >= 64 << 20);
        assert!(heap_for(1 << 20, 8192) <= 6 << 30);
        assert!(heap_for(100_000, 8192) >= 100_000 * 8192);
    }

    #[test]
    fn heap_sizing_overflow_is_typed_not_wrapped() {
        // u32::MAX allocations of 2^40 B: the demand product overflows u64.
        let err = try_heap_for(u32::MAX, 1 << 40).unwrap_err();
        assert!(matches!(err, SizingError::DemandOverflow { .. }), "{err}");
        assert!(err.to_string().contains("overflows"));
        // The infallible wrapper saturates to the clamp ceiling instead of
        // wrapping below it (the old `num as u64 * max_size` could yield a
        // tiny heap for a huge demand).
        assert_eq!(heap_for(u32::MAX, 1 << 40), 6 << 30);
        // Non-overflowing inputs agree between the two paths.
        assert_eq!(try_heap_for(100_000, 8192).unwrap(), heap_for(100_000, 8192));
    }

    #[test]
    fn graph_demand_checked_and_matches_scale() {
        let csr = dyn_graph::generate("fe_body", 256, 3);
        let d = graph_demand(&csr, 0).unwrap();
        // Every vertex needs at least one 4 B slot; headroom adds on top.
        assert!(d >= csr.vertices() as u64 * 4);
        assert!(graph_demand(&csr, 1000).unwrap() == d + 1000 * 64);
    }

    #[test]
    fn alloc_perf_runs_for_every_default_kind() {
        let b = bench();
        for kind in crate::registry::DEFAULT_KINDS {
            let cell = alloc_perf(&b, kind, 2048, 64, false);
            assert_eq!(cell.failures, 0, "{}", kind.label());
            assert_eq!(cell.counters.malloc_calls(), 2048, "{}", kind.label());
            let timing = alloc_timing(&b, kind, 2048, 64);
            assert!(timing.alloc.as_nanos() > 0, "{}", kind.label());
            assert_eq!(timing.free.is_some(), kind != ManagerKind::Atomic, "{}", kind.label());
        }
    }

    #[test]
    fn warp_mode_allocates_one_per_warp() {
        let b = bench();
        let cell = alloc_perf(&b, ManagerKind::ScatterAlloc, 512, 128, true);
        assert_eq!(cell.failures, 0);
        assert_eq!(cell.counters.malloc_calls(), 512);
    }

    #[test]
    fn fdg_runs_via_warp_free() {
        let b = bench();
        let cell = alloc_perf(&b, ManagerKind::FDGMalloc, 1024, 64, false);
        assert_eq!(cell.failures, 0);
        assert_eq!(cell.counters.live(), 0, "tidy-up frees the round");
        assert!(alloc_timing(&b, ManagerKind::FDGMalloc, 1024, 64).free.is_some());
    }

    #[test]
    fn mixed_perf_counts_no_failures_with_headroom() {
        let b = bench();
        let cell = mixed_perf(&b, ManagerKind::OuroVAP, 2048, 1024);
        assert_eq!(cell.failures, 0);
    }

    #[test]
    fn fragmentation_cuda_spans_whole_heap() {
        let b = bench();
        let cell = fragmentation(&b, ManagerKind::CudaAllocator, 512, 4096, 1);
        // Small units from the bottom, large area pinned at top on first
        // carve? Not for uniform small sizes — but the expansion must still
        // exceed the packed baseline.
        assert!(cell.initial.expansion_factor() >= 1.0);
    }

    #[test]
    fn oom_utilization_in_unit_range() {
        let b = bench();
        for kind in [ManagerKind::OuroSP, ManagerKind::ScatterAlloc, ManagerKind::Halloc] {
            let cell = oom(&b, kind, 64 << 20, 1024);
            assert!(!cell.timed_out, "{}", kind.label());
            assert!(
                cell.utilization > 0.5 && cell.utilization <= 1.0,
                "{}: {}",
                kind.label(),
                cell.utilization
            );
        }
    }

    /// A heap is sparse if and only if the caller sized it.
    #[test]
    fn only_an_overridden_heap_is_lazy() {
        let mut b = bench();
        assert_eq!(b.heap_spec_bytes(64 << 20), HeapSpec::ram(64 << 20));
        assert_eq!(b.heap_spec(1024, 64).pretouch, Pretouch::Full);
        b.heap_override = Some(128 << 20);
        let lazy = HeapSpec::ram(128 << 20).with_pretouch(Pretouch::Lazy);
        assert_eq!(b.heap_spec_bytes(64 << 20), lazy);
        assert_eq!(b.heap_spec(1024, 64), lazy);
    }

    /// Utilization is a share of the heap the manager got: with `--heap-mb`
    /// that is the override, not the tier's heap.
    #[test]
    fn oom_utilization_is_a_share_of_the_overridden_heap() {
        let mut b = bench();
        b.heap_override = Some(128 << 20);
        let cell = oom(&b, ManagerKind::ScatterAlloc, 64 << 20, 1024);
        assert!(cell.utilization > 0.5 && cell.utilization <= 1.0, "{}", cell.utilization);
    }

    #[test]
    fn write_perf_relative_cost_sane() {
        let b = bench();
        let cell = write_performance(
            &b,
            ManagerKind::OuroSP,
            4096,
            write_test::WritePattern::Uniform { bytes: 32 },
        );
        assert!(cell.relative_cost >= 0.9, "{}", cell.relative_cost);
        assert!(cell.relative_cost < 8.0, "{}", cell.relative_cost);
    }

    #[test]
    fn graph_init_and_update_run() {
        let b = bench();
        let csr = dyn_graph::generate("fe_body", 256, 3);
        let init = graph_init(&b, ManagerKind::OuroVLP, &csr).unwrap();
        assert_eq!(init.failures, 0);
        assert_eq!(graph_update(&b, ManagerKind::OuroVLP, &csr, 2000, true), Ok(0));
    }

    #[test]
    fn init_performance_reports_registers() {
        let b = bench();
        let cuda = init_performance(&b, ManagerKind::CudaAllocator, 64 << 20);
        let regeff = init_performance(&b, ManagerKind::RegEffC, 64 << 20);
        let xmal = init_performance(&b, ManagerKind::XMalloc, 64 << 20);
        // §4.1 ordering: Reg-Eff least, XMalloc's malloc the outlier.
        assert!(regeff.malloc_regs < cuda.malloc_regs);
        assert!(xmal.malloc_regs > 3 * cuda.malloc_regs);
    }

    /// `Sanitized<Cached<A>>` battery: the magazine decorator between the
    /// sanitizer and every core family must stay invisible to the shadow
    /// state. A parked free retires the sanitizer's live entry (the
    /// sanitizer wraps outside), a magazine hit re-admits cleanly, and no
    /// family leaks a violation or a live block through the cache.
    #[test]
    fn sanitize_clean_with_caching_for_every_core_family() {
        let mut b = bench();
        b.cached = true;
        for kind in [
            ManagerKind::OuroSP,
            ManagerKind::OuroVAP,
            ManagerKind::ScatterAlloc,
            ManagerKind::Halloc,
            ManagerKind::CudaAllocator,
            ManagerKind::XMalloc,
            ManagerKind::RegEffC,
            ManagerKind::Atomic,
        ] {
            let cell = sanitize_run(&b, kind, 1024, 2);
            assert_eq!(cell.counts, [0; VIOLATION_KINDS], "{}: violations", kind.label());
            assert_eq!(cell.failures, 0, "{}", kind.label());
            // Every free-capable family must end with an empty shadow map:
            // parked frees count as freed from the sanitizer's view.
            if kind != ManagerKind::Atomic {
                assert_eq!(
                    cell.live_after,
                    0,
                    "{} leaked live blocks through the cache",
                    kind.label()
                );
            }
        }
    }
}

//! Experiment runners — one function per test-case family of Section 4.
//!
//! Every runner creates a *fresh* manager per cell (as the artifact's
//! scripts do between runs), executes the kernel(s) on the simulated
//! device, and returns plain rows: the matrix scenarios turn them into anchor
//! metrics, the diagnostic subcommands into CSV.

use std::time::{Duration, Instant};

use gpu_sim::{Device, PerThread};
use gpu_workloads::{churn, sizes, workgen, write_test};
use gpumem_core::frag::{AddressRange, FragmentationStats};
use gpumem_core::sanitize::{Sanitized, VIOLATION_KINDS};
use gpumem_core::trace::{
    chrome_trace_json, occupancy_timeline, OccupancyTimeline, OpLatencies, Trace,
};
use gpumem_core::{
    AllocError, CounterSnapshot, DeviceAllocator, DevicePtr, HeapBackendKind, HeapSpec, Pretouch,
    WarpCtx, WARP_SIZE,
};

use crate::registry::ManagerKind;

/// Shared experiment context.
pub struct Bench {
    /// The simulated device (spec + worker pool).
    pub device: Device,
    /// Iterations per cell; the mean is reported (the paper uses 100; the
    /// CPU default is smaller).
    pub iterations: u32,
    /// Workload seed.
    pub seed: u64,
    /// Soft per-cell timeout: once a cell exceeds it, larger parameter
    /// values for the same manager are skipped (mirrors the artifact's
    /// per-process timeout).
    pub cell_timeout: Duration,
    /// Heap substrate every runner builds managers over (default: the
    /// `GMS_HEAP_BACKEND` environment default, normally RAM).
    pub heap_backend: HeapBackendKind,
    /// Page-commit policy for those heaps (default: backend-appropriate).
    pub pretouch: Pretouch,
    /// When set, overrides the demand-derived [`heap_for`] size for every
    /// cell — how `--heap-mb 8192` pins the paper's full 8 GiB heap.
    pub heap_override: Option<u64>,
    /// Wrap every manager in the `Cached` magazine decorator.
    pub cached: bool,
    /// Untimed warm-up iterations before the timed loop in the perf
    /// runners. Cached cells use 1 so the timed iterations measure the
    /// steady-state hot path (magazines populated by the warm-up's frees)
    /// rather than the cold first pass.
    pub warmup: u32,
}

impl Bench {
    /// Context with CPU-scaled defaults on the given device.
    pub fn new(device: Device) -> Self {
        Bench {
            device,
            iterations: 2,
            seed: 0x5eed,
            cell_timeout: Duration::from_secs(20),
            heap_backend: HeapBackendKind::env_default(),
            pretouch: Pretouch::Auto,
            heap_override: None,
            cached: false,
            warmup: 0,
        }
    }

    fn num_sms(&self) -> u32 {
        self.device.spec().num_sms
    }

    /// The heap spec for a cell with a demand of `num × max_size` bytes:
    /// [`heap_for`] sizing (unless overridden) over the context's backend
    /// and pre-touch policy.
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

    /// A heap spec of exactly `bytes` (unless overridden) over the
    /// context's backend and pre-touch policy.
    pub fn heap_spec_bytes(&self, bytes: u64) -> HeapSpec {
        HeapSpec::new(self.heap_override.unwrap_or(bytes))
            .with_backend(self.heap_backend)
            .with_pretouch(self.pretouch)
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

/// One cell of the allocation-performance experiments (Figures 9/10).
#[derive(Clone, Debug)]
pub struct AllocPerfCell {
    pub manager: &'static str,
    pub size: u64,
    pub num: u32,
    pub alloc: Duration,
    /// `None` when the manager cannot free (Atomic) — plotted as a gap.
    pub free: Option<Duration>,
    pub failures: u64,
    pub timed_out: bool,
}

/// Runs one (manager, size, num) cell of Fig. 9/10: `num` allocations of
/// `size` bytes (thread-based, or one per warp when `warp`), then the
/// matching deallocations, averaged over `bench.iterations`.
pub fn alloc_perf(
    bench: &Bench,
    kind: ManagerKind,
    num: u32,
    size: u64,
    warp: bool,
) -> AllocPerfCell {
    let alloc = kind
        .builder()
        .heap_spec(bench.heap_spec(num, size))
        .sms(bench.num_sms())
        .cached(bench.cached)
        .build();
    let mut alloc_total = Duration::ZERO;
    let mut free_total = Duration::ZERO;
    let mut free_supported = true;
    let mut failures = 0u64;

    // Untimed warm-up passes (cached cells): the frees populate the
    // magazine layer, so the timed loop below measures the steady-state
    // hot path instead of the cold first fill.
    for _ in 0..bench.warmup {
        let ptrs = PerThread::<DevicePtr>::new(num as usize);
        if warp {
            bench.device.launch_warps(num, |w| {
                let mut out = [DevicePtr::NULL; 1];
                match alloc.malloc_warp(w, &[size], &mut out) {
                    Ok(()) => ptrs.set(w.warp as usize, out[0]),
                    Err(_) => ptrs.set(w.warp as usize, DevicePtr::NULL),
                }
            });
        } else {
            bench.device.launch(num, |ctx| match alloc.malloc(ctx, size) {
                Ok(p) => ptrs.set(ctx.thread_id as usize, p),
                Err(_) => ptrs.set(ctx.thread_id as usize, DevicePtr::NULL),
            });
        }
        let ptrs = ptrs.into_vec();
        if kind.warp_level_only() {
            let warps = if warp { num } else { num.div_ceil(WARP_SIZE) };
            bench.device.launch_warps(warps, |w| {
                let _ = alloc.free_warp_all(w);
            });
        } else if alloc.info().supports_free {
            bench.device.launch(num, |ctx| {
                let p = ptrs[ctx.thread_id as usize];
                if !p.is_null() {
                    let _ = alloc.free(ctx, p);
                }
            });
        }
    }

    let started = Instant::now();
    let mut iters_done = 0u32;

    for _ in 0..bench.iterations {
        let ptrs = PerThread::<DevicePtr>::new(num as usize);
        let t_alloc = if warp {
            bench.device.launch_warps(num, |w| {
                let mut out = [DevicePtr::NULL; 1];
                match alloc.malloc_warp(w, &[size], &mut out) {
                    Ok(()) => ptrs.set(w.warp as usize, out[0]),
                    Err(_) => ptrs.set(w.warp as usize, DevicePtr::NULL),
                }
            })
        } else {
            bench.device.launch(num, |ctx| match alloc.malloc(ctx, size) {
                Ok(p) => ptrs.set(ctx.thread_id as usize, p),
                Err(_) => ptrs.set(ctx.thread_id as usize, DevicePtr::NULL),
            })
        };
        let ptrs = ptrs.into_vec();
        failures += ptrs.iter().filter(|p| p.is_null()).count() as u64;
        alloc_total += t_alloc;

        // Deallocation phase.
        if kind.warp_level_only() {
            let warps = if warp { num } else { num.div_ceil(WARP_SIZE) };
            free_total += bench.device.launch_warps(warps, |w| {
                let _ = alloc.free_warp_all(w);
            });
        } else if alloc.info().supports_free {
            free_total += if warp {
                bench.device.launch_warps(num, |w| {
                    let p = ptrs[w.warp as usize];
                    if !p.is_null() {
                        let _ = alloc.free(&w.leader(), p);
                    }
                })
            } else {
                bench.device.launch(num, |ctx| {
                    let p = ptrs[ctx.thread_id as usize];
                    if !p.is_null() {
                        let _ = alloc.free(ctx, p);
                    }
                })
            };
        } else {
            free_supported = false;
        }
        iters_done += 1;
        if started.elapsed() > bench.cell_timeout {
            break;
        }
    }
    let n = iters_done.max(1);
    AllocPerfCell {
        manager: kind.label(),
        size,
        num,
        alloc: alloc_total / n,
        free: free_supported.then_some(free_total / n),
        failures,
        timed_out: started.elapsed() > bench.cell_timeout,
    }
}

/// Runs one mixed-allocation cell (Fig. 9h): per-thread sizes uniform in
/// `[4, upper]`.
pub fn mixed_perf(bench: &Bench, kind: ManagerKind, num: u32, upper: u64) -> AllocPerfCell {
    let alloc = kind
        .builder()
        .heap_spec(bench.heap_spec(num, upper))
        .sms(bench.num_sms())
        .cached(bench.cached)
        .build();
    let mut alloc_total = Duration::ZERO;
    let mut free_total = Duration::ZERO;
    let mut free_supported = true;
    let mut failures = 0u64;

    // Untimed warm-up passes (cached cells): populate the magazines so the
    // timed loop measures the steady-state hot path. A distinct seed keeps
    // the warm-up's size stream from matching any timed iteration exactly —
    // the magazines must pay off via class rounding, not size identity.
    for w in 0..bench.warmup {
        let seed = bench.seed ^ !(w as u64);
        let ptrs = PerThread::<DevicePtr>::new(num as usize);
        bench.device.launch(num, |ctx| {
            let size = sizes::thread_size(seed, ctx.thread_id, 4, upper);
            match alloc.malloc(ctx, size) {
                Ok(p) => ptrs.set(ctx.thread_id as usize, p),
                Err(_) => ptrs.set(ctx.thread_id as usize, DevicePtr::NULL),
            }
        });
        let ptrs = ptrs.into_vec();
        if alloc.info().supports_free {
            bench.device.launch(num, |ctx| {
                let p = ptrs[ctx.thread_id as usize];
                if !p.is_null() {
                    let _ = alloc.free(ctx, p);
                }
            });
        } else if kind.warp_level_only() {
            bench.device.launch_warps(num.div_ceil(WARP_SIZE), |w| {
                let _ = alloc.free_warp_all(w);
            });
        }
    }

    let started = Instant::now();
    let mut iters_done = 0u32;

    for it in 0..bench.iterations {
        let seed = bench.seed ^ (it as u64);
        let ptrs = PerThread::<DevicePtr>::new(num as usize);
        alloc_total += bench.device.launch(num, |ctx| {
            let size = sizes::thread_size(seed, ctx.thread_id, 4, upper);
            match alloc.malloc(ctx, size) {
                Ok(p) => ptrs.set(ctx.thread_id as usize, p),
                Err(_) => ptrs.set(ctx.thread_id as usize, DevicePtr::NULL),
            }
        });
        let ptrs = ptrs.into_vec();
        failures += ptrs.iter().filter(|p| p.is_null()).count() as u64;
        if alloc.info().supports_free {
            free_total += bench.device.launch(num, |ctx| {
                let p = ptrs[ctx.thread_id as usize];
                if !p.is_null() {
                    let _ = alloc.free(ctx, p);
                }
            });
        } else if kind.warp_level_only() {
            free_total += bench.device.launch_warps(num.div_ceil(WARP_SIZE), |w| {
                let _ = alloc.free_warp_all(w);
            });
        } else {
            free_supported = false;
        }
        iters_done += 1;
        if started.elapsed() > bench.cell_timeout {
            break;
        }
    }
    let n = iters_done.max(1);
    AllocPerfCell {
        manager: kind.label(),
        size: upper,
        num,
        alloc: alloc_total / n,
        free: free_supported.then_some(free_total / n),
        failures,
        timed_out: started.elapsed() > bench.cell_timeout,
    }
}

/// One row of the fragmentation experiment (Fig. 11a).
#[derive(Clone, Debug)]
pub struct FragCell {
    pub manager: &'static str,
    pub size: u64,
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
    let alloc = kind
        .builder()
        .heap_spec(bench.heap_spec(num, size))
        .sms(bench.num_sms())
        .cached(bench.cached)
        .build();
    let allocate = |seed_round: u64| -> Vec<DevicePtr> {
        let ptrs = PerThread::<DevicePtr>::new(num as usize);
        bench.device.launch(num, |ctx| {
            let _ = seed_round;
            match alloc.malloc(ctx, size) {
                Ok(p) => ptrs.set(ctx.thread_id as usize, p),
                Err(_) => ptrs.set(ctx.thread_id as usize, DevicePtr::NULL),
            }
        });
        ptrs.into_vec()
    };
    let range_of = |ptrs: &[DevicePtr]| {
        let mut r = AddressRange::new();
        for &p in ptrs {
            r.record(p, size);
        }
        r
    };

    let mut ptrs = allocate(0);
    let initial = FragmentationStats::from_range(&range_of(&ptrs));
    let mut max_range = initial.address_range;
    let can_free = alloc.info().supports_free || kind.warp_level_only();
    if can_free {
        for round in 1..=cycles {
            if kind.warp_level_only() {
                bench.device.launch_warps(num.div_ceil(WARP_SIZE), |w| {
                    let _ = alloc.free_warp_all(w);
                });
            } else {
                bench.device.launch(num, |ctx| {
                    let p = ptrs[ctx.thread_id as usize];
                    if !p.is_null() {
                        let _ = alloc.free(ctx, p);
                    }
                });
            }
            ptrs = allocate(round as u64);
            max_range = max_range.max(range_of(&ptrs).range());
        }
    }
    FragCell { manager: kind.label(), size, initial, max_range_after_cycles: max_range }
}

/// One row of the out-of-memory experiment (Fig. 11b).
#[derive(Clone, Debug)]
pub struct OomCell {
    pub manager: &'static str,
    pub size: u64,
    pub allocations: u64,
    /// Achieved demand as a share of the heap (the "% of baseline" axis).
    pub utilization: f64,
    pub timed_out: bool,
}

/// Allocates `size` until the manager reports OOM (or the timeout fires,
/// like the artifact's one-hour kill) and reports heap utilization.
///
/// The storm runs through [`Device::launch`] in waves of four blocks, so
/// every request carries real launch coordinates (block size from the
/// device spec, not a hard-coded 256) and SM-scattered managers see the
/// thread/SM keys they shard by — a single-host-thread loop fabricating
/// `ThreadCtx`s fed every request through one shard and missed the
/// contention the figure is about.
pub fn oom(bench: &Bench, kind: ManagerKind, heap_bytes: u64, size: u64) -> OomCell {
    use gpumem_core::sync::{AtomicU64, Ordering};

    let alloc = kind
        .builder()
        .heap_spec(bench.heap_spec_bytes(heap_bytes))
        .sms(bench.num_sms())
        .cached(bench.cached)
        .build();
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
        if start.elapsed() > bench.cell_timeout {
            timed_out = true;
            break;
        }
    }
    OomCell {
        manager: kind.label(),
        size,
        allocations: count,
        // f64 throughout: `count * size` in u64 can overflow once a full-tier
        // storm grants billions of bytes.
        utilization: count as f64 * size as f64 / heap_bytes as f64,
        timed_out,
    }
}

/// One row of the work-generation experiment (Fig. 11c/d) or of the
/// baseline series.
#[derive(Clone, Debug)]
pub struct WorkGenCell {
    pub manager: &'static str,
    pub threads: u32,
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
    let alloc = kind
        .builder()
        .heap_spec(bench.heap_spec(threads, hi))
        .sms(bench.num_sms())
        .cached(bench.cached)
        .build();
    let r = workgen::run_managed(alloc.as_ref(), &bench.device, threads, bench.seed, lo, hi);
    WorkGenCell { manager: kind.label(), threads, elapsed: r.elapsed, failures: r.failures }
}

/// The prefix-sum baseline row for the same workload.
pub fn work_generation_baseline(bench: &Bench, threads: u32, lo: u64, hi: u64) -> WorkGenCell {
    let heap = gpumem_core::DeviceHeap::try_new(bench.heap_spec(threads, hi))
        .unwrap_or_else(|e| panic!("{e}"));
    let r = workgen::run_baseline(&bench.device, &heap, threads, bench.seed, lo, hi);
    WorkGenCell { manager: "Baseline", threads, elapsed: r.elapsed, failures: r.failures }
}

/// One row of the write/access-performance experiment (Fig. 11e).
#[derive(Clone, Debug)]
pub struct WriteCell {
    pub manager: &'static str,
    pub pattern: String,
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
    let alloc = kind
        .builder()
        .heap_spec(bench.heap_spec(threads, max))
        .sms(bench.num_sms())
        .cached(bench.cached)
        .build();
    let r = write_test::run(alloc.as_ref(), &bench.device, threads, bench.seed, pattern);
    WriteCell {
        manager: kind.label(),
        pattern: format!("{pattern:?}"),
        relative_cost: r.stats.relative_cost(),
        failures: r.failures,
    }
}

/// One row of the graph experiments (Fig. 11f/11g).
#[derive(Clone, Debug)]
pub struct GraphCell {
    pub manager: &'static str,
    pub graph: String,
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
    let alloc = kind
        .builder()
        .heap_spec(bench.try_heap_spec(1, demand.max(1 << 20))?)
        .sms(bench.num_sms())
        .cached(bench.cached)
        .build();
    let (g, elapsed) = dyn_graph::DynGraph::init(alloc.as_ref(), &bench.device, csr);
    Ok(GraphCell {
        manager: kind.label(),
        graph: csr.name.clone(),
        elapsed,
        failures: g.failures(),
    })
}

/// Graph updates (Fig. 11g): insert `n_edges`, focused or uniform.
pub fn graph_update(
    bench: &Bench,
    kind: ManagerKind,
    csr: &dyn_graph::CsrGraph,
    n_edges: u32,
    focused: bool,
) -> Result<GraphCell, SizingError> {
    // Updates grow a few adjacencies dramatically; generous headroom.
    let demand = graph_demand(csr, n_edges)?;
    let heap = bench.try_heap_spec(1, demand.max(1 << 20))?;
    let alloc = kind.builder().heap_spec(heap).sms(bench.num_sms()).cached(bench.cached).build();
    let (g, _) = dyn_graph::DynGraph::init(alloc.as_ref(), &bench.device, csr);
    let edges = if focused {
        dyn_graph::focused_edges(csr.vertices(), n_edges, 20, bench.seed)
    } else {
        dyn_graph::uniform_edges(csr.vertices(), n_edges, bench.seed)
    };
    let elapsed = g.insert_edges(&bench.device, &edges);
    Ok(GraphCell {
        manager: kind.label(),
        graph: csr.name.clone(),
        elapsed,
        failures: g.failures(),
    })
}

/// One row of the initialisation & register experiment (§4.1).
#[derive(Clone, Debug)]
pub struct InitCell {
    pub manager: &'static str,
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
    let alloc = kind.builder().heap_shared(heap).sms(bench.num_sms()).cached(bench.cached).build();
    let init = start.elapsed();
    let regs = alloc.register_footprint();
    InitCell { manager: kind.label(), init, malloc_regs: regs.malloc, free_regs: regs.free }
}

/// One row of the contention report (`repro contention`): the
/// counter activity of a `num`-thread alloc/free run, plus the wall-clock of
/// the same run with metrics disabled so the observability overhead is
/// visible next to the counters it buys.
#[derive(Clone, Debug)]
pub struct ContentionCell {
    pub manager: &'static str,
    pub num: u32,
    pub size: u64,
    /// Alloc + free wall-clock with metrics enabled.
    pub observed: Duration,
    /// Alloc + free wall-clock of an identical run with metrics disabled.
    pub baseline: Duration,
    pub failures: u64,
    /// Aggregated counters of the observed run.
    pub counters: CounterSnapshot,
    /// Host-side dispatch overhead of the observed run's launches (summed
    /// over the alloc and free phases) — the cost the pooled executor
    /// keeps *out* of `observed`/`baseline`.
    pub dispatch: Duration,
    /// Workers that executed at least one warp in the alloc launch.
    pub workers_used: usize,
    /// Extra claim-counter trips across the observed launches (scheduler
    /// rebalancing, see `SchedStats::steals`).
    pub steals: u64,
    /// Trace-ring events lost to drop-newest backpressure during the
    /// observed run. Zero when no tracer is attached (the default); real
    /// when one is — e.g. under `repro watch`'s global telemetry sink —
    /// and then a signal that percentile/occupancy views are truncated.
    pub dropped_events: u64,
}

impl ContentionCell {
    /// Observed-over-baseline slowdown (1.0 = free observability).
    pub fn overhead_factor(&self) -> f64 {
        let base = self.baseline.as_secs_f64();
        if base == 0.0 {
            1.0
        } else {
            self.observed.as_secs_f64() / base
        }
    }
}

/// Profiles one manager's contention counters over a thread-based alloc/free
/// run (warp-collective free for warp-level-only managers), then repeats the
/// run with metrics disabled to price the observability layer.
pub fn contention_profile(bench: &Bench, kind: ManagerKind, num: u32, size: u64) -> ContentionCell {
    struct Run {
        elapsed: Duration,
        failures: u64,
        counters: CounterSnapshot,
        dispatch: Duration,
        workers_used: usize,
        steals: u64,
        dropped_events: u64,
    }
    let run = |metrics_on: bool| -> Run {
        let alloc = kind
            .builder()
            .heap_spec(bench.heap_spec(num, size))
            .sms(bench.num_sms())
            .metrics(metrics_on)
            .cached(bench.cached)
            .build();
        let m = alloc.metrics();
        let ptrs = PerThread::<DevicePtr>::new(num as usize);
        let rep = bench.device.launch_observed(&m, num, |ctx| match alloc.malloc(ctx, size) {
            Ok(p) => ptrs.set(ctx.thread_id as usize, p),
            Err(_) => ptrs.set(ctx.thread_id as usize, DevicePtr::NULL),
        });
        let ptrs = ptrs.into_vec();
        let failures = ptrs.iter().filter(|p| p.is_null()).count() as u64;
        let mut out = Run {
            elapsed: rep.elapsed,
            failures,
            counters: rep.counters,
            dispatch: rep.sched.dispatch,
            workers_used: rep.sched.workers_used(),
            steals: rep.sched.steals,
            dropped_events: 0,
        };
        if kind.warp_level_only() {
            let free = bench.device.launch_warps_observed(&m, num.div_ceil(WARP_SIZE), |w| {
                let _ = alloc.free_warp_all(w);
            });
            out.elapsed += free.elapsed;
            out.counters = out.counters.merge(&free.counters);
            out.dispatch += free.sched.dispatch;
            out.steals += free.sched.steals;
        } else if alloc.info().supports_free {
            let free = bench.device.launch_observed(&m, num, |ctx| {
                let p = ptrs[ctx.thread_id as usize];
                if !p.is_null() {
                    let _ = alloc.free(ctx, p);
                }
            });
            out.elapsed += free.elapsed;
            out.counters = out.counters.merge(&free.counters);
            out.dispatch += free.sched.dispatch;
            out.steals += free.sched.steals;
        }
        out.dropped_events = m.tracer().map_or(0, |rec| rec.dropped());
        out
    };
    // A discarded warmup absorbs cold-start effects (first touch of a fresh
    // heap, worker spin-up); baseline and observed runs then alternate and
    // the minimum of each side is reported, so the overhead column reflects
    // the instrumentation, not scheduling noise.
    let _ = run(false);
    let mut observed = Duration::MAX;
    let mut baseline = Duration::MAX;
    let mut failures = 0u64;
    let mut counters = CounterSnapshot::default();
    let mut dispatch = Duration::ZERO;
    let mut workers_used = 0usize;
    let mut steals = 0u64;
    let mut dropped_events = 0u64;
    for _ in 0..bench.iterations.max(2) {
        let b = run(false);
        baseline = baseline.min(b.elapsed);
        let o = run(true);
        observed = observed.min(o.elapsed);
        failures = o.failures;
        counters = o.counters;
        dispatch = o.dispatch;
        workers_used = o.workers_used;
        steals = o.steals;
        dropped_events = o.dropped_events;
    }
    ContentionCell {
        manager: kind.label(),
        num,
        size,
        observed,
        baseline,
        failures,
        counters,
        dispatch,
        workers_used,
        steals,
        dropped_events,
    }
}

/// Result of one manager's traced run (`repro trace`): the decoded event
/// stream plus the three derived views.
#[derive(Clone, Debug)]
pub struct TraceRun {
    pub manager: &'static str,
    pub num: u32,
    /// The decoded, time-sorted event stream.
    pub trace: Trace,
    /// Per-op latency histograms (p50/p95/p99 in the CSV).
    pub latencies: OpLatencies,
    /// Heap-occupancy/fragmentation timeline replayed from the trace.
    pub occupancy: OccupancyTimeline,
    /// Chrome trace-event JSON export (Perfetto-loadable).
    pub json: String,
    /// Kernel wall-clock across the alloc and free launches.
    pub elapsed: Duration,
}

/// Runs the mixed-size alloc/free workload on `kind` with the event-tracing
/// layer attached and derives all three trace consumers. A single traced
/// pass (no min-of-N averaging): the product here is the *time axis*, not a
/// robust scalar.
pub fn trace_profile(bench: &Bench, kind: ManagerKind, num: u32, events_per_sm: usize) -> TraceRun {
    const SIZE_LO: u64 = 16;
    const SIZE_HI: u64 = 1024;
    let alloc = kind
        .builder()
        .heap_spec(bench.heap_spec(num, SIZE_HI))
        .sms(bench.num_sms())
        .trace_capacity(events_per_sm)
        .cached(bench.cached)
        .build();
    let m = alloc.metrics();
    let ptrs = PerThread::<DevicePtr>::new(num as usize);
    let rep = bench.device.launch_observed(&m, num, |ctx| {
        let size = sizes::thread_size(bench.seed, ctx.thread_id, SIZE_LO, SIZE_HI);
        match alloc.malloc(ctx, size) {
            Ok(p) => ptrs.set(ctx.thread_id as usize, p),
            Err(_) => ptrs.set(ctx.thread_id as usize, DevicePtr::NULL),
        }
    });
    let mut elapsed = rep.elapsed;
    let ptrs = ptrs.into_vec();
    if kind.warp_level_only() {
        let free = bench.device.launch_warps_observed(&m, num.div_ceil(WARP_SIZE), |w| {
            let _ = alloc.free_warp_all(w);
        });
        elapsed += free.elapsed;
    } else if alloc.info().supports_free {
        let free = bench.device.launch_observed(&m, num, |ctx| {
            let p = ptrs[ctx.thread_id as usize];
            if !p.is_null() {
                let _ = alloc.free(ctx, p);
            }
        });
        elapsed += free.elapsed;
    }
    let rec = m.tracer().expect("trace_capacity attaches a recorder");
    let trace = rec.snapshot();
    let latencies = OpLatencies::from_trace(&trace);
    let occupancy = occupancy_timeline(&trace, 4096);
    let json = chrome_trace_json(&trace, kind.label());
    TraceRun { manager: kind.label(), num, trace, latencies, occupancy, json, elapsed }
}

/// One row of the sanitizer sweep (`repro sanitize`): violation totals of a
/// churn + mixed-size run executed under [`Sanitized`].
#[derive(Clone, Debug)]
pub struct SanitizeCell {
    pub manager: &'static str,
    pub num: u32,
    pub cycles: u32,
    /// Allocation failures across both phases (not violations — a manager
    /// may legitimately refuse).
    pub failures: u64,
    /// Per-kind violation totals, indexed like
    /// [`gpumem_core::sanitize::ALL_VIOLATION_KINDS`].
    pub counts: [u64; VIOLATION_KINDS],
    /// Violations counted beyond the recording cap.
    pub dropped: u64,
    /// Shadow-map allocations still live after the final free phase (> 0
    /// for managers without free support, or when frees failed).
    pub live_after: u64,
}

impl SanitizeCell {
    /// Total violations across all kinds.
    pub fn total_violations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether the run was violation-free.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }
}

/// Runs the churn workload plus a mixed-size alloc/free phase on `kind`
/// wrapped in [`Sanitized`] (default config: 32 B canary redzones,
/// poison-on-free) and reports the violation totals.
pub fn sanitize_run(bench: &Bench, kind: ManagerKind, num: u32, cycles: u32) -> SanitizeCell {
    const MIXED_MAX: u64 = 1024;
    let inner = kind
        .builder()
        .heap_spec(bench.heap_spec(num, MIXED_MAX))
        .sms(bench.num_sms())
        .cached(bench.cached)
        .build();
    let san = Sanitized::new(inner);
    let mut failures = 0u64;

    // Phase 1: fixed-size churn (the paper's repeated alloc/free cycle).
    let churn = churn::run(&san, &bench.device, num, 256, cycles);
    failures += churn.failures;

    // Phase 2: mixed sizes in [16, 1024] — exercises class boundaries and
    // the redzone across every size class the manager serves.
    let info = san.info();
    let ptrs = PerThread::<DevicePtr>::new(num as usize);
    bench.device.launch(num, |ctx| {
        let size = sizes::thread_size(bench.seed, ctx.thread_id, 16, MIXED_MAX);
        match san.malloc(ctx, size) {
            Ok(p) => ptrs.set(ctx.thread_id as usize, p),
            Err(_) => ptrs.set(ctx.thread_id as usize, DevicePtr::NULL),
        }
    });
    let ptrs = ptrs.into_vec();
    failures += ptrs.iter().filter(|p| p.is_null()).count() as u64;
    if info.warp_level_only {
        bench.device.launch_warps(num.div_ceil(WARP_SIZE), |w| {
            let _ = san.free_warp_all(w);
        });
    } else if info.supports_free {
        bench.device.launch(num, |ctx| {
            let p = ptrs[ctx.thread_id as usize];
            if !p.is_null() {
                let _ = san.free(ctx, p);
            }
        });
    }

    let report = san.take_report();
    SanitizeCell {
        manager: kind.label(),
        num,
        cycles,
        failures,
        counts: report.counts,
        dropped: report.dropped,
        live_after: report.live,
    }
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
        let mut b = Bench::new(Device::with_workers(DeviceSpec::titan_v(), 2));
        b.iterations = 1;
        b
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
        let b = bench();
        let csr = dyn_graph::generate("fe_body", 256, 3);
        let d = graph_demand(&csr, 0).unwrap();
        // Every vertex needs at least one 4 B slot; headroom adds on top.
        assert!(d >= csr.vertices() as u64 * 4);
        assert!(graph_demand(&csr, 1000).unwrap() == d + 1000 * 64);
        let _ = b;
    }

    #[test]
    fn alloc_perf_runs_for_every_default_kind() {
        let b = bench();
        for kind in crate::registry::DEFAULT_KINDS {
            let cell = alloc_perf(&b, kind, 2048, 64, false);
            assert_eq!(cell.failures, 0, "{}", kind.label());
            assert!(cell.alloc.as_nanos() > 0, "{}", kind.label());
            if kind != ManagerKind::Atomic {
                assert!(cell.free.is_some(), "{}", kind.label());
            }
        }
    }

    #[test]
    fn warp_mode_allocates_one_per_warp() {
        let b = bench();
        let cell = alloc_perf(&b, ManagerKind::ScatterAlloc, 512, 128, true);
        assert_eq!(cell.failures, 0);
        assert_eq!(cell.num, 512);
    }

    #[test]
    fn fdg_runs_via_warp_free() {
        let b = bench();
        let cell = alloc_perf(&b, ManagerKind::FDGMalloc, 1024, 64, false);
        assert_eq!(cell.failures, 0);
        assert!(cell.free.is_some(), "tidy-up counts as deallocation");
    }

    #[test]
    fn mixed_perf_counts_no_failures_with_headroom() {
        let b = bench();
        let cell = mixed_perf(&b, ManagerKind::OuroVAP, 2048, 1024);
        assert_eq!(cell.failures, 0);
    }

    #[test]
    fn fragmentation_baseline_is_tight_for_atomic() {
        let b = bench();
        let cell = fragmentation(&b, ManagerKind::Atomic, 4096, 64, 0);
        // Bump allocation is perfectly packed: range == demand.
        assert_eq!(cell.initial.address_range, cell.initial.baseline);
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

    #[test]
    fn workgen_managed_and_baseline() {
        let b = bench();
        let m = work_generation(&b, ManagerKind::ScatterAlloc, 4096, 4, 64);
        assert_eq!(m.failures, 0);
        let base = work_generation_baseline(&b, 4096, 4, 64);
        assert_eq!(base.failures, 0);
        assert_eq!(base.manager, "Baseline");
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
        let upd = graph_update(&b, ManagerKind::OuroVLP, &csr, 2000, true).unwrap();
        assert_eq!(upd.failures, 0);
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

    #[test]
    fn smoke_every_default_kind() {
        for kind in crate::registry::DEFAULT_KINDS {
            let a = kind.builder().heap(64 << 20).sms(80).build();
            smoke_test(a.as_ref()).unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        }
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
            assert!(cell.is_clean(), "{}: violations {:?}", kind.label(), cell.counts);
            assert_eq!(cell.dropped, 0, "{}", kind.label());
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

#[cfg(test)]
mod mp_probe {
    use super::*;
    use gpu_sim::DeviceSpec;

    #[test]
    #[ignore = "manual timing probe"]
    fn scatter_multipage_via_harness() {
        let mut b = Bench::new(Device::with_workers(DeviceSpec::titan_v(), 1));
        b.iterations = 1;
        let t = std::time::Instant::now();
        let cell = alloc_perf(&b, crate::registry::ManagerKind::ScatterAlloc, 10_000, 8192, false);
        eprintln!(
            "harness cell: alloc={:?} wall={:?} failures={}",
            cell.alloc,
            t.elapsed(),
            cell.failures
        );
    }
}

//! Shape tests: coarse, robust assertions that the reproduction exhibits
//! the *relative* behaviours the paper reports. These deliberately use wide
//! margins (≥ 2-3×) so they hold on any host; EXPERIMENTS.md records the
//! exact measured values. Each test names the shape ids it asserts
//! (`fig9.*`, `fig11*.*`, `sec41.*`), the ones EXPERIMENTS.md refers to.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use gpumemsurvey::bench::registry::ManagerKind;
use gpumemsurvey::bench::runners::{self, Bench};
use gpumemsurvey::gpu_sim::PerThread;
use gpumemsurvey::gpu_workloads::write_test::WritePattern;
use gpumemsurvey::prelude::*;
use gpumemsurvey::{alloc_cuda, alloc_xmalloc};

/// One shape at a time: the harness runs tests on parallel threads, and a
/// timing shape's 4-worker pool must not share the host's cores with
/// another shape's workload. A failed shape poisons the lock; the shapes
/// after it take it anyway.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bench_on(workers: usize) -> Bench {
    Bench::new(Device::with_workers(DeviceSpec::titan_v(), workers))
}

/// The timing-ratio shapes run on a 4-worker pool, so atomics interleave.
fn bench() -> Bench {
    bench_on(4)
}

/// The layout-model shapes (address range, utilization, coalescing cost) run
/// on the inline one-worker device: on a pool, which worker carves which
/// chunk first changes the layout the model prices, and with it the verdict.
fn inline_bench() -> Bench {
    bench_on(1)
}

/// Shape `fig9.cuda-dealloc-slowest`.
/// §4.2.1 / Fig. 9: for small thread-based allocations, the CUDA-Allocator
/// model is consistently slower than ScatterAlloc and page-based Ouroboros,
/// and its deallocation is the slowest in the field. The claim is about
/// time, so this stays a timing ratio on the pool; the structure behind it
/// is pinned exactly, in debug too, by
/// `cuda_allocator_free_walks_its_class_stack`.
#[cfg_attr(debug_assertions, ignore = "timing-ratio shape: run with --release")]
#[test]
fn cuda_allocator_is_outperformed_for_small_sizes() {
    let _serial = serial();
    let b = bench();
    let n = 10_000;
    let cuda = runners::alloc_timing(&b, ManagerKind::CudaAllocator, n, 64);
    let scatter = runners::alloc_timing(&b, ManagerKind::ScatterAlloc, n, 64);
    let ouro = runners::alloc_timing(&b, ManagerKind::OuroVLP, n, 64);
    // Free: CUDA clearly slowest (paper: "only approach with deallocation
    // performance consistently above 1 ms").
    let cuda_free = cuda.free.unwrap();
    assert!(
        cuda_free > scatter.free.unwrap() * 3,
        "cuda free {cuda_free:?} vs scatter {:?}",
        scatter.free.unwrap()
    );
    assert!(
        cuda_free > ouro.free.unwrap() * 3,
        "cuda free {cuda_free:?} vs ouroboros {:?}",
        ouro.free.unwrap()
    );
}

/// Shape `fig9.cuda-dealloc-slowest`, counted: why the CUDA-Allocator
/// model's free is the slowest. Each free validates the pointer against its
/// class's free stack, `min(class depth, VALIDATION_WINDOW)` list hops,
/// while ScatterAlloc and page-based Ouroboros free without walking a list.
/// Exact on the inline device, so it holds on any host and in debug.
#[test]
fn cuda_allocator_free_walks_its_class_stack() {
    let _serial = serial();
    const N: u32 = 10_000;
    let b = inline_bench();
    let hops_per_free = |kind| {
        let c = runners::alloc_perf(&b, kind, N, 64, false).counters;
        assert_eq!(c.free_calls(), u64::from(N), "{kind}: one counted free per thread");
        c.list_hops() / u64::from(N)
    };
    let cuda = hops_per_free(ManagerKind::CudaAllocator);
    let window = alloc_cuda::VALIDATION_WINDOW as u64;
    assert!(
        (1_000..=window).contains(&cuda),
        "a CUDA model free walks up to {window} stack entries; it walked {cuda}"
    );
    assert_eq!(hops_per_free(ManagerKind::ScatterAlloc), 0, "ScatterAlloc frees in place");
    assert_eq!(hops_per_free(ManagerKind::OuroVLP), 0, "Ouroboros frees into its queue");
}

/// Shape `fig9.cuda-2048-split`.
/// §4.2.1: the CUDA-Allocator model's characteristic spike right before its
/// 2048 B unit split, with performance recovering after it. The claim is
/// about time; the step behind it is pinned exactly, in debug too, by
/// `cuda_allocator_small_path_walks_its_units_up_to_2048`.
#[cfg_attr(debug_assertions, ignore = "timing-ratio shape: run with --release")]
#[test]
fn cuda_allocator_unit_split_at_2048() {
    let _serial = serial();
    let b = bench();
    let at_2048 = runners::alloc_timing(&b, ManagerKind::CudaAllocator, 10_000, 2048);
    let at_4096 = runners::alloc_timing(&b, ManagerKind::CudaAllocator, 10_000, 4096);
    let at_64 = runners::alloc_timing(&b, ManagerKind::CudaAllocator, 10_000, 64);
    assert!(
        at_2048.alloc > at_64.alloc * 2,
        "staircase: 2048 B ({:?}) must dwarf 64 B ({:?})",
        at_2048.alloc,
        at_64.alloc
    );
    assert!(
        at_4096.alloc < at_2048.alloc,
        "past the split, the large path recovers: {:?} vs {:?}",
        at_4096.alloc,
        at_2048.alloc
    );
}

/// Shape `fig9.cuda-2048-split`, counted: every small-path malloc (≤ 2048 B)
/// walks the model's unit registry, which grows with each unit carved, so
/// the probes climb with the size class; past the split the large path
/// walks no registry, and its free list stays short where the small
/// classes' free stacks are deep. Exact on the inline device, so it holds
/// on any host and in debug.
#[test]
fn cuda_allocator_small_path_walks_its_units_up_to_2048() {
    let _serial = serial();
    const N: u32 = 10_000;
    let b = inline_bench();
    let counts =
        |size| runners::alloc_perf(&b, ManagerKind::CudaAllocator, N, size, false).counters;
    let (at_64, at_1k, at_2k, at_4k) = (counts(64), counts(1024), counts(2048), counts(4096));
    let probes = [&at_64, &at_1k, &at_2k, &at_4k].map(|c| c.probe_steps());
    assert!(
        probes[0] * 10 < probes[1] && probes[1] * 2 < probes[2],
        "probe steps must climb with the class up to 2048 B: {probes:?}"
    );
    assert_eq!(probes[3], 0, "4096 B takes the large path, which walks no unit registry");
    assert!(
        at_4k.list_hops() * 100 < at_2k.list_hops(),
        "past the split the list walks collapse: {} at 4096 B vs {} at 2048 B",
        at_4k.list_hops(),
        at_2k.list_hops()
    );
}

/// Shape `fig9.scatter-cliff-ouro-flat`.
/// §4.2.1: ScatterAlloc's steep drop once requests leave the single page
/// (the search for contiguous free pages). The claim is about time; the
/// step behind it is pinned exactly, in debug too, by
/// `scatteralloc_multipage_search_probes_every_page`.
#[cfg_attr(debug_assertions, ignore = "timing-ratio shape: run with --release")]
#[test]
fn scatteralloc_multipage_cliff() {
    let _serial = serial();
    let b = bench();
    let single = runners::alloc_timing(&b, ManagerKind::ScatterAlloc, 10_000, 2048);
    let multi = runners::alloc_timing(&b, ManagerKind::ScatterAlloc, 10_000, 8192);
    assert!(
        multi.alloc > single.alloc * 3,
        "multipage {:?} must be a cliff vs single-page {:?}",
        multi.alloc,
        single.alloc
    );
    // While page-based Ouroboros stays flat over the same boundary (paper:
    // "considerably outperform all other approaches for larger sizes").
    let ouro = runners::alloc_timing(&b, ManagerKind::OuroSP, 10_000, 8192);
    assert!(
        ouro.alloc < multi.alloc / 3,
        "ouroboros {:?} must beat scatter {:?} at 8 KiB",
        ouro.alloc,
        multi.alloc
    );
}

/// Shape `fig9.scatter-cliff-ouro-flat`, counted: a request that fits a
/// page probes a few pages of its class, while a multi-page request scans
/// the reserved area first-fit from its start, past every run an earlier
/// request took. Page-based Ouroboros serves 8 KiB from its queues and
/// probes nothing. Exact on the inline device, so it holds on any host and
/// in debug.
#[test]
fn scatteralloc_multipage_search_probes_every_page() {
    let _serial = serial();
    const N: u32 = 10_000;
    let b = inline_bench();
    let probes = |kind, size| runners::alloc_perf(&b, kind, N, size, false).counters.probe_steps();
    let scatter = [2048, 4096, 8192].map(|size| probes(ManagerKind::ScatterAlloc, size));
    assert!(
        scatter[1] < scatter[0] * 2 && scatter[2] > scatter[1] * 100,
        "the probes must step once a request spans pages: {scatter:?} at 2, 4 and 8 KiB"
    );
    assert_eq!(probes(ManagerKind::OuroSP, 8192), 0, "Ouro-S-P probes nothing at 8 KiB");
}

/// Shape `fig9.xmalloc-large-collapse`.
/// §2.2 / §4.2.1: XMalloc's large allocations are the ones that take the
/// heap lock and traverse the Memoryblock list; small ones come out of the
/// FIFO buffers. The original crashes on that path at large sizes; the port
/// stood in for it with a walk from the list head, quadratic in the launch,
/// until the walk learnt where to start. What stays true is exact: which
/// path reaches the list — and that it is the slower one.
#[test]
fn xmalloc_collapses_for_large_sizes() {
    let _serial = serial();
    // One launch of what a first-level buffer holds, so a warmed-up small
    // round is FIFO pops and pushes only and the count below is exact.
    const NUM: u32 = alloc_xmalloc::FIRST_LEVEL_CAP as u32;
    let b = inline_bench();
    // (list hops per malloc, fastest alloc launch) of three rounds that
    // follow a warm-up round on the same manager.
    let profile = |size: u64| {
        let alloc = ManagerKind::XMalloc
            .builder()
            .heap_spec(b.heap_spec(NUM, size))
            .sms(b.device.spec().num_sms)
            .metrics(true)
            .build();
        let mut warm = alloc.metrics().snapshot();
        let mut fastest = Duration::MAX;
        for round in 0..4 {
            let ptrs = PerThread::<DevicePtr>::new(NUM as usize);
            let elapsed = b.device.launch(NUM, |ctx| {
                ptrs.set(
                    ctx.thread_id as usize,
                    alloc.malloc(ctx, size).expect("heap fits a round"),
                )
            });
            let ptrs = ptrs.into_vec();
            b.device.launch(NUM, |ctx| {
                alloc.free(ctx, ptrs[ctx.thread_id as usize]).expect("own pointer")
            });
            if round == 0 {
                warm = alloc.metrics().snapshot();
            } else {
                fastest = fastest.min(elapsed);
            }
        }
        let counted = alloc.metrics().snapshot().delta_since(&warm);
        (counted.list_hops() as f64 / counted.malloc_calls() as f64, fastest)
    };
    let (small_hops, small) = profile(64);
    let (large_hops, large) = profile(4096);
    assert_eq!(small_hops, 0.0, "64 B never reaches the list once its Superblocks exist");
    assert!(large_hops >= 1.0, "every 4096 B malloc walks the list: {large_hops} hops");
    assert!(large > small, "the list path ({large:?}) is slower than the buffers ({small:?})");
}

/// Shape `fig11a.frag-ordering`.
/// §4.3.1 / Fig. 11a: Ouroboros stays close to the packed baseline while
/// the CUDA-Allocator model spans (nearly) its whole region.
#[test]
fn fragmentation_ordering() {
    let _serial = serial();
    let b = inline_bench();
    let ouro = runners::fragmentation(&b, ManagerKind::OuroVAC, 10_000, 256, 2);
    assert!(
        ouro.initial.expansion_factor() < 3.0,
        "ouroboros expansion {}",
        ouro.initial.expansion_factor()
    );
    let cuda = runners::fragmentation(&b, ManagerKind::CudaAllocator, 256, 4096, 0);
    // One small+large split already spans most of the heap in the model;
    // with only large allocations the top-down layout dominates: range must
    // vastly exceed demand.
    assert!(
        cuda.initial.expansion_factor() > ouro.initial.expansion_factor(),
        "cuda {} vs ouro {}",
        cuda.initial.expansion_factor(),
        ouro.initial.expansion_factor()
    );
}

/// Shapes `fig11b.oom-ordering`, `fig11b.alignment-floor`.
/// §4.3.2 / Fig. 11b: Ouroboros reaches ≥ 95 % utilization; Halloc is held
/// back by its CUDA section; the 16 B alignment floor shows below 16 B.
#[test]
fn oom_utilization_ordering() {
    let _serial = serial();
    let b = inline_bench();
    let ouro = runners::oom(&b, ManagerKind::OuroSC, 64 << 20, 1024);
    assert!(ouro.utilization > 0.9, "ouroboros OOM utilization {}", ouro.utilization);
    let halloc = runners::oom(&b, ManagerKind::Halloc, 64 << 20, 1024);
    assert!(
        halloc.utilization < ouro.utilization,
        "halloc {} must trail ouroboros {} (reserved CUDA section)",
        halloc.utilization,
        ouro.utilization
    );
    // Sub-16 B requests burn the 16 B minimum: utilization ratio ~size/16.
    let tiny = runners::oom(&b, ManagerKind::OuroSC, 64 << 20, 4);
    assert!(
        tiny.utilization < 0.5,
        "4 B allocations cannot beat the 16 B grain: {}",
        tiny.utilization
    );
}

/// Shape `fig11c.scatter-vs-baseline`.
/// §4.4.1 / Fig. 11c: for small per-thread outputs at moderate thread
/// counts, the recommended managers beat the prefix-sum baseline. The claim
/// is about time — the baseline's two passes against one pass with an
/// allocation per item — so this stays a timing ratio, run in release.
#[cfg_attr(debug_assertions, ignore = "timing-ratio shape: run with --release")]
#[test]
fn workgen_beats_baseline_at_moderate_counts() {
    let _serial = serial();
    let b = bench();
    let n = 4096;
    // Single-pass wall-clocks on an oversubscribed host can absorb a whole
    // scheduler timeslice; min-of-2 keeps the ratio about the workload.
    let min2 = |f: &dyn Fn() -> Duration| f().min(f());
    let base = min2(&|| runners::work_generation_baseline(&b, n, 4, 64).elapsed);
    for kind in [ManagerKind::ScatterAlloc, ManagerKind::OuroSP, ManagerKind::Halloc] {
        let c = runners::work_generation(&b, kind, n, 4, 64);
        assert_eq!(c.failures, 0);
        let elapsed = min2(&|| runners::work_generation(&b, kind, n, 4, 64).elapsed).min(c.elapsed);
        assert!(
            elapsed < base * 4,
            "{} ({elapsed:?}) should be in the baseline's ballpark ({base:?}) or better",
            kind.label()
        );
    }
}

/// Shape `fig11e.coalescing-ordering`.
/// §4.4.2 / Fig. 11e: well-packed allocators stay close to the coalesced
/// baseline; Reg-Eff's unaligned headers cost extra transactions.
#[test]
fn write_coalescing_ordering() {
    let _serial = serial();
    let b = inline_bench();
    let n = 1 << 14;
    let pattern = WritePattern::Uniform { bytes: 32 };
    let ouro = runners::write_performance(&b, ManagerKind::OuroSP, n, pattern);
    let regeff = runners::write_performance(&b, ManagerKind::RegEffC, n, pattern);
    assert!(ouro.relative_cost < 1.5, "ouroboros rel cost {}", ouro.relative_cost);
    assert!(
        regeff.relative_cost > ouro.relative_cost,
        "Reg-Eff ({}) must coalesce worse than Ouroboros ({})",
        regeff.relative_cost,
        ouro.relative_cost
    );
}

/// Shape `fig11f.cuda-worst-init`.
/// §4.4.3 / Fig. 11f: building a sparse graph is many small allocations,
/// the CUDA-Allocator model's worst case and ScatterAlloc's best. Asserted
/// on `adaptive`, the largest stand-in, where the gap is ~2.5× on a 2-vCPU
/// host; on `rgg_n_2_20_s0` it is ~1.25×, too close to the run-to-run spread
/// for a test. The claim is about time — how long the build launch takes —
/// so this stays a timing ratio, run in release; the structure behind it is
/// pinned exactly, in debug too, by
/// `cuda_allocator_graph_init_walks_its_unit_registry`.
#[cfg_attr(debug_assertions, ignore = "timing-ratio shape: run with --release")]
#[test]
fn cuda_allocator_is_worst_at_graph_init() {
    let _serial = serial();
    let b = bench();
    let csr = gpumemsurvey::dyn_graph::generate("adaptive", 64, b.seed);
    let init = |kind| {
        // Min-of-2, as in the work-generation shape: one pass can absorb a
        // whole scheduler timeslice on an oversubscribed host.
        let run = || runners::graph_init(&b, kind, &csr).unwrap();
        let (first, second) = (run(), run());
        assert_eq!(first.failures + second.failures, 0, "{}", kind.label());
        first.elapsed.min(second.elapsed)
    };
    let cuda = init(ManagerKind::CudaAllocator);
    let scatter = init(ManagerKind::ScatterAlloc);
    assert!(cuda > scatter, "graph init (adaptive): cuda {cuda:?} vs scatter {scatter:?}");
}

/// Shape `fig11f.cuda-worst-init`, counted: why building the graph is the
/// CUDA-Allocator model's worst case. Every adjacency is a small request
/// (≤ 2048 B), and each small malloc first walks the model's unit registry,
/// one probe step per unit carved so far, so the walk grows with the build;
/// the large path's free list is never walked. ScatterAlloc probes a few
/// pages of its class per malloc. Counted during `adaptive` graph init on
/// the inline device, so it is exact on any host and holds in debug.
#[test]
fn cuda_allocator_graph_init_walks_its_unit_registry() {
    let _serial = serial();
    let b = inline_bench();
    let csr = gpumemsurvey::dyn_graph::generate("adaptive", 64, b.seed);
    let heap = b.try_heap_spec(1, runners::graph_demand(&csr, 0).unwrap().max(1 << 20)).unwrap();
    let per_malloc = |kind: ManagerKind| {
        let alloc = b.builder(kind).heap_spec(heap).metrics(true).build();
        let (g, _) = gpumemsurvey::dyn_graph::DynGraph::init(alloc.as_ref(), &b.device, &csr);
        assert_eq!(g.failures(), 0, "{kind}");
        let c = alloc.metrics().snapshot();
        assert_eq!(c.malloc_calls(), u64::from(csr.vertices()), "{kind}: one malloc per vertex");
        let mallocs = c.malloc_calls() as f64;
        (c.probe_steps() as f64 / mallocs, c.list_hops() as f64 / mallocs)
    };
    let (cuda_probes, cuda_hops) = per_malloc(ManagerKind::CudaAllocator);
    let (scatter_probes, _) = per_malloc(ManagerKind::ScatterAlloc);
    assert_eq!(cuda_hops, 0.0, "every adjacency takes the small path: no free-list walk");
    assert!(
        cuda_probes > 10.0 * scatter_probes,
        "per malloc: CUDA model walks {cuda_probes:.1} registry units, \
         ScatterAlloc probes {scatter_probes:.1} pages"
    );
}

/// Shape `sec41.cuda-fastest-init`.
/// §4.1: the CUDA-Allocator has next to nothing to set up, while Ouroboros
/// pre-fills its queues. The claim is about time — initialisation as a
/// launch would pay it — so this stays a timing ratio, run in release. Its
/// counted twin, in debug too, is
/// `tests/host_alloc.rs::cuda_allocator_initialises_with_the_fewest_host_bytes`.
#[cfg_attr(debug_assertions, ignore = "timing-ratio shape: run with --release")]
#[test]
fn cuda_allocator_initialises_fastest() {
    let _serial = serial();
    let b = bench();
    let cuda = runners::init_performance(&b, ManagerKind::CudaAllocator, 256 << 20);
    let ouro = runners::init_performance(&b, ManagerKind::OuroSP, 256 << 20);
    assert!(cuda.init <= ouro.init, "init: cuda {:?} vs ouro-s-p {:?}", cuda.init, ouro.init);
}

/// Shape `sec41.register-ordering`.
/// §4.1: register-footprint proxy ordering — Reg-Eff least, CUDA close,
/// Halloc/ScatterAlloc around 40 for malloc, Ouroboros at/above them,
/// XMalloc's malloc the outlier, everyone's free modest.
#[test]
fn register_footprint_ordering() {
    let _serial = serial();
    let fp = |k: ManagerKind| k.builder().heap(64 << 20).sms(80).build().register_footprint();
    let regeff = fp(ManagerKind::RegEffCF);
    let cuda = fp(ManagerKind::CudaAllocator);
    let scatter = fp(ManagerKind::ScatterAlloc);
    let halloc = fp(ManagerKind::Halloc);
    let ouro_c = fp(ManagerKind::OuroSC);
    let ouro_p = fp(ManagerKind::OuroSP);
    let xmalloc = fp(ManagerKind::XMalloc);

    assert!(regeff.malloc < cuda.malloc);
    assert!(cuda.malloc < scatter.malloc);
    assert!((30..=50).contains(&scatter.malloc));
    assert!((30..=50).contains(&halloc.malloc));
    assert!(ouro_c.malloc > ouro_p.malloc, "chunked carries more state");
    assert!(xmalloc.malloc > 2 * ouro_c.malloc, "XMalloc is the outlier");
    for f in [regeff.free, cuda.free, scatter.free, halloc.free, ouro_p.free, xmalloc.free] {
        assert!(f <= 30, "free footprints stay modest: {f}");
    }
}

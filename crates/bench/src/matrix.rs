//! `repro matrix` — the declarative scenario registry behind the committed
//! `BENCH_<scenario>.json` anchors.
//!
//! One [`ScenarioSpec`] per paper test-case family (scenario × manager
//! family × thread/warp variant), each producing a schema-versioned
//! [`Anchor`] with provenance stamps. This is the only producer of
//! paper-figure results; the tier ([`Axes`]) picks the grid:
//!
//! * `smoke` — a reduced grid at small counts; the committed anchors and the
//!   PR-CI gate.
//! * `full` — the paper's axes and counts (Fig. 9 size sweep at 100 K
//!   threads, scaling 2⁰–2²⁰ at four sizes, every graph, …) on the worker
//!   pool; the main-branch CI job, uploaded as artifacts rather than
//!   committed.
//! * `tiny` — the smoke grid at test-only counts so the golden-file tests
//!   stay fast.
//!
//! `tiny` and `smoke` run every scenario on the inline one-worker device, so
//! every metric that is not a wall-clock or host reading reproduces bit for
//! bit and is anchored `exact`; timings are anchored `info`.
//!
//! Metric keys are `{manager}/{cell}/{measure}` and stable across runs of
//! the same tier; the gate (`crate::gate`) treats a vanished key as a
//! failure, so anything nondeterministic enough to appear or disappear
//! between runs must not become a metric.

use std::fmt;
use std::ops::RangeInclusive;
use std::time::Duration;

use gpu_sim::{Device, DeviceSpec};
use gpu_workloads::sizes;
use gpu_workloads::write_test::WritePattern;
use gpumem_core::sanitize::ALL_VIOLATION_KINDS;
use gpumem_core::{Counter, CounterSnapshot, HeapBackendKind, Pretouch};

use crate::anchor::{Anchor, Metric, SCHEMA_VERSION};
use crate::registry::{ManagerKind, ALL_KINDS, DEFAULT_KINDS};
use crate::runners::{self, Bench, SizingError};

/// Which rung of the matrix ladder a run sizes for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Test-only sizing: the golden-file tests run real scenarios cheaply.
    Tiny,
    /// Committed-anchor sizing: completes in minutes, gates every PR.
    Smoke,
    /// The paper's axes and counts (see [`Axes`]): main branch.
    Full,
}

impl Tier {
    pub fn as_str(&self) -> &'static str {
        match self {
            Tier::Tiny => "tiny",
            Tier::Smoke => "smoke",
            Tier::Full => "full",
        }
    }
}

impl std::str::FromStr for Tier {
    type Err = ();

    fn from_str(s: &str) -> Result<Tier, ()> {
        match s {
            "tiny" => Ok(Tier::Tiny),
            "smoke" => Ok(Tier::Smoke),
            "full" => Ok(Tier::Full),
            _ => Err(()),
        }
    }
}

/// The grid one tier runs: every count and swept axis of every scenario in
/// one place. `tiny` and `smoke` share a reduced grid (so the golden tests
/// run the cells the committed anchors hold) and differ only in counts;
/// `full` takes the axes and counts of the paper's test table.
#[derive(Debug, PartialEq)]
struct Axes {
    /// Fig. 9a-f and 9h: allocating threads per cell.
    threads: u32,
    /// Fig. 9a-f allocation sizes.
    sizes: Vec<u64>,
    /// Fig. 9g: warp allocations per cell, and their sizes.
    warps: u32,
    warp_sizes: Vec<u64>,
    /// Fig. 9h: upper bounds of the per-thread size range.
    mixed_uppers: Vec<u64>,
    /// Fig. 10: sizes, and thread counts as exponents of two.
    scaling_sizes: Vec<u64>,
    scaling_exps: RangeInclusive<u32>,
    /// Fig. 11a: allocations, alloc/free cycles, sizes.
    frag_num: u32,
    frag_cycles: u32,
    frag_sizes: Vec<u64>,
    /// Heap of the Fig. 11b storm and of the §4.1 construction.
    heap: u64,
    /// Fig. 11b: managers and sizes.
    oom_kinds: Vec<ManagerKind>,
    oom_sizes: Vec<u64>,
    /// Fig. 11c/d: thread counts.
    workgen_threads: Vec<u32>,
    /// Fig. 11e: writing threads, and patterns with their key tags.
    write_threads: u32,
    write_patterns: Vec<(&'static str, WritePattern)>,
    /// Fig. 11f/g: graphs, their scale divisor, inserted edges.
    graphs: Vec<&'static str>,
    graph_div: u32,
    update_edges: u32,
    /// §4.2.1 churn: threads per cycle.
    churn_threads: u32,
}

impl Tier {
    fn axes(self) -> Axes {
        const SIZES: [u64; 7] = [4, 16, 64, 256, 1024, 4096, 8192];
        if self == Tier::Full {
            return Axes {
                threads: 100_000,
                sizes: sizes::alloc_size_sweep(),
                warps: 10_000,
                warp_sizes: sizes::alloc_size_sweep(),
                mixed_uppers: sizes::mixed_upper_bounds(),
                scaling_sizes: vec![16, 64, 512, 8192],
                scaling_exps: 0..=20,
                frag_num: 100_000,
                frag_cycles: 10,
                frag_sizes: SIZES.to_vec(),
                heap: 256 << 20,
                oom_kinds: DEFAULT_KINDS.to_vec(),
                oom_sizes: SIZES.to_vec(),
                workgen_threads: (0..=20).map(|e| 1 << e).collect(),
                write_threads: 65_536,
                write_patterns: vec![
                    ("u16", WritePattern::Uniform { bytes: 16 }),
                    ("u64", WritePattern::Uniform { bytes: 64 }),
                    ("u128", WritePattern::Uniform { bytes: 128 }),
                    ("m16-128", WritePattern::Mixed { lo: 16, hi: 128 }),
                ],
                graphs: dyn_graph::GRAPH_NAMES.to_vec(),
                graph_div: 64,
                update_edges: 20_000,
                churn_threads: 10_000,
            };
        }
        let pick = |tiny: u32, smoke: u32| if self == Tier::Tiny { tiny } else { smoke };
        Axes {
            threads: pick(256, 2048),
            sizes: vec![16, 512],
            warps: pick(128, 1024),
            warp_sizes: vec![256],
            mixed_uppers: vec![1024, 4096],
            scaling_sizes: vec![16],
            scaling_exps: 1..=pick(4, 8),
            frag_num: pick(512, 2048),
            frag_cycles: pick(2, 4),
            frag_sizes: vec![64, 4096],
            heap: 64 << 20,
            oom_kinds: vec![ManagerKind::OuroSP, ManagerKind::ScatterAlloc, ManagerKind::Halloc],
            oom_sizes: vec![1024],
            workgen_threads: vec![pick(256, 2048)],
            write_threads: pick(1024, 4096),
            write_patterns: vec![
                ("u16", WritePattern::Uniform { bytes: 16 }),
                ("m16-128", WritePattern::Mixed { lo: 16, hi: 128 }),
            ],
            graphs: vec!["fe_body"],
            graph_div: pick(512, 256),
            update_edges: pick(500, 2000),
            churn_threads: pick(256, 2048),
        }
    }
}

/// Everything a scenario needs to size and seed itself.
#[derive(Clone, Debug)]
pub struct MatrixCfg {
    pub device: DeviceSpec,
    pub tier: Tier,
    pub seed: u64,
    pub iterations: u32,
    pub timeout: Duration,
    pub heap_backend: HeapBackendKind,
    /// Pins every cell's heap to this many bytes instead of the
    /// demand-derived sizing (`--heap-mb`: the paper's 8 GiB heap).
    pub heap_override: Option<u64>,
    /// Restricts scenarios to these manager kinds (`-t` / `-m`);
    /// `None` runs each scenario's natural set. Scenario bodies apply it
    /// through [`MatrixCfg::restrict`], so the anchors a restricted run
    /// produces are a key-subset of the unrestricted ones.
    pub kinds: Option<Vec<ManagerKind>>,
}

impl MatrixCfg {
    /// Tier defaults on the TITAN V spec with the paper's workload seed.
    pub fn new(tier: Tier) -> Self {
        MatrixCfg {
            device: DeviceSpec::titan_v(),
            tier,
            seed: 0x5eed,
            iterations: match tier {
                Tier::Tiny => 1,
                Tier::Smoke => 2,
                Tier::Full => 3,
            },
            timeout: Duration::from_secs(if tier == Tier::Full { 30 } else { 20 }),
            heap_backend: HeapBackendKind::env_default(),
            heap_override: None,
            kinds: None,
        }
    }

    /// Applies the optional manager restriction to a scenario's natural
    /// kind set, preserving the natural order (metric keys keep their
    /// relative ordering in restricted runs). No restriction passes the
    /// set through unchanged.
    pub fn restrict(&self, natural: &[ManagerKind]) -> Vec<ManagerKind> {
        match &self.kinds {
            None => natural.to_vec(),
            Some(sel) => natural.iter().copied().filter(|k| sel.contains(k)).collect(),
        }
    }

    /// The worker count [`MatrixCfg::bench`] runs this tier on.
    fn workers(&self) -> usize {
        match self.tier {
            Tier::Tiny | Tier::Smoke => 1,
            Tier::Full => Device::configured_workers(),
        }
    }

    /// The shared runner context for one scenario. The tier pins the worker
    /// count for the same reason it pins iterations and timeouts, so that
    /// anchors compare: `tiny` and `smoke` run on the inline one-worker
    /// device, whose sequential warp order makes every non-timing metric
    /// reproduce bit for bit; `full` runs on the configured pool.
    pub fn bench(&self) -> Bench {
        let dev = match self.tier {
            Tier::Tiny | Tier::Smoke => Device::with_workers(self.device, 1),
            Tier::Full => Device::new(self.device),
        };
        let mut b = Bench::new(dev);
        b.iterations = self.iterations;
        b.seed = self.seed;
        b.cell_timeout = self.timeout;
        b.heap_backend = self.heap_backend;
        b.heap_override = self.heap_override;
        b
    }

    /// [`MatrixCfg::bench`] with the `Cached` magazine decorator enabled and
    /// one untimed warm-up pass, so the timed iterations measure the
    /// steady-state magazine hot path rather than the cold first fill.
    pub fn cached_bench(&self) -> Bench {
        let mut b = self.bench();
        b.cached = true;
        b.warmup = 1;
        b
    }

    /// Metric-key cell `label`, or `label/axis` at the full tier: for the
    /// axes tiny and smoke pin to one value, whose committed keys therefore
    /// never named it.
    fn cell(&self, label: &str, axis: impl fmt::Display) -> String {
        match self.tier {
            Tier::Full => format!("{label}/{axis}"),
            Tier::Tiny | Tier::Smoke => label.to_string(),
        }
    }
}

/// Why a scenario could not produce an anchor.
#[derive(Clone, Debug, PartialEq)]
pub enum MatrixError {
    /// A runner's demand computation overflowed (satellite bugfix: checked
    /// arithmetic instead of silent wrap/under-provision).
    Sizing(SizingError),
    /// A metric came out NaN/infinite — committing it would poison the gate.
    NonFinite { scenario: &'static str, key: String },
    /// `--scenario` named something not in [`SCENARIOS`].
    UnknownScenario(String),
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::Sizing(e) => write!(f, "sizing: {e}"),
            MatrixError::NonFinite { scenario, key } => {
                write!(f, "scenario {scenario}: metric {key} is not finite")
            }
            MatrixError::UnknownScenario(s) => {
                let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
                write!(f, "unknown scenario {s:?} (available: {})", names.join(", "))
            }
        }
    }
}

impl std::error::Error for MatrixError {}

impl From<SizingError> for MatrixError {
    fn from(e: SizingError) -> Self {
        MatrixError::Sizing(e)
    }
}

/// One row of the matrix registry.
pub struct ScenarioSpec {
    /// Anchor name: the file is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Paper family the scenario reproduces (figure/section).
    pub family: &'static str,
    /// Variant within the family (thread/warp, size range, graph mode...).
    pub variant: &'static str,
    run: fn(&MatrixCfg) -> Result<Vec<Metric>, MatrixError>,
}

/// The paper grid, one anchor per scenario.
pub const SCENARIOS: &[ScenarioSpec] = &[
    // First, as in the paper, and while the process is fresh: after the other
    // scenarios have churned the host allocator, constructing the
    // static-queue Ouroboros variants reads 15-40x slower.
    ScenarioSpec {
        name: "init",
        family: "Sec. 4.1 initialisation and registers",
        variant: "construction time over a pre-built heap, register-footprint proxy",
        run: init,
    },
    ScenarioSpec {
        name: "perf_thread",
        family: "Fig. 9a-f alloc/free performance",
        variant: "thread-based; 16/512 B, full: 4 B-8 KiB sweep at 100 K threads",
        run: perf_thread,
    },
    ScenarioSpec {
        name: "perf_warp",
        family: "Fig. 9g alloc/free performance",
        variant: "warp-based; 256 B, full: 4 B-8 KiB sweep at 10 K warps",
        run: perf_warp,
    },
    ScenarioSpec {
        name: "mixed",
        family: "Fig. 9h mixed allocation",
        variant: "thread-based, uniform [4, upper] B; upper 1024/4096, full: 4-8192",
        run: mixed,
    },
    ScenarioSpec {
        name: "perf_thread_cached",
        family: "Fig. 9a-f alloc/free performance",
        variant: "perf_thread grid, magazine-cached + warm-up",
        run: perf_thread_cached,
    },
    ScenarioSpec {
        name: "mixed_cached",
        family: "Fig. 9h mixed allocation",
        variant: "mixed grid, magazine-cached + warm-up",
        run: mixed_cached,
    },
    ScenarioSpec {
        name: "scaling",
        family: "Fig. 10 scaling sweep",
        variant: "top of a 2^1..2^N sweep at 16 B; full: every 2^0..2^20 at 16/64/512/8192 B",
        run: scaling,
    },
    ScenarioSpec {
        name: "frag",
        family: "Fig. 11a fragmentation",
        variant: "address-range expansion; 64/4096 B, full: 4 B-8 KiB",
        run: frag,
    },
    ScenarioSpec {
        name: "oom",
        family: "Fig. 11b out-of-memory",
        variant: "storm until first denial; 1 KiB on three managers, full: 4 B-8 KiB on all",
        run: oom,
    },
    ScenarioSpec {
        name: "workgen",
        family: "Fig. 11c/d work generation",
        variant: "managed vs prefix-sum baseline, 4-64/4-4096 B; full: 2^0..2^20 threads",
        run: workgen,
    },
    ScenarioSpec {
        name: "coalescing",
        family: "Fig. 11e write performance",
        variant: "coalescing-model relative cost; full: all four write patterns",
        run: coalescing,
    },
    ScenarioSpec {
        name: "graph_init",
        family: "Fig. 11f dynamic graph init",
        variant: "CSR build; fe_body, full: every graph",
        run: graph_init,
    },
    ScenarioSpec {
        name: "graph_update",
        family: "Fig. 11g dynamic graph updates",
        variant: "focused + uniform edge inserts; fe_body, full: every graph",
        run: graph_update,
    },
    ScenarioSpec {
        name: "churn",
        family: "Sec. 4.2.1 repeated alloc/free",
        variant: "10 allocate-all/free-all cycles at 256 B, last over first quarter",
        run: churn,
    },
    ScenarioSpec {
        name: "sanitize",
        family: "Sec. 4.2 test table: which managers break",
        variant: "churn + mixed sizes under the shadow-heap sanitizer, every kind",
        run: sanitize,
    },
];

/// Looks a scenario up by anchor name.
pub fn scenario(name: &str) -> Option<&'static ScenarioSpec> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Runs one scenario and wraps its metrics into a provenance-stamped anchor.
/// Every metric is checked finite here so a NaN can never reach a committed
/// anchor (the gate would then reject it as `InvalidAnchor`).
pub fn run_scenario(cfg: &MatrixCfg, spec: &ScenarioSpec) -> Result<Anchor, MatrixError> {
    let metrics = (spec.run)(cfg)?;
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(MatrixError::NonFinite { scenario: spec.name, key: m.key.clone() });
        }
    }
    Ok(Anchor {
        schema: SCHEMA_VERSION,
        scenario: spec.name.to_string(),
        tier: cfg.tier.as_str().to_string(),
        provenance: provenance(cfg),
        metrics,
    })
}

/// The provenance stamps every anchor carries: enough to reproduce the run
/// and to spot an apples/oranges comparison. Informational — the gate never
/// compares provenance values (the git sha differs on every commit by
/// design).
fn provenance(cfg: &MatrixCfg) -> Vec<(String, String)> {
    let mut stamps = vec![
        ("git".to_string(), crate::git_rev().to_string()),
        ("device".to_string(), cfg.device.name.to_string()),
        ("sms".to_string(), cfg.device.num_sms.to_string()),
        ("workers".to_string(), cfg.workers().to_string()),
        (
            "gms_workers".to_string(),
            std::env::var("GMS_WORKERS").unwrap_or_else(|_| "-".to_string()),
        ),
        ("seed".to_string(), format!("{:#x}", cfg.seed)),
        ("heap_backend".to_string(), cfg.heap_backend.to_string()),
        ("pretouch".to_string(), Pretouch::Auto.resolve(cfg.heap_backend).to_string()),
        ("iterations".to_string(), cfg.iterations.to_string()),
    ];
    // Only an overridden run names its heap, so default anchors keep the
    // stamp set the committed ones carry.
    if let Some(bytes) = cfg.heap_override {
        stamps.push(("heap_mb".to_string(), (bytes >> 20).to_string()));
    }
    stamps
}

/// Throughput in million operations per second; the duration is floored to
/// 1 ns so a sub-tick timer reading cannot mint an infinite metric, which
/// [`run_scenario`] would refuse.
fn mops(ops: u32, d: Duration) -> f64 {
    ops as f64 * 1e3 / d.as_nanos().max(1) as f64
}

/// Thousand operations per second (work generation runs whole milliseconds).
fn kops(ops: u32, d: Duration) -> f64 {
    ops as f64 * 1e6 / d.as_nanos().max(1) as f64
}

/// The contention counters every perf cell pins, from the counted round of
/// `runners::alloc_perf` / `runners::mixed_perf`.
const CONTENTION_COUNTERS: [Counter; 6] = [
    Counter::CasRetries,
    Counter::ProbeSteps,
    Counter::QueueSpins,
    Counter::ListHops,
    Counter::OomFallbacks,
    Counter::WarpCoalesced,
];

/// Pushes the exact `{cell}/{counter}` metrics of one perf cell's counted
/// round.
fn push_contention(metrics: &mut Vec<Metric>, cell: &str, counters: &CounterSnapshot) {
    for c in CONTENTION_COUNTERS {
        metrics.push(Metric::exact(format!("{cell}/{}", c.name()), counters.get(c) as f64));
    }
}

/// The eight-manager core set used where the full 15-kind sweep would make
/// a scenario's runtime dominate the matrix: one representative per family
/// (standard + virtualized Ouroboros, ScatterAlloc, Halloc, CUDA model,
/// XMalloc, Reg-Eff, the Atomic baseline).
const CORE_KINDS: [ManagerKind; 8] = [
    ManagerKind::OuroSP,
    ManagerKind::OuroVAP,
    ManagerKind::ScatterAlloc,
    ManagerKind::Halloc,
    ManagerKind::CudaAllocator,
    ManagerKind::XMalloc,
    ManagerKind::RegEffC,
    ManagerKind::Atomic,
];

/// Managers the dynamic-graph scenarios run: general free required (no
/// FDGMalloc), and Atomic cannot update in place.
const GRAPH_KINDS: [ManagerKind; 4] = [
    ManagerKind::OuroVLP,
    ManagerKind::OuroSP,
    ManagerKind::ScatterAlloc,
    ManagerKind::CudaAllocator,
];

fn perf_thread(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    perf_thread_body(cfg, cfg.bench())
}

/// Same grid and metric keys as [`perf_thread`], but through the magazine
/// decorator: the key identity is what lets `BENCH_perf_thread_cached.json`
/// be diffed metric-for-metric against `BENCH_perf_thread.json`.
fn perf_thread_cached(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    perf_thread_body(cfg, cfg.cached_bench())
}

fn perf_thread_body(cfg: &MatrixCfg, bench: Bench) -> Result<Vec<Metric>, MatrixError> {
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for kind in cfg.restrict(&DEFAULT_KINDS) {
        for &size in &ax.sizes {
            let c = runners::alloc_perf(&bench, kind, ax.threads, size, false);
            let k = format!("{}/s{size}", kind.label());
            metrics.push(Metric::info(format!("{k}/alloc_mops"), mops(ax.threads, c.alloc)));
            if let Some(free) = c.free {
                metrics.push(Metric::info(format!("{k}/free_mops"), mops(ax.threads, free)));
            }
            metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
            push_contention(&mut metrics, &k, &c.counters);
            // A manager past its cliff skips its larger sizes (the
            // artifact's per-process timeout); the gate reports the keys
            // that vanish with them.
            if c.timed_out {
                break;
            }
        }
    }
    Ok(metrics)
}

fn perf_warp(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for kind in cfg.restrict(&DEFAULT_KINDS) {
        for &size in &ax.warp_sizes {
            let c = runners::alloc_perf(&bench, kind, ax.warps, size, true);
            let k = format!("{}/w{size}", kind.label());
            metrics.push(Metric::info(format!("{k}/alloc_mops"), mops(ax.warps, c.alloc)));
            metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
            push_contention(&mut metrics, &k, &c.counters);
            if c.timed_out {
                break;
            }
        }
    }
    Ok(metrics)
}

fn mixed(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    mixed_body(cfg, cfg.bench())
}

/// Cached twin of [`mixed`]; see [`perf_thread_cached`] on key identity.
/// This is the contention scenario the magazines target: mixed sizes land in
/// a handful of size classes, so the warmed magazines absorb most of the
/// timed traffic that would otherwise hit shared manager metadata.
fn mixed_cached(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    mixed_body(cfg, cfg.cached_bench())
}

fn mixed_body(cfg: &MatrixCfg, bench: Bench) -> Result<Vec<Metric>, MatrixError> {
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for kind in cfg.restrict(&DEFAULT_KINDS) {
        for &upper in &ax.mixed_uppers {
            let c = runners::mixed_perf(&bench, kind, ax.threads, upper);
            let k = format!("{}/u{upper}", kind.label());
            metrics.push(Metric::info(format!("{k}/alloc_mops"), mops(ax.threads, c.alloc)));
            metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
            push_contention(&mut metrics, &k, &c.counters);
            if c.timed_out {
                break;
            }
        }
    }
    Ok(metrics)
}

fn scaling(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    // Full reports every exponent, and the free side (Fig. 10e-h) with it;
    // the reduced tiers report only the top of their sweep.
    let every = cfg.tier == Tier::Full;
    let mut metrics = Vec::new();
    for kind in cfg.restrict(&CORE_KINDS) {
        for &size in &ax.scaling_sizes {
            let k = cfg.cell(kind.label(), format_args!("s{size}"));
            let mut failures = 0u64;
            for e in ax.scaling_exps.clone() {
                let c = runners::alloc_perf(&bench, kind, 1u32 << e, size, false);
                failures += c.failures;
                // A cell that timed out ends the sweep unreported: a manager
                // that stops scaling earlier than before loses keys, which
                // the gate reports as missing metrics.
                if c.timed_out {
                    break;
                }
                if every || e == *ax.scaling_exps.end() {
                    metrics
                        .push(Metric::info(format!("{k}/e{e}/alloc_mops"), mops(c.num, c.alloc)));
                }
                if let Some(free) = c.free.filter(|_| every) {
                    metrics.push(Metric::info(format!("{k}/e{e}/free_mops"), mops(c.num, free)));
                }
            }
            metrics.push(Metric::exact(format!("{k}/failures_total"), failures as f64));
        }
    }
    Ok(metrics)
}

fn frag(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for kind in cfg.restrict(&DEFAULT_KINDS) {
        for &size in &ax.frag_sizes {
            let c = runners::fragmentation(&bench, kind, ax.frag_num, size, ax.frag_cycles);
            let k = format!("{}/s{size}", kind.label());
            metrics.push(Metric::exact(format!("{k}/expansion"), c.initial.expansion_factor()));
            let growth = c.max_range_after_cycles as f64 / c.initial.address_range.max(1) as f64;
            metrics.push(Metric::exact(format!("{k}/cycle_growth"), growth));
        }
    }
    Ok(metrics)
}

fn oom(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for kind in cfg.restrict(&ax.oom_kinds) {
        for &size in &ax.oom_sizes {
            let c = runners::oom(&bench, kind, ax.heap, size);
            let k = cfg.cell(kind.label(), format_args!("s{size}"));
            metrics.push(Metric::exact(format!("{k}/utilization"), c.utilization));
            metrics.push(Metric::exact(format!("{k}/timed_out"), c.timed_out as u8 as f64));
        }
    }
    Ok(metrics)
}

fn workgen(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for (lo, hi) in [(4u64, 64u64), (4, 4096)] {
        let cell =
            |label: &str, n: u32| cfg.cell(&format!("{label}/r{lo}-{hi}"), format_args!("t{n}"));
        for &n in &ax.workgen_threads {
            let base = runners::work_generation_baseline(&bench, n, lo, hi);
            let k = cell("Baseline", n);
            metrics.push(Metric::info(format!("{k}/kops"), kops(n, base.elapsed)));
        }
        for kind in cfg.restrict(&CORE_KINDS) {
            for &n in &ax.workgen_threads {
                let c = runners::work_generation(&bench, kind, n, lo, hi);
                let k = cell(kind.label(), n);
                metrics.push(Metric::info(format!("{k}/kops"), kops(n, c.elapsed)));
                metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
            }
        }
    }
    Ok(metrics)
}

fn coalescing(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for &(tag, pattern) in &ax.write_patterns {
        for kind in cfg.restrict(&CORE_KINDS) {
            let c = runners::write_performance(&bench, kind, ax.write_threads, pattern);
            let k = format!("{}/{tag}", kind.label());
            metrics.push(Metric::exact(format!("{k}/relative_cost"), c.relative_cost));
            metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
        }
    }
    Ok(metrics)
}

fn graph_init(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for name in ax.graphs {
        let csr = dyn_graph::generate(name, ax.graph_div, bench.seed);
        let edges = csr.edges() as u32;
        for kind in cfg.restrict(&GRAPH_KINDS) {
            let c = runners::graph_init(&bench, kind, &csr)?;
            let k = format!("{}/{name}", kind.label());
            metrics.push(Metric::info(format!("{k}/edges_mops"), mops(edges, c.elapsed)));
            metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
        }
    }
    Ok(metrics)
}

fn graph_update(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for name in ax.graphs {
        let csr = dyn_graph::generate(name, ax.graph_div, bench.seed);
        for kind in cfg.restrict(&GRAPH_KINDS) {
            for (mode, focused) in [("focused", true), ("uniform", false)] {
                let c = runners::graph_update(&bench, kind, &csr, ax.update_edges, focused)?;
                let k = format!("{}/{mode}", cfg.cell(kind.label(), name));
                metrics.push(Metric::info(
                    format!("{k}/edges_mops"),
                    mops(ax.update_edges, c.elapsed),
                ));
                metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
            }
        }
    }
    Ok(metrics)
}

/// §4.1: manager construction time over a pre-built heap, and the
/// register-footprint proxy of `malloc`/`free`.
fn init(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for kind in cfg.restrict(&DEFAULT_KINDS) {
        // Construction is one short run, so the reading is the fastest of
        // the tier's iterations: the one the host disturbed least.
        let c = (0..cfg.iterations)
            .map(|_| runners::init_performance(&bench, kind, ax.heap))
            .min_by_key(|c| c.init)
            .expect("every tier runs at least one iteration");
        let k = kind.label();
        metrics.push(Metric::info(format!("{k}/init_ms"), c.init.as_nanos() as f64 / 1e6));
        metrics.push(Metric::exact(format!("{k}/malloc_regs"), c.malloc_regs as f64));
        metrics.push(Metric::exact(format!("{k}/free_regs"), c.free_regs as f64));
    }
    Ok(metrics)
}

/// §4.2.1 "slowing down significantly over time": the same allocate-all /
/// free-all cycle repeated, reported as last-quarter over first-quarter
/// allocation time. Managers that cannot free have no cycle to repeat.
fn churn(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    const SIZE: u64 = 256;
    const CYCLES: u32 = 10;
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for kind in cfg.restrict(&DEFAULT_KINDS) {
        let alloc =
            bench.builder(kind).heap_spec(bench.try_heap_spec(ax.churn_threads, SIZE)?).build();
        let info = alloc.info();
        if !info.supports_free && !info.warp_level_only {
            continue;
        }
        let r = gpu_workloads::churn::run(
            alloc.as_ref(),
            &bench.device,
            ax.churn_threads,
            SIZE,
            CYCLES,
        );
        let k = kind.label();
        metrics.push(Metric::info(format!("{k}/slowdown"), r.slowdown_factor()));
        metrics.push(Metric::exact(format!("{k}/failures"), r.failures as f64));
    }
    Ok(metrics)
}

/// The paper's test table records which managers break. Every kind runs the
/// churn and mixed-size workloads under the shadow-heap sanitizer
/// (`runners::sanitize_run`): `Atomic` takes no free round, FDGMalloc frees
/// through `free_warp_all`, the rest per thread. A stable manager reads 0 on
/// every violation; `live_after` is what stays live after the last free
/// round, the whole demand for a manager without free.
fn sanitize(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let ax = cfg.tier.axes();
    let mut metrics = Vec::new();
    for kind in cfg.restrict(&ALL_KINDS) {
        let c = runners::sanitize_run(&bench, kind, ax.churn_threads, ax.frag_cycles);
        let k = kind.label();
        metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
        for (v, n) in ALL_VIOLATION_KINDS.iter().zip(c.counts) {
            metrics.push(Metric::exact(format!("{k}/{}", v.name()), n as f64));
        }
        metrics.push(Metric::exact(format!("{k}/live_after"), c.live_after as f64));
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for s in SCENARIOS {
            assert!(seen.insert(s.name), "duplicate scenario {}", s.name);
            assert!(scenario(s.name).is_some());
        }
        assert!(SCENARIOS.len() >= 8, "acceptance floor: >= 8 anchors");
        assert!(scenario("nope").is_none());
    }

    #[test]
    fn tier_round_trips() {
        for t in [Tier::Tiny, Tier::Smoke, Tier::Full] {
            assert_eq!(t.as_str().parse(), Ok(t));
        }
        assert_eq!("medium".parse::<Tier>(), Err(()));
    }

    /// The reduced tiers keep the cells the committed anchors hold; `full`
    /// sweeps what the paper's test table (and the retired per-figure
    /// subcommands) swept.
    #[test]
    fn axes_are_pinned_per_tier() {
        let uniform = |bytes| WritePattern::Uniform { bytes };
        let mixed = WritePattern::Mixed { lo: 16, hi: 128 };
        for (tier, exps, threads) in [(Tier::Tiny, 1..=4, 256), (Tier::Smoke, 1..=8, 2048)] {
            let a = tier.axes();
            assert_eq!(a.sizes, [16, 512]);
            assert_eq!(a.warp_sizes, [256]);
            assert_eq!(a.mixed_uppers, [1024, 4096]);
            assert_eq!((a.scaling_sizes, a.scaling_exps), (vec![16], exps));
            assert_eq!(a.frag_sizes, [64, 4096]);
            assert_eq!(a.heap, 64 << 20);
            assert_eq!(
                a.oom_kinds,
                [ManagerKind::OuroSP, ManagerKind::ScatterAlloc, ManagerKind::Halloc]
            );
            assert_eq!(a.oom_sizes, [1024]);
            assert_eq!(a.workgen_threads, [threads]);
            assert_eq!(a.write_patterns, [("u16", uniform(16)), ("m16-128", mixed)]);
            assert_eq!(a.graphs, ["fe_body"]);
            assert_eq!((a.threads, a.churn_threads), (threads, threads));
        }
        let s = Tier::Smoke.axes();
        assert_eq!((s.warps, s.frag_num, s.frag_cycles, s.write_threads), (1024, 2048, 4, 4096));
        assert_eq!((s.graph_div, s.update_edges), (256, 2000));

        let f = Tier::Full.axes();
        assert_eq!((f.threads, f.warps), (100_000, 10_000));
        assert_eq!(f.sizes, sizes::alloc_size_sweep());
        assert_eq!(f.warp_sizes, sizes::alloc_size_sweep());
        assert_eq!(f.mixed_uppers, sizes::mixed_upper_bounds());
        assert_eq!((f.scaling_sizes, f.scaling_exps), (vec![16, 64, 512, 8192], 0..=20));
        let seven = [4, 16, 64, 256, 1024, 4096, 8192];
        assert_eq!((f.frag_sizes.as_slice(), f.oom_sizes.as_slice()), (&seven[..], &seven[..]));
        assert_eq!(f.oom_kinds, DEFAULT_KINDS);
        assert_eq!(f.workgen_threads.len(), 21);
        assert_eq!((f.workgen_threads[0], f.workgen_threads[20]), (1, 1 << 20));
        assert_eq!(
            f.write_patterns,
            [
                ("u16", uniform(16)),
                ("u64", uniform(64)),
                ("u128", uniform(128)),
                ("m16-128", mixed)
            ]
        );
        assert_eq!(f.graphs, dyn_graph::GRAPH_NAMES);
    }

    #[test]
    fn mops_guards_zero_duration() {
        assert!(mops(1000, Duration::ZERO).is_finite());
        assert!(kops(1000, Duration::ZERO).is_finite());
    }

    #[test]
    fn oom_scenario_metrics_are_gateable() {
        let cfg = MatrixCfg::new(Tier::Tiny);
        let a = run_scenario(&cfg, scenario("oom").unwrap()).unwrap();
        let util = a.metric("Ouro-S-P/utilization").unwrap();
        assert!(util.value > 0.0 && util.value <= 1.0, "{}", util.value);
        assert_eq!(a.metric("Ouro-S-P/timed_out").unwrap().value, 0.0);
    }
}

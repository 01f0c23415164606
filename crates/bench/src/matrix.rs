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
//!   threads, scaling 2⁰–2²⁰ at four sizes, every graph, …); the main-branch
//!   CI job, uploaded as artifacts rather than committed.
//! * `tiny` — the smoke grid at test-only counts so the golden-file tests
//!   stay fast.
//!
//! Metric keys are `{manager}/{cell}/{measure}` and stable across runs of
//! the same tier; the gate (`crate::gate`) treats a vanished key as a
//! failure, so anything nondeterministic enough to appear or disappear
//! between runs must not become a metric.

use std::fmt;
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::{Device, DeviceSpec, LaunchHook};
use gpu_workloads::sizes;
use gpu_workloads::write_test::WritePattern;
use gpumem_core::trace::DEFAULT_EVENTS_PER_SM;
use gpumem_core::{HeapBackendKind, Pretouch, WARP_SIZE};

use crate::anchor::{Anchor, Metric, SCHEMA_VERSION};
use crate::registry::{ManagerKind, DEFAULT_KINDS};
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
    /// Traced allocations of the latency scenario.
    latency_num: u32,
    /// Trials of the executor microbenchmark.
    exec_trials: u32,
}

impl Tier {
    fn axes(self) -> Axes {
        const SIZES: [u64; 7] = [4, 16, 64, 256, 1024, 4096, 8192];
        if self == Tier::Full {
            return Axes {
                threads: 100_000,
                sizes: sizes::alloc_size_sweep(None),
                warps: 10_000,
                warp_sizes: sizes::alloc_size_sweep(None),
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
                latency_num: 100_000,
                exec_trials: 16,
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
            latency_num: pick(512, 2048),
            exec_trials: 8,
        }
    }
}

/// Everything a scenario needs to size and seed itself.
#[derive(Clone)]
pub struct MatrixCfg {
    pub device: DeviceSpec,
    pub tier: Tier,
    pub seed: u64,
    pub iterations: u32,
    pub timeout: Duration,
    pub heap_backend: HeapBackendKind,
    pub pretouch: Pretouch,
    /// Pins every cell's heap to this many bytes instead of the
    /// demand-derived sizing (`--heap-mb`: the paper's 8 GiB heap).
    pub heap_override: Option<u64>,
    /// Restricts scenarios to these manager kinds (`-t` / `-m`);
    /// `None` runs each scenario's natural set. Scenario bodies apply it
    /// through [`MatrixCfg::restrict`], so the anchors a restricted run
    /// produces are a key-subset of the unrestricted ones.
    pub kinds: Option<Vec<ManagerKind>>,
    /// Launch-lifecycle callback installed on every [`Device`] this config
    /// constructs — the telemetry sampler's kernel-boundary signal.
    pub launch_hook: Option<LaunchHook>,
}

impl fmt::Debug for MatrixCfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatrixCfg")
            .field("device", &self.device)
            .field("tier", &self.tier)
            .field("seed", &self.seed)
            .field("iterations", &self.iterations)
            .field("timeout", &self.timeout)
            .field("heap_backend", &self.heap_backend)
            .field("pretouch", &self.pretouch)
            .field("heap_override", &self.heap_override)
            .field("kinds", &self.kinds)
            .field("launch_hook", &self.launch_hook.as_ref().map(|_| "<hook>"))
            .finish()
    }
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
            pretouch: Pretouch::Auto,
            heap_override: None,
            kinds: None,
            launch_hook: None,
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

    /// The shared runner context for one scenario.
    pub fn bench(&self) -> Bench {
        let mut dev = Device::new(self.device);
        if let Some(hook) = &self.launch_hook {
            dev.set_launch_hook(Arc::clone(hook));
        }
        let mut b = Bench::new(dev);
        b.iterations = self.iterations;
        b.seed = self.seed;
        b.cell_timeout = self.timeout;
        b.heap_backend = self.heap_backend;
        b.pretouch = self.pretouch;
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
        name: "latency",
        family: "event-trace latency percentiles",
        variant: "malloc/free p50/p99 via per-SM rings",
        run: latency,
    },
    ScenarioSpec {
        name: "exec",
        family: "executor launch overhead",
        variant: "pooled: empty-launch latency, warp throughput, small-launch spread",
        run: exec,
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
        ("workers".to_string(), Device::configured_workers().to_string()),
        (
            "gms_workers".to_string(),
            std::env::var("GMS_WORKERS").unwrap_or_else(|_| "-".to_string()),
        ),
        ("seed".to_string(), format!("{:#x}", cfg.seed)),
        ("heap_backend".to_string(), cfg.heap_backend.to_string()),
        ("pretouch".to_string(), cfg.pretouch.resolve(cfg.heap_backend).to_string()),
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
/// 1 ns so a sub-tick timer reading cannot mint an infinite (ungateable)
/// anchor.
fn mops(ops: u32, d: Duration) -> f64 {
    ops as f64 * 1e3 / d.as_nanos().max(1) as f64
}

/// Thousand operations per second (work generation runs whole milliseconds).
fn kops(ops: u32, d: Duration) -> f64 {
    ops as f64 * 1e6 / d.as_nanos().max(1) as f64
}

/// Latency reading in nanoseconds, floored to 1 so `time_lo` anchors stay
/// positive (the gate rejects a 0 base).
fn lat_ns(ns: u64) -> f64 {
    ns.max(1) as f64
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
            metrics.push(Metric::time_hi(format!("{k}/alloc_mops"), mops(ax.threads, c.alloc)));
            if let Some(free) = c.free {
                metrics.push(Metric::time_hi(format!("{k}/free_mops"), mops(ax.threads, free)));
            }
            metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
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
            metrics.push(Metric::time_hi(format!("{k}/alloc_mops"), mops(ax.warps, c.alloc)));
            metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
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
            metrics.push(Metric::time_hi(format!("{k}/alloc_mops"), mops(ax.threads, c.alloc)));
            metrics.push(Metric::exact(format!("{k}/failures"), c.failures as f64));
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
                    metrics.push(Metric::time_hi(
                        format!("{k}/e{e}/alloc_mops"),
                        mops(c.num, c.alloc),
                    ));
                }
                if let Some(free) = c.free.filter(|_| every) {
                    metrics.push(Metric::time_hi(format!("{k}/e{e}/free_mops"), mops(c.num, free)));
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
            metrics.push(Metric::model_lo(format!("{k}/expansion"), c.initial.expansion_factor()));
            let growth = c.max_range_after_cycles as f64 / c.initial.address_range.max(1) as f64;
            metrics.push(Metric::model_lo(format!("{k}/cycle_growth"), growth));
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
            metrics.push(Metric::model_hi(format!("{k}/utilization"), c.utilization));
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
            metrics.push(Metric::time_hi(format!("{k}/kops"), kops(n, base.elapsed)));
        }
        for kind in cfg.restrict(&CORE_KINDS) {
            for &n in &ax.workgen_threads {
                let c = runners::work_generation(&bench, kind, n, lo, hi);
                let k = cell(kind.label(), n);
                metrics.push(Metric::time_hi(format!("{k}/kops"), kops(n, c.elapsed)));
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
            metrics.push(Metric::model_lo(format!("{k}/relative_cost"), c.relative_cost));
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
            metrics.push(Metric::time_hi(format!("{k}/edges_mops"), mops(edges, c.elapsed)));
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
                metrics.push(Metric::time_hi(
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
        metrics
            .push(Metric::time_lo(format!("{k}/init_ms"), lat_ns(c.init.as_nanos() as u64) / 1e6));
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
        let alloc = kind
            .builder()
            .heap_spec(bench.try_heap_spec(ax.churn_threads, SIZE)?)
            .sms(cfg.device.num_sms)
            .build();
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
        metrics.push(Metric::time_lo(format!("{k}/slowdown"), r.slowdown_factor()));
        metrics.push(Metric::exact(format!("{k}/failures"), r.failures as f64));
    }
    Ok(metrics)
}

fn latency(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let bench = cfg.bench();
    let num = cfg.tier.axes().latency_num;
    let mut metrics = Vec::new();
    for kind in cfg.restrict(&DEFAULT_KINDS) {
        let r = runners::trace_profile(&bench, kind, num, DEFAULT_EVENTS_PER_SM);
        let k = kind.label();
        metrics
            .push(Metric::time_lo(format!("{k}/malloc_p50_ns"), lat_ns(r.latencies.malloc.p50())));
        metrics
            .push(Metric::time_lo(format!("{k}/malloc_p99_ns"), lat_ns(r.latencies.malloc.p99())));
        // Warp-level-only and no-free families emit no `FreeEnd` events, so
        // an unconditional key would anchor a meaningless `lat_ns(0)` floor
        // and the gate would then "pass" on noise. Emit only when the free
        // path actually ran.
        if r.latencies.free.count() > 0 {
            metrics
                .push(Metric::time_lo(format!("{k}/free_p99_ns"), lat_ns(r.latencies.free.p99())));
        }
    }
    Ok(metrics)
}

/// The executor's own cost (`BENCH_exec.json`): the reported time and the
/// whole call of an empty one-warp-per-worker launch (minima over
/// `8 × trials`), warp throughput at the claim-chunk cap, and how many
/// workers a `workers`-warp launch reaches. The worker fraction is a model
/// metric, so a collapse of the small-launch spread fails even when
/// absolute timings drift.
fn exec(cfg: &MatrixCfg) -> Result<Vec<Metric>, MatrixError> {
    let device = cfg.bench().device;
    let trials = cfg.tier.axes().exec_trials;
    let workers = device.workers();
    let (mut empty, mut call) = (Duration::MAX, Duration::MAX);
    for _ in 0..trials * 8 {
        let t = Instant::now();
        empty = empty.min(device.launch(workers as u32 * WARP_SIZE, |_| {}));
        call = call.min(t.elapsed());
    }
    let tp_warps = 16_384u32;
    let mut tp = Duration::MAX;
    for _ in 0..trials.min(16) {
        tp = tp.min(device.launch(tp_warps * WARP_SIZE, |ctx| {
            std::hint::black_box(ctx.scatter_hash());
        }));
    }
    // Each warp is busy long enough that the whole pool claims before the
    // queue drains.
    let mut small_used = 0usize;
    for _ in 0..trials.min(16) {
        let (_, sched) = device.launch_warps_with_stats(workers as u32, |_| {
            std::thread::sleep(Duration::from_micros(200));
        });
        small_used = small_used.max(sched.workers_used());
    }
    Ok(vec![
        Metric::time_lo("empty_pooled_ns", lat_ns(empty.as_nanos() as u64)),
        Metric::time_lo("call_pooled_ns", lat_ns(call.as_nanos() as u64)),
        Metric::time_hi("pooled_warps_per_sec", mops(tp_warps, tp) * 1e6),
        Metric::exact("throughput_warps", f64::from(tp_warps)),
        Metric::exact("workers", workers as f64),
        Metric::model_hi("small_launch_worker_frac", small_used as f64 / workers as f64),
    ])
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
        assert_eq!(
            (s.graph_div, s.update_edges, s.latency_num, s.exec_trials),
            (256, 2000, 2048, 8)
        );

        let f = Tier::Full.axes();
        assert_eq!((f.threads, f.warps), (100_000, 10_000));
        assert_eq!(f.sizes, sizes::alloc_size_sweep(None));
        assert_eq!(f.warp_sizes, sizes::alloc_size_sweep(None));
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
        assert!(lat_ns(0) > 0.0);
    }

    #[test]
    fn exec_scenario_produces_schema_v2_anchor() {
        let cfg = MatrixCfg::new(Tier::Tiny);
        let spec = scenario("exec").unwrap();
        let a = run_scenario(&cfg, spec).unwrap();
        assert_eq!(a.schema, SCHEMA_VERSION);
        assert_eq!(a.tier, "tiny");
        let keys: Vec<&str> = a.metrics.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "empty_pooled_ns",
                "call_pooled_ns",
                "pooled_warps_per_sec",
                "throughput_warps",
                "workers",
                "small_launch_worker_frac"
            ]
        );
        assert!(a.provenance_value("seed").is_some());
        // Round-trips through the parser byte-identically.
        let again = Anchor::parse(&a.render()).unwrap();
        assert_eq!(again, a);
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

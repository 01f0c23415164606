//! One run of one workload: the cells in seed order, the panel aggregates,
//! the per-layer metrics of a traced run, and the files it leaves under
//! `--out`.

use std::path::{Path, PathBuf};

use crate::clock;
use crate::json::{obj, Json};
use crate::metrics;
use crate::probes;
use crate::runner::{CellResult, CellRunner, HeapPool, Phase, Plan};
use crate::spans::Recorder;
use crate::stats::{geomean, median, percentile, supports_percentile, LogLinear};
use crate::sut::{self, Dev, Kind, Sampler, Sink};
use crate::workloads::{
    rounds_for, shuffled, Cell, Decor, Role, Scale, Shape, Sizes, Workload, MIXED,
};

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub out: PathBuf,
    pub scale: Scale,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    pub results_file: PathBuf,
}

impl Outcome {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .render()
    }
}

/// Traced runs spend a quarter of the rounds on each of the two timed
/// phases; the per-call spans of a few dozen rounds are millions of samples.
const TRACED_SHARE: u32 = 4;
const COUNT_ROUNDS: u32 = 4;
const SETUP_REPS: u32 = 5;
/// The percentile of the `*_p90` metrics.
const P: f64 = 0.90;

fn plan(cfg: &Config) -> Plan {
    let rounds = match cfg.scale {
        Scale::Full => rounds_for(cfg.seconds),
        Scale::Tiny => 8,
    };
    // One repetition is enough to check set-up; each costs a fresh heap.
    let setup_reps = if cfg.scale == Scale::Full { SETUP_REPS } else { 1 };
    if cfg.trace {
        let share = (rounds / TRACED_SHARE).max(4);
        Plan { setup_reps, rounds: share, traced_rounds: share, count_rounds: COUNT_ROUNDS }
    } else {
        Plan { setup_reps, rounds, traced_rounds: 0, count_rounds: 0 }
    }
}

/// The kinds of the `mixed_plain` / `mixed_cached` pair probe: one per crate
/// that can free single blocks.
fn cache_pair_kinds() -> Vec<Kind> {
    let cached = Workload::by_name("mixed_cached", Scale::Full).expect("workload exists");
    Kind::one_per_crate()
        .into_iter()
        .filter(|k| cached.cells.iter().any(|c| c.kind == *k))
        .collect()
}

/// Probe cells a traced run adds after the panel.
fn probe_cells(w: &Workload, scale: Scale) -> Vec<Cell> {
    let threads = |n| Shape::threads(n, scale);
    let mut cells = Vec::new();
    for krate in w.missing_crates() {
        for kind in sut::all_kinds().into_iter().filter(|k| k.crate_name() == krate) {
            let cell = Cell::new(kind, threads(8192), Sizes::Fixed(16), Decor::Plain, scale);
            cells.push(cell.with_role(Role::CrateProbe));
        }
    }
    for kind in cache_pair_kinds() {
        if w.name != "mixed_plain" {
            let cell = Cell::new(kind, threads(2048), MIXED, Decor::Plain, scale);
            cells.push(cell.with_role(Role::CachePlain));
        }
        if w.name != "mixed_cached" {
            let cell = Cell::new(kind, threads(2048), MIXED, Decor::Cached, scale);
            cells.push(cell.with_role(Role::CacheCached));
        }
    }
    cells
}

struct CellStats {
    malloc_median: f64,
    malloc_p90: f64,
    free: Option<(f64, f64)>,
    round_median: f64,
}

fn phase_stats(p: &Phase) -> CellStats {
    CellStats {
        malloc_median: median(&p.malloc),
        malloc_p90: percentile(&p.malloc, P),
        free: (!p.free.is_empty()).then(|| (median(&p.free), percentile(&p.free, P))),
        round_median: median(&p.round),
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let run_start = clock::wall_ns();
    let workload = Workload::by_name(&cfg.workload, cfg.scale)
        .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?;
    let plan = plan(cfg);
    let dev = Dev::inline();
    let mut rec = Recorder::new(cfg.trace, run_start);
    rec.open("workload", workload.name, run_start);

    // `observed` runs under the 100 Hz sampler: the one second thread the
    // benchmark ever runs while a gated number is measured.
    let sampler = (workload.decor == Decor::Observed).then(|| Sampler::start(&Sink::default()));

    let mut cells: Vec<&Cell> =
        shuffled(workload.cells.len(), cfg.seed).into_iter().map(|i| &workload.cells[i]).collect();
    let probes = if cfg.trace { probe_cells(&workload, cfg.scale) } else { Vec::new() };
    cells.extend(probes.iter());

    let mut runners: Vec<CellRunner> = cells
        .into_iter()
        .map(|cell| {
            // The set-up of the cache pair's probe cells is reported nowhere.
            let setup_reps = match cell.role {
                Role::CachePlain | Role::CacheCached => 1,
                Role::Panel | Role::CrateProbe => plan.setup_reps,
            };
            CellRunner::new(&dev, cell, cfg.seed, Plan { setup_reps, ..plan }, sampler.as_ref())
        })
        .collect();
    let mut pool = HeapPool::default();
    for runner in &mut runners {
        runner.prepare(&mut rec, &mut pool)?;
    }
    interleave::<false>(&mut runners, &mut rec, &pool)?;
    if cfg.trace {
        interleave::<true>(&mut runners, &mut rec, &pool)?;
        for runner in &mut runners {
            runner.count(&pool)?;
        }
    }
    drop(pool);
    let results: Vec<CellResult> = runners.into_iter().map(CellRunner::finish).collect();
    let sampler_windows = sampler.map(Sampler::stop);

    let panel: Vec<&CellResult> = results.iter().filter(|c| c.role == Role::Panel).collect();
    let mut problems: Vec<String> =
        results.iter().flat_map(|c| c.violations.iter().cloned()).collect();
    let attempted: u64 = results.iter().map(|c| c.attempted).sum();
    let failed: u64 = results.iter().map(|c| c.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }

    let end_to_end = end_to_end(&panel);
    let mut layers = Vec::new();
    let mut battery_detail = Json::Null;
    if cfg.trace {
        let sizing = match cfg.scale {
            Scale::Full => probes::Sizing { n: 8192, reps: 15 },
            Scale::Tiny => probes::Sizing { n: 256, reps: 3 },
        };
        let battery = probes::battery(&dev, sizing)?;
        if battery.sanitizer_violations > 0 {
            problems.push(format!(
                "the sanitizer reported {} violations on NullAlloc",
                battery.sanitizer_violations
            ));
        }
        let oom = oom_utils(&dev)?;
        battery_detail = obj([
            (
                "oom_util",
                Json::Obj(oom.iter().map(|(k, v)| (k.label().to_string(), (*v).into())).collect()),
            ),
            ("sampler_windows", battery.sampler_windows.into()),
        ]);
        layers = per_layer(&workload, &results, &battery, &oom, sampler_windows);
    }
    rec.close(clock::wall_ns());

    let reported = if cfg.trace { &layers } else { &end_to_end };
    for m in reported {
        if !m.value.is_finite() {
            problems.push(format!("{} is not a number", m.name));
        }
    }
    let correct = problems.is_empty();

    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let stem = format!("{}-seed{}-trace{}", workload.name, cfg.seed, u8::from(cfg.trace));
    let results_file = cfg.out.join(format!("{stem}.json"));
    let doc = obj([
        ("schema", "gms-benchmark-results-v1".into()),
        ("workload", workload.name.into()),
        ("why", workload.why.into()),
        ("provenance", provenance(cfg, &plan, &dev)),
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("problems", problems.clone().into()),
        ("end_to_end", metrics_json(&end_to_end)),
        ("per_layer", metrics_json(&layers)),
        ("probes", battery_detail),
        ("detail", Json::Arr(results.iter().map(cell_json).collect())),
    ]);
    write(&results_file, &doc.render_lines())?;
    if cfg.trace {
        let spans = obj([
            ("schema", "gms-benchmark-spans-v1".into()),
            ("workload", workload.name.into()),
            ("seed", cfg.seed.into()),
            ("clock", "CLOCK_MONOTONIC, ns since the run began".into()),
            ("spans", rec.to_json()),
        ]);
        write(&cfg.out.join(format!("{stem}-spans.json")), &spans.render_lines())?;
    }

    let metrics = if cfg.trace { layers } else { end_to_end };
    Ok(Outcome { correct, attempted, failed, metrics, problems, results_file })
}

/// One epoch of every cell in turn, until no cell has rounds left in the
/// phase.
fn interleave<const TRACED: bool>(
    runners: &mut [CellRunner],
    rec: &mut Recorder,
    pool: &HeapPool,
) -> Result<(), String> {
    loop {
        let mut ran = false;
        for runner in runners.iter_mut() {
            ran |= runner.epoch::<TRACED>(rec, pool)?;
        }
        if !ran {
            return Ok(());
        }
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(name: &str, value: f64) -> Metric {
    let def = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name} is not a metric the benchmark declares"));
    Metric { name: def.name, unit: def.unit, value }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.clone(), obj([("value", m.value.into()), ("unit", m.unit.into())])))
            .collect(),
    )
}

/// The seven end-to-end metrics over the panel's untraced samples.
fn end_to_end(panel: &[&CellResult]) -> Vec<Metric> {
    let stats: Vec<CellStats> = panel.iter().map(|c| phase_stats(&c.untraced)).collect();
    let frees: Vec<(f64, f64)> = stats.iter().filter_map(|s| s.free).collect();
    let ops: f64 = panel
        .iter()
        .map(|c| f64::from(c.ops_per_launch) * if c.untraced.free.is_empty() { 1.0 } else { 2.0 })
        .sum();
    let round_ns: f64 = stats.iter().map(|s| s.round_median).sum();
    vec![
        metric("setup_s", panel.iter().map(|c| median(&c.setup_s)).sum()),
        metric("malloc_ns_op", geomean(&stats.iter().map(|s| s.malloc_median).collect::<Vec<_>>())),
        metric("free_ns_op", geomean(&frees.iter().map(|f| f.0).collect::<Vec<_>>())),
        metric(
            "malloc_ns_op_p90",
            geomean(&stats.iter().map(|s| s.malloc_p90).collect::<Vec<_>>()),
        ),
        metric("free_ns_op_p90", geomean(&frees.iter().map(|f| f.1).collect::<Vec<_>>())),
        // ops per ns × 1000 = million ops per second
        metric("panel_mops", ops / round_ns * 1e3),
        metric(
            "heap_span_ratio",
            geomean(&panel.iter().map(|c| c.heap_span_ratio()).collect::<Vec<_>>()),
        ),
    ]
}

fn oom_utils(dev: &Dev) -> Result<Vec<(Kind, f64)>, String> {
    sut::all_kinds().into_iter().map(|k| Ok((k, probes::oom_util(dev, k)?))).collect()
}

/// Mean per-lane duration of a cell's per-call spans.
fn per_lane(hist: &LogLinear, lanes: u64) -> Option<f64> {
    (lanes > 0).then(|| hist.mean() * hist.count() as f64 / lanes as f64)
}

fn per_layer(
    workload: &Workload,
    results: &[CellResult],
    battery: &probes::Battery,
    oom: &[(Kind, f64)],
    sampler_windows: Option<u64>,
) -> Vec<Metric> {
    let mut values: Vec<(String, f64)> = battery.readings.clone();
    let mut set = |name: &str, value: f64| {
        values.retain(|(n, _)| n != name);
        values.push((name.to_string(), value));
    };
    let panel: Vec<&CellResult> = results.iter().filter(|c| c.role == Role::Panel).collect();

    // The allocator crates: the panel's cells, or the 16 B probe cells where
    // the panel lacks the crate.
    for krate in sut::CRATES {
        let cells: Vec<&CellResult> = results
            .iter()
            .filter(|c| c.crate_name == krate && matches!(c.role, Role::Panel | Role::CrateProbe))
            .collect();
        let mallocs: Vec<f64> =
            cells.iter().filter_map(|c| per_lane(&c.ops.malloc, c.ops.malloc_lanes)).collect();
        let frees: Vec<f64> =
            cells.iter().filter_map(|c| per_lane(&c.ops.free, c.ops.free_lanes)).collect();
        let mut calls = LogLinear::default();
        for c in &cells {
            calls.merge(&c.ops.malloc);
            calls.merge(&c.ops.free);
        }
        let inits: Vec<f64> = cells.iter().map(|c| median(&c.init_ms)).collect();
        let (retries, mallocs_counted) = cells
            .iter()
            .fold((0, 0), |(r, m), c| (r + c.counts.retries, m + c.counts.malloc_calls));
        let utils: Vec<f64> =
            oom.iter().filter(|(k, _)| k.crate_name() == krate).map(|(_, u)| *u).collect();
        set(&format!("{krate}.malloc_ns"), geomean(&mallocs));
        // A crate whose kinds cannot free (alloc-atomic) has no free spans.
        set(&format!("{krate}.free_ns"), if frees.is_empty() { 0.0 } else { geomean(&frees) });
        set(&format!("{krate}.op_p99_ns"), calls.percentile(0.99) as f64);
        set(&format!("{krate}.init_ms"), geomean(&inits));
        set(&format!("{krate}.retries_op"), retries as f64 / mallocs_counted.max(1) as f64);
        set(&format!("{krate}.oom_util"), utils.iter().sum::<f64>() / utils.len() as f64);
    }

    // core::cache on the mixed pair: the panel's own cells where the panel
    // is one half, probe cells for the other.
    let half = |role: Role, name: &str| -> Vec<&CellResult> {
        let from = if workload.name == name { Role::Panel } else { role };
        results.iter().filter(|c| c.role == from).collect()
    };
    let (plain, cached) =
        (half(Role::CachePlain, "mixed_plain"), half(Role::CacheCached, "mixed_cached"));
    let speedups: Vec<f64> = cached
        .iter()
        .filter_map(|c| {
            let p = plain.iter().find(|p| p.kind == c.kind)?;
            Some(median(&p.untraced.round) / median(&c.untraced.round))
        })
        .collect();
    let sum = |f: fn(&CellResult) -> u64| cached.iter().map(|c| f(c)).sum::<u64>() as f64;
    let (hits, misses) = (sum(|c| c.counts.magazine_hits), sum(|c| c.counts.magazine_misses));
    set("cache.hit_ratio", hits / (hits + misses).max(1.0));
    set(
        "cache.flushes_op",
        sum(|c| c.counts.magazine_flushes) / sum(|c| c.counts.malloc_calls).max(1.0),
    );
    set("cache.speedup_geomean", geomean(&speedups));

    // core::trace / core::telemetry: the workload's own rings and sampler
    // where it has them (`observed`), the probes' otherwise.
    if workload.decor == Decor::Observed {
        set("trace.events_recorded", panel.iter().map(|c| c.trace_recorded).sum::<u64>() as f64);
        set("trace.events_dropped", panel.iter().map(|c| c.trace_dropped).sum::<u64>() as f64);
    }
    set("telemetry.windows", sampler_windows.unwrap_or(battery.sampler_windows) as f64);
    let cell_violations: u64 = results.iter().map(|c| c.sanitizer_violations).sum();
    set("sanitize.violations", (cell_violations + battery.sanitizer_violations) as f64);

    // The benchmark itself.
    let medians = |phase: fn(&CellResult) -> &Phase| {
        geomean(&panel.iter().map(|c| median(&phase(c).malloc)).collect::<Vec<_>>())
    };
    set("bench.trace_overhead_ns_op", medians(|c| &c.traced) - medians(|c| &c.untraced));
    let (cpu, wall) = panel
        .iter()
        .fold((0, 0), |(cpu, wall), c| (cpu + c.untraced.cpu_ns, wall + c.untraced.wall_ns));
    set("bench.wall_over_cpu", wall as f64 / cpu.max(1) as f64);
    set("bench.peak_rss_mb", peak_rss_mb());
    set("bench.verify_s", results.iter().map(|c| c.verify_ns).sum::<u64>() as f64 / 1e9);

    metrics::per_layer()
        .into_iter()
        .map(|def| {
            let value = values.iter().find(|(n, _)| *n == def.name).map_or(f64::NAN, |(_, v)| *v);
            Metric { name: def.name, unit: def.unit, value }
        })
        .collect()
}

/// `VmHWM` of `/proc/self/status`, in MB; NaN where there is no procfs.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn samples_json(v: &[f64]) -> Json {
    if v.is_empty() {
        return Json::Null;
    }
    obj([
        ("samples", v.len().into()),
        ("median", median(v).into()),
        ("p90", percentile(v, P).into()),
        ("p90_supported", supports_percentile(v.len(), P).into()),
        ("per_round", v.to_vec().into()),
    ])
}

fn phase_json(p: &Phase) -> Json {
    if p.malloc.is_empty() {
        return Json::Null;
    }
    obj([
        ("rounds", p.malloc.len().into()),
        ("malloc_ns_op", samples_json(&p.malloc)),
        ("free_ns_op", samples_json(&p.free)),
        ("round_ns", samples_json(&p.round)),
        ("cpu_ns", p.cpu_ns.into()),
        ("wall_ns", p.wall_ns.into()),
    ])
}

fn cell_json(c: &CellResult) -> Json {
    let spans = |hist: &LogLinear, lanes: u64| match per_lane(hist, lanes) {
        None => Json::Null,
        Some(ns) => obj([
            ("calls", hist.count().into()),
            ("lanes", lanes.into()),
            ("ns_per_lane", ns.into()),
            ("call_p50_ns", hist.percentile(0.50).into()),
            ("call_p99_ns", hist.percentile(0.99).into()),
        ]),
    };
    obj([
        ("cell", c.name.as_str().into()),
        ("kind", c.kind.into()),
        ("crate", c.crate_name.into()),
        ("role", c.role.name().into()),
        ("heap_bytes", c.heap_bytes.into()),
        ("ops_per_launch", c.ops_per_launch.into()),
        ("epochs", c.epochs.into()),
        (
            "setup_s",
            obj([("median", median(&c.setup_s).into()), ("repetitions", c.setup_s.clone().into())]),
        ),
        ("init_ms", median(&c.init_ms).into()),
        ("untraced", phase_json(&c.untraced)),
        ("traced", phase_json(&c.traced)),
        ("op_malloc", spans(&c.ops.malloc, c.ops.malloc_lanes)),
        ("op_free", spans(&c.ops.free, c.ops.free_lanes)),
        (
            "counts",
            obj([
                ("malloc_calls", c.counts.malloc_calls.into()),
                ("malloc_failures", c.counts.malloc_failures.into()),
                ("free_failures", c.counts.free_failures.into()),
                ("retries", c.counts.retries.into()),
                ("magazine_hits", c.counts.magazine_hits.into()),
                ("magazine_misses", c.counts.magazine_misses.into()),
                ("magazine_flushes", c.counts.magazine_flushes.into()),
            ]),
        ),
        ("span_end", c.span_end.into()),
        ("peak_live", c.peak_live.into()),
        ("heap_span_ratio", c.heap_span_ratio().into()),
        ("ptr_hash", format!("{:016x}", c.ptr_hash).into()),
        ("attempted", c.attempted.into()),
        ("failed", c.failed.into()),
        ("sanitizer_violations", c.sanitizer_violations.into()),
        (
            "trace_events",
            obj([("recorded", c.trace_recorded.into()), ("dropped", c.trace_dropped.into())]),
        ),
        ("verify_s", (c.verify_ns as f64 / 1e9).into()),
    ])
}

/// Where the numbers came from. Everything is resolved when the run starts,
/// in the directory it runs in: a binary built in one checkout stamps the
/// checkout it is run in.
fn provenance(cfg: &Config, plan: &Plan, dev: &Dev) -> Json {
    obj([
        ("git", git_rev().into()),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, usize::from).into(),
        ),
        ("device_workers", dev.workers().into()),
        ("seed", cfg.seed.into()),
        ("seconds", cfg.seconds.into()),
        ("trace", cfg.trace.into()),
        ("scale", if cfg.scale == Scale::Full { "full" } else { "selftest" }.into()),
        ("setup_repetitions", plan.setup_reps.into()),
        ("rounds_per_cell", plan.rounds.into()),
        ("traced_rounds_per_cell", plan.traced_rounds.into()),
        ("count_rounds_per_cell", plan.count_rounds.into()),
        ("clock", clock::GATED_CLOCK.into()),
        ("rustc", env!("GMS_RUSTC_VERSION").into()),
        ("build_profile", env!("GMS_BUILD_PROFILE").into()),
    ])
}

/// `<rev>` or `<rev>-dirty` of the checkout in the current directory;
/// `unknown` where that is not a git checkout or there is no `git`.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    match (git(&["rev-parse", "--short=12", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(rev), Some(status)) => {
            let dirty = if status.trim().is_empty() { "" } else { "-dirty" };
            format!("{}{dirty}", rev.trim())
        }
        _ => "unknown".to_string(),
    }
}

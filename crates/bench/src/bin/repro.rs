//! `repro` — regenerates the paper's figures and inspects a run.
//!
//! ```text
//! repro matrix --tier full          # every figure at the paper's axes → BENCH_<scenario>.json
//! repro matrix --smoke              # the committed (smoke-tier) anchors
//! repro matrix --scenario perf_thread --heap-backend mmap --heap-mb 8192
//!                                   # Fig 9 at the paper's full 8 GiB heap
//! repro gate                        # rerun the smoke tier, compare exact metrics
//! repro table1                      # survey table (Table 1)
//! repro trace -m scatter            # Perfetto trace + latency percentiles
//! ```
//!
//! Per-manager contention counters and sanitizer violations are anchor
//! metrics: every `perf_*`/`mixed*` cell and the `sanitize` scenario.
//!
//! Common options: `-t o+s+h+c+r+x+a` (approach selector, artifact syntax),
//! `--device titanv|2080ti`, `--out DIR`, `--heap-backend ram|mmap`
//! (default: `GMS_HEAP_BACKEND`, else `ram`), `--heap-mb MB`, `--seed HEX`.
//! `--num`, `--trace-cap` and `--cached` size `trace`; `matrix` and `gate`
//! take their counts, iterations and per-cell timeouts from the tier and
//! refuse `--cached`. The trace is the one per-run export: its Perfetto JSON
//! carries a `launch window` counter sample per launch and the events the
//! recorder dropped. `table1` and `trace` print each table they
//! save as CSV, with the same columns. A closed stdout (`repro … | head`)
//! drops the printed report; the files and the exit status stay the same.

use std::path::{Path, PathBuf};

use gpu_sim::{Device, DeviceSpec};
use gpumem_bench::anchor::Anchor;
use gpumem_bench::csv::Csv;
use gpumem_bench::gate;
use gpumem_bench::matrix::{self, MatrixCfg, Tier};
use gpumem_bench::registry::{ManagerKind, ALL_KINDS, DEFAULT_KINDS};
use gpumem_bench::runners::{self, Bench};
use gpumem_core::info::SURVEY_TABLE;
use gpumem_core::trace::DEFAULT_EVENTS_PER_SM;
use gpumem_core::{EventKind, HeapBackendKind, Pretouch};

/// `println!` that drops its line once stdout is closed instead of
/// panicking: no file a command writes depends on its report being read.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

#[derive(Clone)]
struct Opts {
    kinds: Vec<ManagerKind>,
    device: DeviceSpec,
    num: u32,
    manager: Option<String>,
    trace_cap: usize,
    /// `--heap-backend`; `GMS_HEAP_BACKEND`, else RAM, when not given.
    heap_backend: HeapBackendKind,
    /// `--heap-mb`: pins every cell's heap to this size instead of the
    /// demand-derived `heap_for` sizing.
    heap_mb: Option<u64>,
    /// `--cached`: wrap every manager in the `Cached` magazine decorator.
    cached: bool,
    out: PathBuf,
    /// `matrix`/`gate` tier: `--smoke` or `--tier tiny|smoke|full`
    /// (default: full for `matrix`, smoke for `gate`).
    tier: Option<Tier>,
    /// `--seed HEX`: the workload seed of every subcommand (default 0x5eed,
    /// the one `Bench` and `MatrixCfg` start from).
    seed: u64,
    /// `--anchors DIR`: where committed `BENCH_*.json` anchors live and
    /// where `matrix` writes them (default: the repo root, `.`).
    anchors: PathBuf,
    /// `--scenario NAME` (repeatable): restrict matrix/gate to a subset.
    scenarios: Vec<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            kinds: DEFAULT_KINDS.to_vec(),
            device: DeviceSpec::titan_v(),
            num: 10_000,
            manager: None,
            trace_cap: DEFAULT_EVENTS_PER_SM,
            heap_backend: HeapBackendKind::Ram,
            heap_mb: None,
            cached: false,
            out: PathBuf::from("results"),
            tier: None,
            seed: 0x5eed,
            anchors: PathBuf::from("."),
            scenarios: Vec::new(),
        }
    }
}

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut opts = Opts::default();
    if let Ok(s) = std::env::var("GMS_HEAP_BACKEND") {
        opts.heap_backend = s.parse().map_err(|e| format!("GMS_HEAP_BACKEND: {e}"))?;
    }
    let cmd = args.first().cloned().ok_or_else(usage)?;
    let mut i = 1;
    let next = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i - 1).cloned().ok_or_else(|| "missing option value".to_string())
    };
    while i < args.len() {
        let flag = args[i].clone();
        i += 1;
        match flag.as_str() {
            "-t" => opts.kinds = ManagerKind::parse_selector(&next(&mut i)?)?,
            "--device" => {
                let name = next(&mut i)?;
                opts.device =
                    DeviceSpec::by_name(&name).ok_or_else(|| format!("unknown device: {name}"))?;
            }
            "--num" => opts.num = next(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "-m" | "--manager" => opts.manager = Some(next(&mut i)?),
            "--trace-cap" => opts.trace_cap = next(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--heap-backend" => opts.heap_backend = next(&mut i)?.parse()?,
            "--heap-mb" => opts.heap_mb = Some(next(&mut i)?.parse().map_err(|e| format!("{e}"))?),
            "--cached" => opts.cached = true,
            "--out" => opts.out = PathBuf::from(next(&mut i)?),
            "--smoke" => opts.tier = Some(Tier::Smoke),
            "--tier" => {
                let t = next(&mut i)?;
                opts.tier =
                    Some(t.parse().map_err(|()| format!("unknown tier: {t} (tiny|smoke|full)"))?);
            }
            "--seed" => {
                let s = next(&mut i)?;
                let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse(),
                };
                opts.seed = parsed.map_err(|e| format!("bad seed {s:?}: {e}"))?;
            }
            "--anchors" => opts.anchors = PathBuf::from(next(&mut i)?),
            "--scenario" => opts.scenarios.push(next(&mut i)?),
            other => return Err(format!("unknown option: {other}\n{}", usage())),
        }
    }
    // `matrix` and `gate` run the cached twins as scenarios, so anchors of
    // one tier always compare; a flag that cannot take effect is an error,
    // not a no-op.
    if opts.cached && matches!(cmd.as_str(), "matrix" | "gate") {
        return Err(format!(
            "--cached does not apply to `{cmd}`: the cached twins \
             (--scenario perf_thread_cached / mixed_cached) are fixed by the tier"
        ));
    }
    Ok((cmd, opts))
}

fn usage() -> String {
    "usage: repro <matrix|gate|trace|table1> [options]\n\
     (`repro matrix` runs the paper's figures as scenarios and writes one\n\
      BENCH_<scenario>.json anchor each, `repro gate` reruns them and fails\n\
      on any change to an exact metric, `repro trace` writes one run's\n\
      Perfetto trace and latency CSV into --out)\n\
     options: -t SELECTOR -m MANAGER --device D --out DIR\n\
     --heap-backend ram|mmap --heap-mb MB --seed HEX\n\
     trace: --num N --cached --trace-cap EVENTS_PER_SM\n\
     matrix/gate: --smoke | --tier tiny|smoke|full, --anchors DIR,\n\
     --scenario NAME (repeatable); -t / -m restrict the managers; matrix\n\
     defaults to the full tier, gate to the smoke tier"
        .to_string()
}

fn bench_of(opts: &Opts) -> Bench {
    let mut b = Bench::new(Device::new(opts.device));
    b.seed = opts.seed;
    b.heap_backend = opts.heap_backend;
    b.heap_override = opts.heap_mb.map(|mb| mb << 20);
    b.cached = opts.cached;
    b
}

/// Unwraps `r`, or prints its error and exits with `code`: 2 for a usage or
/// configuration error, 1 for a run that failed.
fn or_exit<T>(r: Result<T, impl std::fmt::Display>, code: i32) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(code)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = or_exit(parse_args(&args), 2);
    // Every report names its worker config so CSV rows stay attributable
    // (the pool size changes contention, and GMS_WORKERS overrides it).
    outln!(
        "# device={} sms={} workers={}{}",
        opts.device.name,
        opts.device.num_sms,
        Device::configured_workers(),
        if std::env::var("GMS_WORKERS").is_ok() { " (GMS_WORKERS)" } else { "" }
    );
    match cmd.as_str() {
        "matrix" => matrix_cmd(&opts),
        "gate" => gate_cmd(&opts),
        "trace" => trace(&opts),
        "table1" => table1(&opts),
        other => {
            eprintln!("unknown command: {other}\n{}", usage());
            std::process::exit(2);
        }
    }
}

fn table1(opts: &Opts) {
    let mut csv = Csv::new([
        "ref",
        "name",
        "year",
        "availability",
        "build",
        "variants",
        "needs_cuda_alloc",
        "general_purpose",
        "results",
        "stable",
        "evaluated_here",
    ]);
    for r in SURVEY_TABLE {
        csv.row([
            r.reference.to_string(),
            r.short_name.to_string(),
            r.year.to_string(),
            r.availability.to_string(),
            r.build.to_string(),
            r.variants.to_string(),
            r.depends_on_cuda_alloc.to_string(),
            r.general_purpose.to_string(),
            r.results_available.to_string(),
            r.stable.to_string(),
            r.evaluated_here.to_string(),
        ]);
    }
    save(csv, opts, "table1.csv");
}

/// Matrix/gate configuration from the command line: tier, seed,
/// device, heap (backend, `--heap-mb`) and the `-t`/`-m` manager
/// restriction. Iteration counts, timeouts and worker counts stay
/// tier-pinned so anchors of the same tier are always comparable.
fn matrix_cfg(opts: &Opts, default_tier: Tier) -> MatrixCfg {
    let mut cfg = MatrixCfg::new(opts.tier.unwrap_or(default_tier));
    cfg.device = opts.device;
    cfg.seed = opts.seed;
    cfg.heap_backend = opts.heap_backend;
    cfg.heap_override = opts.heap_mb.map(|mb| mb << 20);
    cfg.kinds = selected_kinds(opts);
    cfg
}

/// The scenario subset selected with `--scenario` (all when none given).
fn selected_scenarios(opts: &Opts) -> Vec<&'static matrix::ScenarioSpec> {
    if opts.scenarios.is_empty() {
        return matrix::SCENARIOS.iter().collect();
    }
    opts.scenarios
        .iter()
        .map(|name| {
            or_exit(
                matrix::scenario(name)
                    .ok_or_else(|| matrix::MatrixError::UnknownScenario(name.clone())),
                2,
            )
        })
        .collect()
}

/// `repro matrix` — run the scenario registry at the selected tier and
/// write one `BENCH_<scenario>.json` anchor per scenario.
fn matrix_cmd(opts: &Opts) {
    let cfg = matrix_cfg(opts, Tier::Full);
    let specs = selected_scenarios(opts);
    outln!(
        "# matrix tier={} seed={:#x} backend={} anchors={}",
        cfg.tier.as_str(),
        cfg.seed,
        cfg.heap_backend,
        opts.anchors.display()
    );
    for spec in specs {
        let started = std::time::Instant::now();
        let run =
            matrix::run_scenario(&cfg, spec).map_err(|e| format!("matrix {}: {e}", spec.name));
        let anchor = or_exit(run, 1);
        let secs = started.elapsed().as_secs_f64();
        let path = Anchor::path_for(&opts.anchors, spec.name);
        write_or_exit(&path, &anchor.render());
        outln!(
            "{:<14} {secs:>6.1}s  wrote {} ({} metrics, tier {})",
            spec.name,
            path.display(),
            anchor.metrics.len(),
            anchor.tier
        );
    }
}

/// The manager restriction `matrix`/`gate` apply to their scenarios:
/// `-m NAME` pins one manager, an explicit `-t` selector pins a set, and
/// neither runs each scenario's natural set.
fn selected_kinds(opts: &Opts) -> Option<Vec<ManagerKind>> {
    if let Some(name) = &opts.manager {
        return Some(vec![or_exit(resolve_manager(name), 2)]);
    }
    (opts.kinds != DEFAULT_KINDS).then(|| opts.kinds.clone())
}

/// `repro gate` — rerun the selected scenarios (at the smoke tier unless
/// told otherwise: the only tier with committed anchors) and compare each
/// against its committed anchor: every `exact` metric must be equal, `info`
/// metrics are not compared.
fn gate_cmd(opts: &Opts) {
    let cfg = matrix_cfg(opts, Tier::Smoke);
    let mut failures = 0usize;
    let mut exact = 0usize;
    for spec in selected_scenarios(opts) {
        let path = Anchor::path_for(&opts.anchors, spec.name);
        let report = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Anchor::parse(&text).map_err(|e| e.to_string()))
            .map_err(|e| format!("anchor {}: {e}", path.display()))
            .and_then(|anchor| {
                let current =
                    matrix::run_scenario(&cfg, spec).map_err(|e| format!("rerun: {e}"))?;
                Ok(gate::compare(&anchor, &current))
            });
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                outln!("FAIL {}: {e}", spec.name);
                failures += 1;
                continue;
            }
        };
        for f in &report.findings {
            outln!("  {}: {f}", spec.name);
        }
        let n_fail = report.failures().count();
        failures += n_fail;
        exact += report.exact;
        outln!(
            "{} {} ({} exact, {} info)",
            if n_fail == 0 { "pass" } else { "FAIL" },
            spec.name,
            report.exact,
            report.info
        );
    }
    if failures > 0 {
        eprintln!("gate: {failures} failure(s)");
        std::process::exit(1);
    }
    outln!("gate: all scenarios pass ({exact} exact metrics equal)");
}

/// Lowercases and strips non-alphanumerics so `"Ouro-S-P"`, `"ouro s p"`,
/// and `"OuroSP"` all compare (and name files) identically.
fn sanitize_token(name: &str) -> String {
    name.chars().filter(|c| c.is_ascii_alphanumeric()).collect::<String>().to_ascii_lowercase()
}

/// Resolves a user-supplied manager name against the registry labels by
/// normalized prefix match (`scatter` → ScatterAlloc, `halloc` → Halloc).
/// Exact matches win over prefix matches; ambiguity is an error listing
/// the candidates.
fn resolve_manager(name: &str) -> Result<ManagerKind, String> {
    let want = sanitize_token(name);
    if want.is_empty() {
        return Err(format!("empty manager name: {name:?}"));
    }
    if let Some(&k) = ALL_KINDS.iter().find(|k| sanitize_token(k.label()) == want) {
        return Ok(k);
    }
    let matches: Vec<ManagerKind> = ALL_KINDS
        .iter()
        .copied()
        .filter(|k| sanitize_token(k.label()).starts_with(&want))
        .collect();
    let labels = |ks: &[ManagerKind]| ks.iter().map(|k| k.label()).collect::<Vec<_>>().join(", ");
    match matches.as_slice() {
        [k] => Ok(*k),
        [] => Err(format!("unknown manager: {name} (available: {})", labels(&ALL_KINDS))),
        many => Err(format!("ambiguous manager {name}: matches {}", labels(many))),
    }
}

/// Event-tracing run (`repro trace -m scatter`): executes the mixed-size
/// alloc/free workload on one manager with the per-SM ring-buffer recorder
/// attached, then writes the Chrome trace-event JSON (load it in
/// <https://ui.perfetto.dev>) plus a latency-percentile CSV derived from
/// the same event stream.
fn trace(opts: &Opts) {
    let bench = bench_of(opts);
    let (kind, token) = match &opts.manager {
        Some(name) => (or_exit(resolve_manager(name), 2), sanitize_token(name)),
        None => (ManagerKind::ScatterAlloc, sanitize_token(ManagerKind::ScatterAlloc.label())),
    };
    let r = runners::trace_profile(&bench, kind, opts.num, opts.trace_cap);
    let valid = gpumem_core::validate_chrome_json(&r.json)
        .map_err(|e| format!("exported trace failed Chrome-JSON validation: {e}"));
    or_exit(valid, 1);
    let json_path = opts.out.join(format!("trace_{token}.json"));
    write_or_exit(&json_path, &r.json);
    outln!("wrote {} ({} bytes)", json_path.display(), r.json.len());
    let mut csv = Csv::new([
        "manager", "op", "events", "dropped", "p50_ns", "p95_ns", "p99_ns", "max_ns", "mean_ns",
    ]);
    // `events` counts every operation; the percentiles come from the one
    // in `trace::TIMED_ONE_IN` per worker thread that was timed.
    let ops = [
        ("malloc", EventKind::MallocEnd, &r.latencies.malloc),
        ("free", EventKind::FreeEnd, &r.latencies.free),
    ];
    for (op, kind, h) in ops {
        csv.row([
            r.manager.to_string(),
            op.to_string(),
            r.trace.count(kind).to_string(),
            r.trace.dropped.to_string(),
            h.p50().to_string(),
            h.p95().to_string(),
            h.p99().to_string(),
            h.max_ns().to_string(),
            h.mean_ns().to_string(),
        ]);
    }
    save(csv, opts, &format!("trace_latency_{}_{}.csv", opts.num, opts.device.name));
    let occ = &r.occupancy;
    if r.trace.dropped > 0 {
        eprintln!(
            "warning: {} events dropped at ring capacity {} (drop-newest) — \
             latency percentiles and the occupancy timeline are truncated; \
             raise --trace-cap",
            r.trace.dropped, opts.trace_cap
        );
    }
    outln!(
        "{} events recorded ({} dropped), span {:.3} ms; occupancy: {} samples, peak {} B in {} allocs, address range {} B",
        r.trace.len(),
        r.trace.dropped,
        r.trace.span_ns() as f64 / 1e6,
        occ.samples.len(),
        occ.peak_live_bytes,
        occ.peak_live_allocs,
        occ.address_range.range()
    );
}

/// One-line provenance stamp attached to every CSV `repro` writes: enough
/// to reproduce the run (git revision, worker configuration, seed) and to
/// detect schema drift. Rendered as a `# ...` comment line above the
/// header; `scripts/summarize_results.py` skips it.
fn provenance(opts: &Opts) -> String {
    let git = gpumem_bench::git_rev();
    let backend = opts.heap_backend;
    format!(
        "git={git} device={} workers={} gms_workers={} heap_backend={backend} pretouch={} \
         heap_mb={} seed={:#x} schema=1",
        opts.device.name,
        Device::configured_workers(),
        std::env::var("GMS_WORKERS").unwrap_or_else(|_| "-".to_string()),
        Pretouch::Auto.resolve(backend),
        opts.heap_mb.map(|mb| mb.to_string()).unwrap_or_else(|| "-".to_string()),
        opts.seed,
    )
}

/// Stamps `csv` with [`provenance`] and writes it to `--out/name`, then
/// prints it as an aligned table — one column list for both.
fn save(mut csv: Csv, opts: &Opts, name: &str) {
    csv.comment(provenance(opts));
    let path = opts.out.join(name);
    write_or_exit(&path, &csv.to_string_csv());
    outln!("{}wrote {} ({} rows)", csv.to_string_text(), path.display(), csv.len());
}

/// Writes one result file, creating its directory, and exits 1 on failure:
/// a result that silently failed to land would let a gated CI run pass
/// vacuously.
fn write_or_exit(path: &Path, body: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, body));
    or_exit(written.map_err(|e| format!("failed to write {}: {e}", path.display())), 1);
}

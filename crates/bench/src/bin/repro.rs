//! `repro` — regenerates the paper's figures and inspects a run.
//!
//! ```text
//! repro matrix --tier full          # every figure at the paper's axes → BENCH_<scenario>.json
//! repro matrix --smoke              # the committed (smoke-tier) anchors
//! repro matrix --scenario perf_thread --heap-backend mmap --heap-mb 8192
//!                                   # Fig 9 at the paper's full 8 GiB heap
//! repro gate --smoke                # rerun and compare against the anchors
//! repro watch --scenario mixed      # one scenario under the live telemetry sampler
//! repro table1                      # survey table (Table 1)
//! repro contention                  # per-manager contention counters
//! repro sanitize                    # shadow-heap sanitizer sweep
//! repro trace -m scatter            # Perfetto trace + latency percentiles
//! repro audit                       # memlint summary
//! ```
//!
//! Common options: `-t o+s+h+c+r+x+a` (approach selector, artifact syntax,
//! optional `@mmap` backend suffix), `--device titanv|2080ti`, `--out DIR`,
//! `--heap-backend ram|mmap`, `--pretouch auto|full|lazy`,
//! `--heap-mb MB`, `--seed HEX`. `--num`, `--iter`, `--cycles` and
//! `--cached` size the diagnostic subcommands; `matrix`, `gate` and `watch`
//! take their counts, iterations and per-cell timeouts from the tier and
//! refuse them. `--telemetry-hz`, `--telemetry-listen` and `--slo` belong to
//! `watch` alone. The diagnostic subcommands print each table they save as
//! CSV, with the same columns.

use std::path::{Path, PathBuf};

use gpu_sim::{Device, DeviceSpec};
use gpumem_bench::anchor::Anchor;
use gpumem_bench::csv::{ms, us, Csv};
use gpumem_bench::gate::{self, Gates};
use gpumem_bench::matrix::{self, MatrixCfg, Tier};
use gpumem_bench::registry::{ManagerKind, ManagerSelection, ALL_KINDS, DEFAULT_KINDS};
use gpumem_bench::runners::{self, Bench};
use gpumem_bench::watch;
use gpumem_core::info::SURVEY_TABLE;
use gpumem_core::telemetry::TelemetryConfig;
use gpumem_core::trace::DEFAULT_EVENTS_PER_SM;
use gpumem_core::{HeapBackendKind, Pretouch, SloSpec};

#[derive(Clone)]
struct Opts {
    kinds: Vec<ManagerKind>,
    device: DeviceSpec,
    num: u32,
    iterations: u32,
    cycles: u32,
    manager: Option<String>,
    trace_cap: usize,
    /// `None` until `--heap-backend` (or a `-t …@backend` suffix) picks one;
    /// resolved against `GMS_HEAP_BACKEND` / the RAM default at use.
    heap_backend: Option<HeapBackendKind>,
    pretouch: Pretouch,
    /// `--heap-mb`: pins every cell's heap to this size instead of the
    /// demand-derived `heap_for` sizing.
    heap_mb: Option<u64>,
    /// `--cached` (or a `-t …+cached` suffix): wrap every manager in the
    /// `Cached` magazine decorator.
    cached: bool,
    out: PathBuf,
    /// `matrix`/`gate` tier: `--smoke` or `--tier tiny|smoke|full`
    /// (default full — the main-branch sizing).
    tier: Option<Tier>,
    /// `--seed HEX`: the workload seed of every subcommand (default 0x5eed,
    /// the one `Bench` and `MatrixCfg` start from).
    seed: u64,
    /// `--anchors DIR`: where committed `BENCH_*.json` anchors live and
    /// where `matrix` writes them (default: the repo root, `.`).
    anchors: PathBuf,
    /// `--gates FILE`: tolerance config for `gate`.
    gates: PathBuf,
    /// `--candidate DIR`: gate compares anchors in this directory instead
    /// of rerunning scenarios (how check.sh avoids a double matrix run).
    candidate: Option<PathBuf>,
    /// `--scenario NAME` (repeatable): restrict matrix/gate to a subset.
    scenarios: Vec<String>,
    /// `--telemetry-hz N`: sampler cadence (overrides `GMS_TELEMETRY_HZ`;
    /// default 100 Hz, i.e. 10 ms windows).
    telemetry_hz: Option<f64>,
    /// `--telemetry-listen ADDR`: serve the live OpenMetrics exposition on
    /// this TCP address for the duration of the run.
    telemetry_listen: Option<String>,
    /// `--slo SPEC` (repeatable): rolling-window objectives evaluated by
    /// the sampler, e.g. `malloc_p99_ns<50000@500ms`.
    slos: Vec<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            kinds: DEFAULT_KINDS.to_vec(),
            device: DeviceSpec::titan_v(),
            num: 10_000,
            iterations: 2,
            cycles: 10,
            manager: None,
            trace_cap: DEFAULT_EVENTS_PER_SM,
            heap_backend: None,
            pretouch: Pretouch::Auto,
            heap_mb: None,
            cached: false,
            out: PathBuf::from("results"),
            tier: None,
            seed: 0x5eed,
            anchors: PathBuf::from("."),
            gates: PathBuf::from("gates.toml"),
            candidate: None,
            scenarios: Vec::new(),
            telemetry_hz: None,
            telemetry_listen: None,
            slos: Vec::new(),
        }
    }
}

impl Opts {
    /// The backend every runner uses: explicit flag/selector suffix first,
    /// then the `GMS_HEAP_BACKEND` environment default (normally RAM).
    fn backend(&self) -> HeapBackendKind {
        self.heap_backend.unwrap_or_else(HeapBackendKind::env_default)
    }
}

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut opts = Opts::default();
    let cmd = args.first().cloned().ok_or_else(usage)?;
    let mut i = 1;
    let next = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i - 1).cloned().ok_or_else(|| "missing option value".to_string())
    };
    // `matrix`, `gate` and `watch` pin iterations to the tier and run the
    // cached twins as scenarios, so anchors of one tier always compare; a
    // flag that cannot take effect is an error, not a no-op.
    let tier_pinned = matches!(cmd.as_str(), "matrix" | "gate" | "watch");
    let pinned_error = |flag: &str| {
        format!(
            "{flag} does not apply to `{cmd}`: iterations and the cached twins \
             (--scenario perf_thread_cached / mixed_cached) are fixed by the tier"
        )
    };
    while i < args.len() {
        let flag = args[i].clone();
        i += 1;
        match flag.as_str() {
            "--iter" if tier_pinned => return Err(pinned_error(&flag)),
            "--telemetry-hz" | "--telemetry-listen" | "--slo" if cmd != "watch" => {
                return Err(format!(
                    "{flag} does not apply to `{cmd}`: only `watch` runs the live sampler"
                ))
            }
            "-t" => {
                let raw = next(&mut i)?;
                let sel: ManagerSelection = raw.parse()?;
                opts.kinds = sel.kinds;
                // `o+s@mmap` picks a backend inline; a plain selector leaves
                // any `--heap-backend` choice untouched.
                if raw.contains('@') {
                    opts.heap_backend = Some(sel.backend);
                }
                if sel.cached {
                    opts.cached = true;
                }
            }
            "--device" => {
                let name = next(&mut i)?;
                opts.device =
                    DeviceSpec::by_name(&name).ok_or_else(|| format!("unknown device: {name}"))?;
            }
            "--num" => opts.num = next(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--iter" => opts.iterations = next(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--cycles" => opts.cycles = next(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "-m" | "--manager" => opts.manager = Some(next(&mut i)?),
            "--trace-cap" => opts.trace_cap = next(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--heap-backend" => opts.heap_backend = Some(next(&mut i)?.parse()?),
            "--pretouch" => opts.pretouch = next(&mut i)?.parse()?,
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
            "--gates" => opts.gates = PathBuf::from(next(&mut i)?),
            "--candidate" => opts.candidate = Some(PathBuf::from(next(&mut i)?)),
            "--scenario" => opts.scenarios.push(next(&mut i)?),
            "--telemetry-hz" => {
                let hz = next(&mut i)?;
                opts.telemetry_hz = Some(hz.parse().map_err(|e| format!("bad hz {hz:?}: {e}"))?);
            }
            "--telemetry-listen" => opts.telemetry_listen = Some(next(&mut i)?),
            "--slo" => opts.slos.push(next(&mut i)?),
            other => return Err(format!("unknown option: {other}\n{}", usage())),
        }
    }
    // After the loop: a `-t …+cached` selector sets it as well as `--cached`.
    if tier_pinned && opts.cached {
        return Err(pinned_error("--cached"));
    }
    Ok((cmd, opts))
}

fn usage() -> String {
    "usage: repro <matrix|gate|watch|trace|sanitize|audit|table1|contention> [options]\n\
     (`repro matrix` runs the paper's figures as scenarios and writes one\n\
      BENCH_<scenario>.json anchor each, `repro gate` reruns and compares them\n\
      against gates.toml tolerances, `repro watch --scenario NAME` runs one\n\
      scenario under the live telemetry sampler and writes\n\
      telemetry_<scenario>.{json,csv,prom} into --out)\n\
     options: -t SELECTOR[@ram|mmap][+cached] -m MANAGER --device D --out DIR\n\
     --heap-backend ram|mmap --pretouch auto|full|lazy --heap-mb MB --seed HEX\n\
     trace/sanitize/contention: --num N --iter N --cycles N --cached\n\
     --trace-cap EVENTS_PER_SM\n\
     matrix/gate/watch: --smoke | --tier tiny|smoke|full, --anchors DIR,\n\
     --gates FILE, --candidate DIR, --scenario NAME (repeatable); -t / -m restrict\n\
     the managers; watch defaults to the smoke tier\n\
     watch only: --telemetry-hz N, --telemetry-listen ADDR,\n\
     --slo METRIC<THRESH@WINDOW (repeatable, e.g. --slo 'malloc_p99_ns<50000@500ms')"
        .to_string()
}

fn bench_of(opts: &Opts) -> Bench {
    let mut b = Bench::new(Device::new(opts.device));
    b.iterations = opts.iterations;
    b.seed = opts.seed;
    b.heap_backend = opts.backend();
    b.pretouch = opts.pretouch;
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
    println!(
        "# device={} sms={} workers={}{}",
        opts.device.name,
        opts.device.num_sms,
        Device::configured_workers(),
        if std::env::var("GMS_WORKERS").is_ok() { " (GMS_WORKERS)" } else { "" }
    );
    match cmd.as_str() {
        "matrix" => matrix_cmd(&opts),
        "gate" => gate_cmd(&opts),
        "watch" => watch_cmd(&opts),
        "trace" => trace(&opts),
        "sanitize" => sanitize(&opts),
        "audit" => audit(&opts),
        "table1" => table1(&opts),
        "contention" => contention(&opts),
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

/// Contention report: per-manager counter activity of a `--num`-thread
/// alloc/free run (default 10 000 threads, 16 B), with the metrics-off
/// wall-clock alongside so the observability overhead is visible.
fn contention(opts: &Opts) {
    let bench = bench_of(opts);
    let size = 16u64;
    let workers = bench.device.workers();
    let mut csv = Csv::new([
        "manager",
        "threads",
        "size",
        "workers",
        "observed_ms",
        "baseline_ms",
        "overhead",
        "dispatch_us",
        "workers_used",
        "steals",
        "malloc_calls",
        "malloc_failures",
        "free_calls",
        "free_failures",
        "cas_retries",
        "probe_steps",
        "queue_spins",
        "list_hops",
        "oom_fallbacks",
        "warp_coalesced",
        "dropped_events",
    ]);
    for &kind in &opts.kinds {
        let c = runners::contention_profile(&bench, kind, opts.num, size);
        let s = &c.counters;
        csv.row([
            c.manager.to_string(),
            c.num.to_string(),
            c.size.to_string(),
            workers.to_string(),
            ms(c.observed),
            ms(c.baseline),
            format!("{:.3}", c.overhead_factor()),
            us(c.dispatch),
            c.workers_used.to_string(),
            c.steals.to_string(),
            s.malloc_calls().to_string(),
            s.malloc_failures().to_string(),
            s.free_calls().to_string(),
            s.free_failures().to_string(),
            s.cas_retries().to_string(),
            s.probe_steps().to_string(),
            s.queue_spins().to_string(),
            s.list_hops().to_string(),
            s.oom_fallbacks().to_string(),
            s.warp_coalesced().to_string(),
            c.dropped_events.to_string(),
        ]);
    }
    save(csv, opts, &format!("contention_{}_{}.csv", opts.num, opts.device.name));
}

/// Matrix/gate/watch configuration from the command line: tier, seed,
/// device, heap (backend, pre-touch, `--heap-mb`) and the `-t`/`-m` manager
/// restriction. Iteration counts and timeouts stay tier-pinned so anchors
/// of the same tier are always comparable.
fn matrix_cfg(opts: &Opts, default_tier: Tier) -> MatrixCfg {
    let mut cfg = MatrixCfg::new(opts.tier.unwrap_or(default_tier));
    cfg.device = opts.device;
    cfg.seed = opts.seed;
    cfg.heap_backend = opts.backend();
    cfg.pretouch = opts.pretouch;
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
    println!(
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
        println!(
            "{:<14} {secs:>6.1}s  wrote {} ({} metrics, tier {})",
            spec.name,
            path.display(),
            anchor.metrics.len(),
            anchor.tier
        );
    }
}

/// Builds the sampler config from the command line: cadence from
/// `--telemetry-hz` (falling back to `GMS_TELEMETRY_HZ`, then the 10 ms
/// default) and rolling-window objectives from repeated `--slo` flags.
fn telemetry_config(opts: &Opts) -> TelemetryConfig {
    let mut cfg = TelemetryConfig::from_env();
    if let Some(hz) = opts.telemetry_hz {
        cfg = cfg.hz(hz);
    }
    for raw in &opts.slos {
        let spec = raw.parse::<SloSpec>().map_err(|e| format!("bad --slo {raw:?}: {e}"));
        cfg = cfg.slo(or_exit(spec, 2));
    }
    cfg
}

/// The manager restriction `matrix`/`gate`/`watch` apply to their scenarios:
/// `-m NAME` pins one manager, an explicit `-t` selector pins a set, and
/// neither runs each scenario's natural set.
fn selected_kinds(opts: &Opts) -> Option<Vec<ManagerKind>> {
    if let Some(name) = &opts.manager {
        return Some(vec![or_exit(resolve_manager(name), 2)]);
    }
    (opts.kinds != DEFAULT_KINDS).then(|| opts.kinds.clone())
}

/// `repro watch` — run one matrix scenario under the live telemetry
/// sampler and export the sampled time-series (JSON, per-window CSV,
/// OpenMetrics). Defaults to the smoke tier: watch is an interactive
/// diagnosis tool, not the anchor producer.
fn watch_cmd(opts: &Opts) {
    let scenario = match opts.scenarios.as_slice() {
        [one] => one.clone(),
        [] => {
            eprintln!("watch requires --scenario NAME\n{}", usage());
            std::process::exit(2);
        }
        _ => {
            eprintln!("watch takes exactly one --scenario");
            std::process::exit(2);
        }
    };
    let outcome = watch::watch(
        matrix_cfg(opts, Tier::Smoke),
        &scenario,
        telemetry_config(opts),
        opts.telemetry_listen.as_deref(),
        &opts.out,
    );
    let outcome = or_exit(outcome.map_err(|e| format!("watch: {e}")), 1);
    if outcome.anchor.metrics.is_empty() {
        eprintln!("warning: manager restriction excluded every kind this scenario runs");
    }
    let s = &outcome.series;
    let boundaries = s.samples.iter().filter(|x| x.boundary).count();
    println!(
        "watched {scenario}: {} samples ({} kernel-boundary cuts, {} evicted), \
         {} launches, {} mallocs / {} frees, {} trace events dropped",
        s.samples.len(),
        boundaries,
        s.evicted,
        s.launches,
        s.totals.malloc_calls(),
        s.totals.free_calls(),
        s.dropped_events,
    );
    print!("{}", s.slo_table());
    for p in [&outcome.json_path, &outcome.csv_path, &outcome.om_path] {
        println!("wrote {}", p.display());
    }
    // Breached objectives make the run's exit status actionable in CI.
    if s.slo.iter().any(|r| !r.breaches.is_empty()) {
        std::process::exit(3);
    }
}

/// `repro gate` — load committed anchors, rerun the same scenarios (or read
/// a `--candidate` directory), and fail on drift beyond `gates.toml`.
fn gate_cmd(opts: &Opts) {
    let gates = std::fs::read_to_string(&opts.gates)
        .map_err(|e| format!("cannot read {}: {e}", opts.gates.display()))
        .and_then(|text| Gates::parse(&text).map_err(|e| e.to_string()));
    let gates = or_exit(gates, 2);
    let cfg = matrix_cfg(opts, Tier::Full);
    // `what` names which side failed to load: the anchor or the candidate.
    let load = |what: &str, path: PathBuf| -> Result<Anchor, String> {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
        text.and_then(|t| Anchor::parse(&t).map_err(|e| e.to_string()))
            .map_err(|e| format!("{what} {}: {e}", path.display()))
    };
    let mut failures = 0usize;
    let mut compared = 0usize;
    for spec in selected_scenarios(opts) {
        let pair = load("anchor", Anchor::path_for(&opts.anchors, spec.name)).and_then(|anchor| {
            let current = match &opts.candidate {
                Some(dir) => load("candidate", Anchor::path_for(dir, spec.name))?,
                None => matrix::run_scenario(&cfg, spec).map_err(|e| format!("rerun: {e}"))?,
            };
            Ok((anchor, current))
        });
        let (anchor, current) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                println!("FAIL {}: {e}", spec.name);
                failures += 1;
                continue;
            }
        };
        let tol = gates.tolerances(spec.name);
        let report = gate::compare_with_gates(&anchor, &current, &gates);
        compared += report.compared;
        for f in &report.findings {
            println!("  {}: {f}", spec.name);
        }
        let n_fail = report.failures().count();
        failures += n_fail;
        println!(
            "{} {} ({} metrics, base time ±{}%, model ±{}%; per-family overrides apply)",
            if n_fail == 0 { "pass" } else { "FAIL" },
            spec.name,
            report.compared,
            tol.time_pct,
            tol.model_pct
        );
    }
    if failures > 0 {
        eprintln!("gate: {failures} failure(s) across {compared} compared metrics");
        std::process::exit(1);
    }
    println!("gate: all scenarios pass ({compared} metrics compared)");
}

/// Concurrency-audit summary: runs the memlint atomics-ordering pass over
/// the workspace in-process and prints a per-crate table of standing vs.
/// allowlisted diagnostics (one row per crate and rule), plus every
/// allowlist entry with its written reason. Exits non-zero if anything
/// stands, so `repro audit` doubles as the CI gate the same way
/// `cargo run -p memlint -- --deny` does.
fn audit(opts: &Opts) {
    // Prefer the checkout we are running in; fall back to the build-time
    // workspace for out-of-tree invocations.
    let root = if Path::new("crates").is_dir() {
        PathBuf::from(".")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    };
    let report = memlint::scan_workspace(&root)
        .map_err(|e| format!("audit: cannot scan {}: {e}", root.display()));
    let report = or_exit(report, 2);

    // Per-pass rollup first: the one-screen answer to "is the audit clean",
    // one row per analysis pass of the framework.
    let mut passes = Csv::new(["pass", "standing", "allowlisted"]);
    for pass in memlint::Pass::ALL {
        let (s, a) = report.pass_counts(pass);
        passes.row([pass.name().to_string(), s.to_string(), a.to_string()]);
    }
    println!("{}", passes.to_string_text());

    // Then the detail, one row per (crate, rule) in that order.
    let crate_of = |d: &memlint::Diagnostic| -> String {
        let s = d.file.to_string_lossy().replace('\\', "/");
        match s.strip_prefix("crates/").and_then(|r| r.split('/').next()) {
            Some(name) => name.to_string(),
            None => "workspace-root".to_string(),
        }
    };
    let mut rows = std::collections::BTreeMap::new();
    for d in &report.diagnostics {
        let row = rows.entry((crate_of(d), d.rule.name())).or_insert((d.rule.pass(), 0u32, 0u32));
        if d.allowed.is_some() {
            row.2 += 1;
        } else {
            row.1 += 1;
        }
    }
    let mut csv = Csv::new(["crate", "pass", "rule", "standing", "allowlisted"]);
    for ((krate, rule), (pass, standing, allowed)) in &rows {
        csv.row([
            krate.clone(),
            pass.name().to_string(),
            rule.to_string(),
            standing.to_string(),
            allowed.to_string(),
        ]);
    }
    if rows.is_empty() {
        println!("(no diagnostics at all — {} files scanned)", report.files);
    }
    save(csv, opts, "audit.csv");
    println!();
    for d in report.allowlisted() {
        println!(
            "allow {}:{} [{}] — {}",
            d.file.display(),
            d.line,
            d.rule,
            d.allowed.as_deref().unwrap_or("")
        );
    }
    let standing = report.denied().count();
    for d in report.denied() {
        println!("STANDING {d}");
    }
    println!(
        "\naudit: {} files, {} standing, {} allowlisted",
        report.files,
        standing,
        report.allowlisted().count()
    );
    if standing > 0 {
        std::process::exit(2);
    }
}

/// Sanitizer sweep: every selected manager runs the churn + mixed-size
/// workloads under `Sanitized` (shadow interval map, occupancy bitmap,
/// canary redzones, poison-on-free) and reports a per-manager violation
/// table. A stable manager shows an all-zero row; non-zero cells are the
/// paper's "not entirely stable" classification made concrete.
fn sanitize(opts: &Opts) {
    let bench = bench_of(opts);
    let mut csv = Csv::new([
        "manager",
        "threads",
        "cycles",
        "alloc_failures",
        "overlap",
        "out_of_heap",
        "misaligned",
        "double_free",
        "unknown_free",
        "redzone_corrupt",
        "total",
        "live_after",
        "clean",
    ]);
    let mut dirty = 0u32;
    for &kind in &opts.kinds {
        let c = runners::sanitize_run(&bench, kind, opts.num, opts.cycles.max(8));
        let [overlap, out_of_heap, misaligned, double_free, unknown_free, redzone] = c.counts;
        if !c.is_clean() {
            dirty += 1;
        }
        csv.row([
            c.manager.to_string(),
            c.num.to_string(),
            c.cycles.to_string(),
            c.failures.to_string(),
            overlap.to_string(),
            out_of_heap.to_string(),
            misaligned.to_string(),
            double_free.to_string(),
            unknown_free.to_string(),
            redzone.to_string(),
            c.total_violations().to_string(),
            c.live_after.to_string(),
            if c.is_clean() { "yes" } else { "no" }.to_string(),
        ]);
    }
    save(csv, opts, &format!("sanitize_{}_{}.csv", opts.num, opts.device.name));
    if dirty > 0 {
        println!("{dirty} manager(s) reported violations");
    }
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
    println!("wrote {} ({} bytes)", json_path.display(), r.json.len());
    let mut csv = Csv::new([
        "manager", "op", "events", "dropped", "p50_ns", "p95_ns", "p99_ns", "max_ns", "mean_ns",
    ]);
    for (op, h) in [("malloc", &r.latencies.malloc), ("free", &r.latencies.free)] {
        csv.row([
            r.manager.to_string(),
            op.to_string(),
            h.count().to_string(),
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
    println!(
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
    let backend = opts.backend();
    format!(
        "git={git} device={} workers={} gms_workers={} heap_backend={backend} pretouch={} \
         heap_mb={} seed={:#x} schema=1",
        opts.device.name,
        Device::configured_workers(),
        std::env::var("GMS_WORKERS").unwrap_or_else(|_| "-".to_string()),
        opts.pretouch.resolve(backend),
        opts.heap_mb.map(|mb| mb.to_string()).unwrap_or_else(|| "-".to_string()),
        opts.seed,
    )
}

/// Prints `csv` as an aligned table, then stamps it with [`provenance`] and
/// writes it to `--out/name` — one column list for both.
fn save(mut csv: Csv, opts: &Opts, name: &str) {
    print!("{}", csv.to_string_text());
    csv.comment(provenance(opts));
    let path = opts.out.join(name);
    write_or_exit(&path, &csv.to_string_csv());
    println!("wrote {} ({} rows)", path.display(), csv.len());
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

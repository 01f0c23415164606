//! Integration battery for the telemetry subsystem: sink attachment
//! through the builder, the teardown ordering contract (drain magazines
//! before the final sample), and the full `watch` pipeline from scenario
//! run to schema-versioned exports.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use gpumemsurvey::bench::matrix::{MatrixCfg, Tier};
use gpumemsurvey::bench::registry::ManagerKind;
use gpumemsurvey::bench::watch;
use gpumemsurvey::prelude::*;

const HEAP: u64 = 64 << 20;
const N: u32 = 512;

fn device() -> Device {
    Device::with_workers(DeviceSpec::titan_v(), 4)
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("gms_telemetry_{name}"));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Allocates then frees `N` same-class blocks through a `Cached`-wrapped
/// manager, so every free parks in (or evicts through) a magazine.
fn alloc_free_cycle(alloc: &Arc<dyn DeviceAllocator>) {
    let d = device();
    let ptrs = gpu_sim::PerThread::<DevicePtr>::new(N as usize);
    let a = Arc::clone(alloc);
    d.launch(N, |ctx| {
        let p = a.malloc(ctx, 64).expect("64 MiB heap fits 512×64 B");
        ptrs.set(ctx.thread_id as usize, p);
    });
    let ptrs = ptrs.into_vec();
    let a = Arc::clone(alloc);
    d.launch(N, |ctx| {
        a.free(ctx, ptrs[ctx.thread_id as usize]).unwrap();
    });
}

/// Satellite regression: frees parked in per-SM magazines are invisible to
/// the shared counters until `drain()` pushes them through the inner
/// allocator. A final telemetry sample taken *before* draining would
/// under-report frees, so the teardown order is drain → stop.
#[test]
fn magazine_frees_stay_parked_until_drain() {
    let sink = TelemetrySink::new();
    let alloc = ManagerKind::ScatterAlloc
        .builder()
        .heap(HEAP)
        .sms(8)
        .metrics(true)
        .cached(true)
        .telemetry(&sink)
        .build();
    assert_eq!(sink.len(), 1, "builder registers the counter block with the sink");

    // Slow cadence: no timer windows fire, every cut below is explicit.
    let tel = Telemetry::start(
        TelemetryConfig::new().interval(Duration::from_secs(3600)).capacity(64),
        sink,
    );

    alloc_free_cycle(&alloc);

    let before = alloc.metrics().snapshot();
    assert_eq!(before.malloc_calls(), u64::from(N));
    assert!(
        before.free_calls() < u64::from(N),
        "at least one free must still be parked in a magazine \
         (saw {} of {N} inner frees)",
        before.free_calls()
    );

    let drained = alloc.drain();
    assert!(drained > 0, "drain publishes the parked blocks");
    assert_eq!(
        before.free_calls() + drained,
        u64::from(N),
        "every caller free either evicted through or drained out of a magazine"
    );

    let series = tel.stop();
    assert_eq!(
        series.totals.free_calls(),
        u64::from(N),
        "final sample taken after drain sees complete free accounting"
    );
    assert_eq!(series.totals.live(), 0, "nothing live after a full cycle + drain");
    assert!(!series.samples.is_empty(), "stop() cuts a final window");
    let last = series.last().unwrap();
    assert_eq!(series.totals.malloc_calls(), u64::from(N));
    assert!(last.t_ms >= 0.0);
}

/// The sampler folds counter deltas per window: two explicit cuts around
/// a workload attribute the whole workload to the middle window, and the
/// series totals stay cumulative.
#[test]
fn explicit_cuts_window_the_counter_deltas() {
    let sink = TelemetrySink::new();
    let alloc =
        ManagerKind::Atomic.builder().heap(HEAP).sms(8).metrics(true).telemetry(&sink).build();
    let tel = Telemetry::start(
        TelemetryConfig::new().interval(Duration::from_secs(3600)).capacity(64),
        sink,
    );

    tel.sample_now(); // empty leading window
    let d = device();
    let a = Arc::clone(&alloc);
    d.launch(N, |ctx| {
        let _ = a.malloc(ctx, 128);
    });
    tel.sample_now(); // workload window
    let series = tel.stop(); // trailing window from stop()

    assert!(series.samples.len() >= 3, "two explicit cuts + the stop cut");
    assert_eq!(series.samples[0].malloc_ops, 0, "leading window saw nothing");
    let windowed: u64 = series.samples.iter().map(|s| s.malloc_ops).sum();
    assert_eq!(windowed, u64::from(N), "windows partition the op stream");
    assert_eq!(series.totals.malloc_calls(), u64::from(N));
    for w in series.samples.windows(2) {
        assert!(w[1].seq == w[0].seq + 1, "sample seq is dense");
        assert!(w[1].t_ms >= w[0].t_ms, "sample times are monotone");
    }
}

/// A tiny-tier matrix configuration restricted to ScatterAlloc.
fn scatter_tiny() -> MatrixCfg {
    let mut cfg = MatrixCfg::new(Tier::Tiny);
    cfg.kinds = Some(vec![ManagerKind::ScatterAlloc]);
    cfg
}

/// End-to-end `watch` pipeline, from scenario run to the two exports.
#[test]
fn watch_run_exports_schema_versioned_series() {
    let out = tmpdir("watch");
    let tcfg = TelemetryConfig::new().hz(1000.0);
    let outcome =
        watch::watch(scatter_tiny(), "mixed", tcfg, &out).expect("watched mixed scenario");

    let s = &outcome.series;
    assert_eq!(s.evicted, 0, "the ring held the whole run");
    assert!(s.totals.malloc_calls() > 0, "the sink captured the scenario's managers");
    assert!(s.launches > 0, "the launch hook marked every launch");
    let boundaries = s.samples.iter().filter(|w| w.boundary).count() as u64;
    assert_eq!(boundaries, s.launches, "one kernel-boundary window per launch");
    let windowed: u64 = s.samples.iter().map(|w| w.malloc_ops).sum();
    assert_eq!(windowed, s.totals.malloc_calls(), "the windows fold every traced malloc");

    let json = std::fs::read_to_string(&outcome.json_path).unwrap();
    assert!(json.contains("\"schema\": 2"), "dump is schema-versioned");
    assert!(json.contains("\"kind\": \"gms-telemetry\""));
    assert!(json.contains("\"samples\""));

    let csv = std::fs::read_to_string(&outcome.csv_path).unwrap();
    let mut lines = csv.lines();
    assert!(lines.next().unwrap().starts_with('#'), "provenance comment leads");
    assert!(lines.next().unwrap().starts_with("seq,"), "then the sample header");
    assert_eq!(csv.lines().count(), s.samples.len() + 2, "one row per window");

    let _ = std::fs::remove_dir_all(&out);
}

/// Two watches running at once each count exactly the managers their own
/// scenario builds: the sink travels in the scenario's `Bench`, so neither
/// sees the other's managers nor loses its own.
#[test]
fn concurrent_watches_count_only_their_own_managers() {
    let run = |name: &str| {
        let out = tmpdir(name);
        let outcome = watch::watch(scatter_tiny(), "mixed", TelemetryConfig::new(), &out)
            .expect("watched mixed scenario");
        let _ = std::fs::remove_dir_all(&out);
        outcome.series.totals.malloc_calls()
    };
    let solo = run("solo");
    assert!(solo > 0, "a solo watch counts its managers");
    let start = Barrier::new(2);
    let pair: Vec<u64> = std::thread::scope(|scope| {
        let handles = ["pair_a", "pair_b"].map(|name| {
            let (start, run) = (&start, &run);
            scope.spawn(move || {
                start.wait();
                run(name)
            })
        });
        handles.into_iter().map(|h| h.join().expect("watch thread")).collect()
    });
    assert_eq!(pair, [solo, solo], "each concurrent watch matches the solo run");
}

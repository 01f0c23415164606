//! Integration battery for the telemetry sampler: sink attachment through
//! the builder, windows that partition the op stream, and the teardown
//! ordering contract (drain magazines before the final sample).

use std::sync::Arc;

use gpumemsurvey::bench::registry::ManagerKind;
use gpumemsurvey::prelude::*;

const HEAP: u64 = 64 << 20;
const N: u32 = 512;

fn device() -> Device {
    Device::with_workers(DeviceSpec::titan_v(), 4)
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

    // Slowest cadence: no timer windows fire, every cut below is explicit.
    let tel = Telemetry::start(TelemetryConfig::new().hz(0.1), sink);

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
    assert_eq!(series.totals.malloc_calls(), u64::from(N));
    let last = series.samples.last().expect("stop() cuts a final window");
    assert_eq!(last.counters.free_calls(), u64::from(N), "the final window holds every free");
}

/// The sampler folds counter deltas per window: two explicit cuts around
/// a workload attribute the whole workload to the middle window, and the
/// series totals stay cumulative.
#[test]
fn explicit_cuts_window_the_counter_deltas() {
    let sink = TelemetrySink::new();
    let alloc =
        ManagerKind::Atomic.builder().heap(HEAP).sms(8).metrics(true).telemetry(&sink).build();
    let tel = Telemetry::start(TelemetryConfig::new().hz(0.1), sink);

    tel.sample_now(); // empty leading window
    let d = device();
    let a = Arc::clone(&alloc);
    d.launch(N, |ctx| {
        let _ = a.malloc(ctx, 128);
    });
    tel.sample_now(); // workload window
    let series = tel.stop(); // trailing window from stop()

    assert!(series.samples.len() >= 3, "two explicit cuts + the stop cut");
    assert!(series.samples[0].counters.is_zero(), "leading window saw nothing");
    let windowed: u64 = series.samples.iter().map(|s| s.counters.malloc_calls()).sum();
    assert_eq!(windowed, u64::from(N), "windows partition the op stream");
    assert_eq!(series.totals.malloc_calls(), u64::from(N));
    for w in series.samples.windows(2) {
        assert!(w[1].seq == w[0].seq + 1, "sample seq is dense");
        assert!(w[1].t_ms >= w[0].t_ms, "sample times are monotone");
    }
}

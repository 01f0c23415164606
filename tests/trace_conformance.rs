//! Conformance battery for the event-tracing layer (PR: per-SM ring-buffer
//! trace recorder + derived views).
//!
//! The acceptance surface, executed black-box through the public API:
//!
//! 1. **End-to-end export** — a traced run emits Chrome trace-event JSON
//!    that validates (array of objects, each carrying `ph`/`ts`/`pid`/`tid`)
//!    with one `launch window` counter sample per launch, and latency
//!    histograms with non-zero p50/p95/p99 for malloc and free.
//! 2. **Opt-in only** — a manager built without `.trace(...)` has no
//!    recorder attached and records zero events no matter what runs.
//! 3. **No cost when disabled** — the tracer hook on the metrics record
//!    path is one `Option` discriminant check; a release-mode nanobench
//!    bounds the per-op cost (same style as the executor's
//!    timing-fidelity test, ignored in debug builds).
//! 4. **One event per operation** — a traced `malloc`/`free` writes one
//!    ring slot, the documented `MallocEnd`/`FreeEnd`, stamped when it
//!    returned; one call in `TIMED_ONE_IN` per thread also carries its
//!    latency, the rest latency 0. Its enabled cost is bounded by
//!    1 + 1/`TIMED_ONE_IN` clock reads plus a constant (release-only), and
//!    the clock behind `now_ns()` is monotonic and agrees with `Instant`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpumemsurvey::bench::registry::ManagerKind;
use gpumemsurvey::bench::runners::{self, Bench};
use gpumemsurvey::core::json::Json;
use gpumemsurvey::core::trace::{DEFAULT_EVENTS_PER_SM, TIMED_ONE_IN};
use gpumemsurvey::core::{
    validate_chrome_json, EventKind, LiveSet, RegisterFootprint, TraceRecorder,
};
use gpumemsurvey::gpu_workloads::round;
use gpumemsurvey::prelude::*;

const N: u32 = 4096;

fn bench() -> Bench {
    Bench::new(Device::with_workers(DeviceSpec::titan_v(), 4))
}

#[test]
fn traced_run_exports_valid_chrome_json_with_nonzero_percentiles() {
    let b = bench();
    let r = runners::trace_profile(&b, ManagerKind::ScatterAlloc, N, DEFAULT_EVENTS_PER_SM);

    let json_events = validate_chrome_json(&r.json).expect("export must be valid Chrome JSON");
    assert!(json_events > 0, "export must contain events");

    assert_eq!(r.trace.count(EventKind::MallocEnd), N as usize, "one MallocEnd per thread");
    assert_eq!(r.trace.count(EventKind::FreeEnd), N as usize, "one FreeEnd per thread");
    for (op, h) in [("malloc", &r.latencies.malloc), ("free", &r.latencies.free)] {
        // Each worker times one call in every aligned run of
        // `TIMED_ONE_IN` of its calls: within two of its share.
        let share = u64::from(N / TIMED_ONE_IN);
        assert!(h.count().abs_diff(share) <= 16, "{op}: {} timed of {N}", h.count());
        assert!(h.p50() > 0 && h.p95() > 0 && h.p99() > 0, "{op}: percentiles must be non-zero");
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99(), "{op}: percentiles must be ordered");
        assert!(h.p99() <= h.max_ns(), "{op}: p99 bounded by the observed max");
    }

    // The live set replays the same stream into a consistent heap usage:
    // every thread allocated then freed, so the peak is positive, bounded
    // by the thread count, and the run ends with nothing live.
    assert!(r.peak_live_bytes > 0);
    assert!(r.peak_live_allocs > 0 && r.peak_live_allocs <= u64::from(N));
    assert_eq!(r.address_range.count(), u64::from(N), "every grant widens the range");
    assert!(r.address_range.range() >= r.peak_live_bytes);
    assert_eq!(r.live.unmatched_frees(), 0, "every free matches a traced malloc");
    assert_eq!((r.live.bytes(), r.live.allocs()), (0, 0), "run ends with an empty heap");

    // One `launch window` counter sample per launch slice, folded from the
    // same stream: the malloc launch's window holds every malloc, the free
    // launch's every free, and the run ends with nothing live.
    let doc = Json::parse(&r.json).expect("strict JSON");
    let get = |obj: &[(String, Json)], key: &str| {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let windows: Vec<[f64; 3]> = (doc.as_array().unwrap().iter())
        .filter_map(Json::as_object)
        .filter(|e| get(e, "name").as_ref().and_then(Json::as_string) == Some("launch window"))
        .map(|e| {
            let args = get(e, "args").unwrap();
            let arg = |k| get(args.as_object().unwrap(), k).unwrap().as_number().unwrap();
            [arg("mallocs"), arg("frees"), arg("live_bytes")]
        })
        .collect();
    assert_eq!(windows.len(), r.json.matches("\"cat\":\"launch\"").count());
    let n = f64::from(N);
    assert_eq!(windows.len(), 2, "{windows:?}");
    assert_eq!((windows[0][0], windows[0][1]), (n, 0.0), "malloc launch: {windows:?}");
    assert_eq!(windows[1], [0.0, n, 0.0], "free launch: {windows:?}");
}

#[test]
fn warp_level_manager_traces_collective_frees() {
    // FDGMalloc has no per-pointer free; its bulk `free_warp_all` path must
    // still produce FreeEnd events with non-zero latency.
    let b = bench();
    let r = runners::trace_profile(&b, ManagerKind::FDGMalloc, N, DEFAULT_EVENTS_PER_SM);
    validate_chrome_json(&r.json).expect("warp-level export must validate");
    assert!(r.latencies.malloc.count() > 0);
    assert!(r.latencies.free.count() > 0, "bulk frees must be traced");
    assert!(r.latencies.free.p50() > 0);
}

#[test]
fn builder_without_trace_attaches_no_recorder_and_records_nothing() {
    let alloc = ManagerKind::ScatterAlloc.builder().heap(64 << 20).sms(80).metrics(true).build();
    assert!(alloc.metrics().tracer().is_none(), "tracing is strictly opt-in");

    // A bystander recorder sees nothing from an untraced run: events only
    // flow through an explicitly attached tracer.
    let bystander = TraceRecorder::new(80, 256);
    let d = Device::with_workers(DeviceSpec::titan_v(), 4);
    round::malloc_threads(alloc.as_ref(), &d, N, |_| 64);
    let calls = alloc.metrics().snapshot().malloc_calls();
    assert_eq!(calls, u64::from(N), "metrics still work untraced");
    assert_eq!(bystander.recorded(), 0, "recorded event count must be 0 with tracing disabled");
    assert!(bystander.snapshot().is_empty());
    assert!(alloc.metrics().tracer().is_none(), "launches never attach tracers");
}

#[test]
fn traced_launch_emits_lifecycle_events() {
    // `trace_profile` brackets its malloc round and its free round with a
    // LaunchBegin/End pair each, and every operation lands inside the span
    // of the round that ran it.
    let b = bench();
    let r = runners::trace_profile(&b, ManagerKind::ScatterAlloc, 256, DEFAULT_EVENTS_PER_SM);
    let t = &r.trace;
    assert_eq!((t.count(EventKind::LaunchBegin), t.count(EventKind::LaunchEnd)), (2, 2));
    let span = |id: u64| {
        let at = |kind| t.events.iter().find(|e| e.kind == kind && e.args[0] == id).unwrap().ts_ns;
        at(EventKind::LaunchBegin)..=at(EventKind::LaunchEnd)
    };
    let (malloc, free) = (span(0), span(1));
    for e in &t.events {
        match e.kind {
            EventKind::MallocEnd => assert!(malloc.contains(&e.ts_ns), "{e:?} outside {malloc:?}"),
            EventKind::FreeEnd => assert!(free.contains(&e.ts_ns), "{e:?} outside {free:?}"),
            _ => {}
        }
    }
    assert_eq!((t.count(EventKind::MallocEnd), t.count(EventKind::FreeEnd)), (256, 256));

    // A manager that cannot free runs no free round: one launch.
    let r = runners::trace_profile(&b, ManagerKind::Atomic, 256, DEFAULT_EVENTS_PER_SM);
    let t = &r.trace;
    assert_eq!((t.count(EventKind::LaunchBegin), t.count(EventKind::LaunchEnd)), (1, 1));
}

/// Overhead guard: with tracing disabled, the metrics record path must add
/// no measurable cost. Minima over repeated trials filter scheduler noise;
/// the bounds are generous multiples of what a branch-plus-increment can
/// cost so the guard only fires on a real regression (e.g. an
/// unconditional clock read or allocation sneaking into the hot path).
#[cfg_attr(debug_assertions, ignore = "per-op timing bound: release-only (scripts/check.sh)")]
#[test]
fn disabled_tracing_adds_no_measurable_record_cost() {
    const OPS: u32 = 1_000_000;
    let per_op_ns = |m: &Metrics| {
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            for i in 0..OPS {
                m.add(i % 8, Counter::CasRetries, 1);
            }
            best = best.min(t.elapsed());
        }
        best.as_nanos() as f64 / f64::from(OPS)
    };
    // Fully disabled handle: one `Option` check, nothing else.
    let disabled = per_op_ns(&Metrics::disabled());
    assert!(disabled < 20.0, "disabled record path costs {disabled:.2} ns/op (want < 20)");
    // Enabled counters without a tracer: the tracer hook must not add
    // beyond the sharded increments themselves.
    let untraced = per_op_ns(&Metrics::enabled(8));
    assert!(untraced < 200.0, "untraced record path costs {untraced:.2} ns/op (want < 200)");
}

/// A stateless manager for the per-operation tests: thread `t` gets the block at
/// `64 * t`, sizes above 64 B and pointers off the 64 B grid are refused,
/// and every malloc notes two CAS retries, every free one.
struct Scripted {
    heap: DeviceHeap,
    m: Metrics,
}

impl Scripted {
    fn traced(m: Metrics, rec: &Arc<TraceRecorder>) -> Traced<Scripted> {
        Traced::new(Scripted { heap: DeviceHeap::new(4096), m }, Arc::clone(rec))
    }
}

impl DeviceAllocator for Scripted {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("Scripted").supports_free(true).build()
    }
    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }
    fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        self.m.add(ctx.sm, Counter::CasRetries, 2);
        if size > 64 {
            return Err(AllocError::UnsupportedSize(size));
        }
        Ok(DevicePtr::new(u64::from(ctx.thread_id) * 64))
    }
    fn free(&self, ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        self.m.add(ctx.sm, Counter::CasRetries, 1);
        if !ptr.raw().is_multiple_of(64) {
            return Err(AllocError::InvalidPointer);
        }
        Ok(())
    }
    fn register_footprint(&self) -> RegisterFootprint {
        RegisterFootprint { malloc: 1, free: 1 }
    }
    fn metrics(&self) -> Metrics {
        self.m.clone()
    }
}

/// Stream equivalence: every traced `malloc`/`free` is one ring event, the
/// `MallocEnd`/`FreeEnd` documented on `EventKind`.
#[test]
fn traced_ops_are_one_event_each() {
    const OPS: u32 = 1024;
    let alloc = ManagerKind::ScatterAlloc.builder().heap(64 << 20).sms(80).trace(true).build();
    let rec = Arc::clone(alloc.metrics().tracer().expect("trace(true) attaches a recorder"));
    let d = Device::with_workers(DeviceSpec::titan_v(), 1);
    let a = Arc::clone(&alloc);
    d.launch(OPS, move |ctx| {
        let p = a.malloc(ctx, 48).expect("64 MiB holds 1024 x 48 B");
        a.free(ctx, p).expect("own pointer");
    });

    let trace = rec.snapshot();
    assert_eq!(trace.len(), 2 * OPS as usize, "one event per op, two ops per thread");
    assert_eq!(rec.recorded(), trace.len() as u64);
    assert_eq!(rec.dropped(), 0);
    // One worker made every call, one in `TIMED_ONE_IN` of them timed.
    let timed = trace.events.iter().filter_map(|e| e.latency()).count();
    assert_eq!(timed, 2 * (OPS / TIMED_ONE_IN) as usize);
    // One worker runs the threads in order, so on every SM each thread's
    // MallocEnd is followed by its FreeEnd.
    for sm in 0..80 {
        let on_sm: Vec<_> = trace.events.iter().filter(|e| e.sm == sm).collect();
        for pair in on_sm.chunks(2) {
            let (malloc, free) = (pair[0], pair[1]);
            assert_eq!((malloc.kind, free.kind), (EventKind::MallocEnd, EventKind::FreeEnd));
            let [ptr, size, _latency, _retries] = malloc.args;
            assert_ne!(ptr, u64::MAX);
            assert_eq!(size, 48);
            let [freed, _latency, _retries, ok] = free.args;
            assert_eq!((freed, ok), (ptr, 1), "sm {sm}: the free names its malloc's pointer");
        }
    }
}

/// Every payload word round-trips, including the ones the happy path leaves
/// at zero: retries, a refused malloc and a refused free. The four calls
/// are a fresh thread's first, so the first is timed and the other three
/// carry latency 0; each is stamped with the instant it returned.
#[test]
fn op_record_roundtrips_retries_and_failures() {
    let rec = Arc::new(TraceRecorder::new(4, 16));
    let m = Metrics::enabled(4).with_tracer(Arc::clone(&rec));
    let alloc = Scripted::traced(m, &rec);
    let ctx = ThreadCtx { thread_id: 77, lane: 13, warp: 2, block: 0, sm: 6 };

    let before = rec.now_ns();
    std::thread::scope(|s| {
        s.spawn(|| {
            let p = alloc.malloc(&ctx, 64).unwrap();
            alloc.malloc(&ctx, 65).unwrap_err();
            alloc.free(&ctx, DevicePtr::new(p.raw() + 1)).unwrap_err();
            alloc.free(&ctx, p).unwrap();
        });
    });

    let t = rec.snapshot();
    assert_eq!((t.len(), rec.recorded(), rec.dropped()), (4, 4, 0));
    assert!(t.events.iter().all(|e| e.sm == 6), "SM 6 folds onto shard 2 and keeps its id");
    // The timed call's latency is a clock reading: at least 1 ns, and the
    // call started after `before`, since `ts_ns` is the instant it returned.
    let first = t.events[0];
    let latency = first.args[2];
    assert!(latency >= 1 && first.ts_ns - latency >= before, "{first:?} vs {before}");
    let want = [
        (EventKind::MallocEnd, [77 * 64, 64, latency, 2]),
        (EventKind::MallocEnd, [u64::MAX, 65, 0, 2]),
        (EventKind::FreeEnd, [77 * 64 + 1, 0, 1, 0]),
        (EventKind::FreeEnd, [77 * 64, 0, 1, 1]),
    ];
    assert_eq!(t.events.iter().map(|e| (e.kind, e.args)).collect::<Vec<_>>(), want);
}

/// The sampling rule, end to end on a fresh thread: of its first 64 traced
/// calls, 8 — one in each run of `TIMED_ONE_IN` — carry a latency of at
/// least 1 ns and 56 carry 0. `OpLatencies` holds the 8; a telemetry window
/// counts all 64 in `malloc_ops`. A `malloc_warp` is one call: its 32 lanes
/// share one latency, and one of eight such calls is timed.
#[test]
fn traced_calls_time_one_in_eight_and_count_every_one() {
    assert_eq!(TIMED_ONE_IN, 8);
    let rec = Arc::new(TraceRecorder::new(2, 256));
    let m = Metrics::enabled(2).with_tracer(Arc::clone(&rec));
    let sink = TelemetrySink::new();
    sink.attach(&m);
    let tel = Telemetry::start(TelemetryConfig::new().interval(Duration::from_secs(3600)), sink);
    let alloc = Scripted::traced(m, &rec);
    let calls = |f: &(dyn Fn() + Sync)| std::thread::scope(|s| s.spawn(f).join().unwrap());

    calls(&|| {
        for _ in 0..64 {
            alloc.malloc(&ThreadCtx::host(), 64).unwrap();
        }
    });
    tel.sample_now();
    let t = rec.snapshot();
    let latencies: Vec<u64> = t.events.iter().map(|e| e.args[2]).collect();
    assert_eq!(latencies.len(), 64);
    let timed: Vec<usize> = (0..64).filter(|&i| latencies[i] >= 1).collect();
    assert_eq!((timed.len(), latencies.iter().filter(|&&l| l == 0).count()), (8, 56));
    assert!(timed.iter().enumerate().all(|(run, &i)| i / 8 == run), "one per run: {timed:?}");
    assert_eq!(OpLatencies::from_trace(&t).malloc.count(), 8);

    // The first eight calls of another fresh thread: warp calls on SM 1,
    // which has a shard of its own.
    calls(&|| {
        let warp = WarpCtx { warp: 1, block: 0, sm: 1 };
        let mut out = [DevicePtr::NULL; 32];
        for _ in 0..8 {
            alloc.malloc_warp(&warp, &[48; 32], &mut out).unwrap();
        }
    });
    let series = tel.stop();
    let windows: Vec<u64> = series.samples.iter().map(|s| s.malloc_ops).collect();
    assert_eq!(windows.iter().find(|&&n| n > 0), Some(&64), "one window, every call: {windows:?}");
    assert_eq!(windows.iter().sum::<u64>(), 64 + 8 * 32);

    let t = rec.snapshot();
    let lanes: Vec<u64> = t.events.iter().filter(|e| e.sm == 1).map(|e| e.args[2]).collect();
    assert_eq!(lanes.len(), 8 * 32);
    for call in lanes.chunks(32) {
        assert!(call.iter().all(|&l| l == call[0]), "lanes of one call differ: {call:?}");
    }
    assert_eq!(lanes.chunks(32).filter(|call| call[0] >= 1).count(), 1);
}

/// A traced 32-lane `malloc_warp` is one `MallocEnd` per lane, each with
/// the collective's latency; lane 0 carries every retry of the collective.
#[test]
fn traced_warp_malloc_is_one_event_per_lane_with_retries_on_lane_zero() {
    let rec = Arc::new(TraceRecorder::new(4, 64));
    let alloc = Scripted::traced(Metrics::enabled(4).with_tracer(Arc::clone(&rec)), &rec);
    let warp = WarpCtx { warp: 2, block: 0, sm: 6 };
    let mut out = [DevicePtr::NULL; 32];
    alloc.malloc_warp(&warp, &[48; 32], &mut out).unwrap();

    let t = rec.snapshot();
    assert_eq!((t.len(), t.count(EventKind::MallocEnd)), (32, 32));
    let latency = t.events[0].args[2];
    for (lane, ev) in t.events.iter().enumerate() {
        let retries = if lane == 0 { 2 * 32 } else { 0 };
        assert_eq!(ev.args, [out[lane].raw(), 48, latency, retries], "lane {lane}");
    }
}

/// The clock behind `now_ns()` — the cycle counter where the CPU offers an
/// invariant one, `Instant` elsewhere — never runs backwards on a thread,
/// keeps `Instant`'s rate, and orders reads across threads.
#[test]
fn trace_clock_is_monotonic_and_agrees_with_instant() {
    let rec = Arc::new(TraceRecorder::new(1, 1));
    let mut last = rec.now_ns();
    for _ in 0..100_000 {
        let now = rec.now_ns();
        assert!(now >= last, "clock stepped back: {last} -> {now}");
        last = now;
    }

    let (c0, i0) = (rec.now_ns(), Instant::now());
    std::thread::sleep(Duration::from_millis(20));
    let (c1, wall) = (rec.now_ns(), i0.elapsed().as_nanos() as f64);
    let drift = ((c1 - c0) as f64 - wall).abs() / wall;
    assert!(drift < 0.01, "{} ns on the trace clock over {wall} ns of Instant", c1 - c0);

    // A read that happens-after another thread's read is never earlier.
    let mut stamps = vec![rec.now_ns()];
    for _ in 0..8 {
        let remote = Arc::clone(&rec);
        stamps.push(std::thread::spawn(move || remote.now_ns()).join().unwrap());
        stamps.push(rec.now_ns());
    }
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "cross-thread order broken: {stamps:?}");
}

/// Overhead guard, enabled path: a traced operation over a manager that
/// does nothing costs one clock read, the start read of one call in
/// `TIMED_ONE_IN`, and one ring record. The clock is measured here, so the
/// bound holds with the cycle counter or `Instant`; 40 ns covers the record
/// (one `fetch_add`, six stores), the retry scope and the scripted manager
/// itself; a second clock read or record per operation does not fit.
#[cfg_attr(debug_assertions, ignore = "per-op timing bound: release-only (scripts/check.sh)")]
#[test]
fn traced_op_costs_one_clock_read_and_one_record() {
    const OPS: u32 = 1_000_000;
    let rec = Arc::new(TraceRecorder::new(1, 5 * OPS as usize));
    let alloc = Scripted::traced(Metrics::disabled(), &rec);
    let ctx = ThreadCtx::host();
    let min_ns_op = |op: &dyn Fn(u32)| {
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            for i in 0..OPS {
                op(i);
            }
            best = best.min(t.elapsed());
        }
        best.as_nanos() as f64 / f64::from(OPS)
    };
    let clock = min_ns_op(&|_| {
        std::hint::black_box(rec.now_ns());
    });
    let traced = min_ns_op(&|i| {
        let _ = std::hint::black_box(alloc.malloc(&ctx, u64::from(i % 64)));
    });
    assert_eq!(rec.dropped(), 0, "the ring holds every trial: no drop path in the number");
    let bound = (1.0 + 1.0 / f64::from(TIMED_ONE_IN)) * clock + 40.0;
    assert!(
        traced < bound,
        "traced op {traced:.1} ns, clock read {clock:.1} ns: want < {bound:.1}"
    );
}

/// `(live bytes, live allocations)` after each event of `rec`'s trace that
/// grants or releases a block, and the live set they leave.
fn replay(rec: &TraceRecorder) -> (Vec<(u64, u64)>, LiveSet) {
    let mut live = LiveSet::new();
    let steps = (rec.snapshot().events.iter())
        .filter_map(|e| live.apply(e).map(|_| (live.bytes(), live.allocs())))
        .collect();
    (steps, live)
}

/// Edge case: replaying an empty stream must yield an empty live set — no
/// phantom step, no live block, no unmatched free.
#[test]
fn live_set_of_empty_stream_is_empty() {
    let rec = TraceRecorder::new(4, 16);
    let (steps, live) = replay(&rec);
    assert!(steps.is_empty(), "no events, no steps");
    assert_eq!((live.bytes(), live.allocs(), live.unmatched_frees()), (0, 0, 0));
}

/// Edge case: a `FreeEnd` whose pointer the replay never saw allocated
/// (ring drop ate the `MallocEnd`, or a collective bulk free) must count
/// as unmatched, never underflow the live bytes, and must not poison the
/// later matched cycle on the same address.
#[test]
fn live_set_counts_free_before_malloc_as_unmatched() {
    let rec = TraceRecorder::new(4, 16);
    rec.emit_at(10, 0, EventKind::FreeEnd, [0x40, 5, 0, 1]); // never allocated
    rec.emit_at(20, 0, EventKind::MallocEnd, [0x40, 64, 5, 0]);
    rec.emit_at(30, 0, EventKind::FreeEnd, [0x40, 5, 0, 1]); // matches the malloc
    let (steps, live) = replay(&rec);
    assert_eq!(live.unmatched_frees(), 1, "only the early free is unmatched");
    // The unmatched free does not underflow, and the matched cycle balances.
    assert_eq!(steps, [(0, 0), (64, 1), (0, 0)], "every replayed event is a step");
}

/// Edge case: a shard filled to *exactly* its capacity records everything
/// and drops nothing; the next event hits drop-newest backpressure and
/// must be invisible to the replay (counted in `dropped()`, absent from
/// the live set) rather than corrupting it.
#[test]
fn live_set_survives_ring_fill_at_exact_capacity() {
    let cap = 8usize;
    let rec = TraceRecorder::new(1, cap);
    for i in 0..cap as u64 {
        rec.emit_at(10 + i, 0, EventKind::MallocEnd, [0x100 + i * 64, 64, 5, 0]);
    }
    assert_eq!(rec.recorded(), cap as u64, "exact fill commits every slot");
    assert_eq!(rec.dropped(), 0, "exact fill drops nothing");
    let (steps, live) = replay(&rec);
    assert_eq!(steps.len(), cap);
    assert_eq!(live.allocs(), cap as u64);

    rec.emit_at(99, 0, EventKind::FreeEnd, [0x100, 5, 0, 1]); // one past capacity
    assert_eq!(rec.dropped(), 1, "overflow is drop-newest, and it is counted");
    let (steps2, live2) = replay(&rec);
    assert_eq!(steps2, steps, "the dropped event never reaches the replay");
    assert_eq!((live2.allocs(), live2.bytes()), (cap as u64, cap as u64 * 64));
    assert_eq!(live2.unmatched_frees(), 0);
}

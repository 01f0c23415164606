//! The fixed probe battery of the traced run: what each layer costs on its
//! own, measured from outside through the public API.
//!
//! The ladder stands on `NullAlloc` (a fixed offset per thread, nothing
//! shared): empty kernel → called by type → behind `Arc<dyn>` → `Traced` →
//! `Cached` hit / park / miss → `Sanitized`. Every rung is an absolute
//! ns/op of a whole launch, so a layer's cost is the difference of two
//! rungs and never negative by construction of either.

use std::hint::black_box;

use crate::clock::{self, Stamp};
use crate::slots::Slots;
use crate::stats::{geomean, median};
use crate::sut::{self, BuildOpts, Dev, Handle, Kind, NullAlloc, Rung, Sink, ThreadCtx, WarpCtx};

/// How large the probes are.
#[derive(Clone, Copy)]
pub struct Sizing {
    /// Threads of a launch (8192; 256 under `--selftest`).
    pub n: u32,
    /// Launches per rung; the median is reported.
    pub reps: usize,
}

/// `(name, value)` pairs, in the order measured.
pub type Readings = Vec<(String, f64)>;

/// Median CPU ns per op of `reps` runs of `f`, which performs `ops` ops.
fn cpu_ns_op(reps: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Stamp::now();
            f();
            start.elapsed().0 as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// One malloc launch and one free launch of `n` threads through `h`;
/// ns per op over both.
fn round_ns_op(dev: &Dev, h: &Handle, z: Sizing) -> f64 {
    cpu_ns_op(z.reps, 2 * u64::from(z.n), || round(dev, h, z.n, 16))
}

fn round(dev: &Dev, h: &Handle, n: u32, size: u64) {
    dev.threads(n, |ctx: &ThreadCtx| {
        black_box(h.malloc(ctx, size));
    });
    dev.threads(n, |ctx: &ThreadCtx| {
        black_box(h.free(ctx, null_ptr(ctx)));
    });
}

/// The pointer `NullAlloc` gave `ctx`'s thread.
#[inline]
fn null_ptr(ctx: &ThreadCtx) -> sut::Ptr {
    sut::Ptr::new(u64::from(ctx.thread_id) * sut::NULL_STRIDE)
}

/// `gpu-sim::exec`: what a launch costs with nothing in it.
fn exec(dev: &Dev, z: Sizing, out: &mut Readings) {
    // One clock read costs as much as one empty launch, so a sample times a
    // batch of launches.
    const BATCH: u64 = 1024;
    out.push((
        "exec.inline_launch_ns".into(),
        cpu_ns_op(z.reps, BATCH, || {
            for _ in 0..BATCH {
                dev.warps(1, |w: &WarpCtx| {
                    black_box(w);
                });
            }
        }),
    ));
    out.push((
        "exec.thread_overhead_ns".into(),
        cpu_ns_op(z.reps, u64::from(z.n), || {
            dev.threads(z.n, |ctx: &ThreadCtx| {
                black_box(ctx);
            })
        }),
    ));
    let warps = z.n / sut::WARP;
    out.push((
        "exec.warp_overhead_ns".into(),
        cpu_ns_op(z.reps, u64::from(warps), || {
            dev.warps(warps, |w: &WarpCtx| {
                black_box(w);
            })
        }),
    ));
    // Informational: the only place the benchmark starts pool workers. The
    // work is on other threads, so the clock is the wall clock.
    let pooled = Dev::pooled(2);
    let (mut launch, mut dispatch) = (Vec::new(), Vec::new());
    for _ in 0..z.reps.max(5) {
        let start = Stamp::now();
        let d = pooled.threads_dispatch(sut::WARP, |ctx: &ThreadCtx| {
            black_box(ctx);
        });
        launch.push(start.elapsed().1 as f64);
        dispatch.push(d.as_nanos() as f64);
    }
    out.push(("exec.pooled_launch_ns".into(), median(&launch)));
    out.push(("exec.pooled_dispatch_ns".into(), median(&dispatch)));
}

/// `core::traits`, `core::trace`, `core::cache`, `core::sanitize` over
/// `NullAlloc`. Returns the sanitizer violations seen (must be 0).
fn ladder(dev: &Dev, z: Sizing, out: &mut Readings) -> Result<u64, String> {
    let null = NullAlloc::new(z.n)?;
    out.push((
        "traits.concrete_ns_op".into(),
        cpu_ns_op(z.reps, 2 * u64::from(z.n), || {
            dev.threads(z.n, |ctx: &ThreadCtx| {
                black_box(null.malloc_direct(ctx, 16));
            });
            dev.threads(z.n, |ctx: &ThreadCtx| {
                black_box(null.free_direct(ctx, null_ptr(ctx)));
            });
        }),
    ));
    out.push(("traits.dyn_ns_op".into(), round_ns_op(dev, &null.rung(Rung::Dyn), z)));

    // Traced: a ring that holds every round of the probe, then one that is
    // full after its first event, which leaves only the drop branch.
    let ring = (z.reps + 1) * sut::TRACE_EVENTS_PER_ROUND;
    let (traced, events) = NullAlloc::new(z.n)?.traced_rung(ring);
    out.push(("trace.null_traced_ns_op".into(), round_ns_op(dev, &traced, z)));
    let (recorded, dropped) = events.events();
    out.push(("trace.events_recorded".into(), recorded as f64));
    out.push(("trace.events_dropped".into(), dropped as f64));
    let (full, _) = NullAlloc::new(z.n)?.traced_rung(1);
    out.push(("trace.drop_path_ns_op".into(), round_ns_op(dev, &full, z)));

    // Cached: a block of 256 threads is 256 blocks on one SM in one class —
    // exactly one magazine's capacity, so a free launch parks every block
    // and the next malloc launch hits on every one. Draining between
    // repetitions empties the magazines, so the first malloc launch misses.
    let cached = NullAlloc::new(z.n)?.rung(Rung::Cached);
    let (mut miss, mut park, mut hit) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..z.reps {
        let launch = |malloc: bool| {
            let start = Stamp::now();
            if malloc {
                dev.threads(z.n, |ctx: &ThreadCtx| {
                    black_box(cached.malloc(ctx, 16));
                });
            } else {
                dev.threads(z.n, |ctx: &ThreadCtx| {
                    black_box(cached.free(ctx, null_ptr(ctx)));
                });
            }
            start.elapsed().0 as f64 / f64::from(z.n)
        };
        miss.push(launch(true));
        park.push(launch(false));
        hit.push(launch(true));
        launch(false);
        cached.drain();
    }
    out.push(("cache.miss_ns".into(), median(&miss)));
    out.push(("cache.park_ns".into(), median(&park)));
    out.push(("cache.hit_ns".into(), median(&hit)));

    let sanitized = NullAlloc::new(z.n)?.rung(Rung::Dyn).sanitized();
    out.push(("sanitize.null_ns_op".into(), round_ns_op(dev, &sanitized.handle(), z)));
    Ok(sanitized.violations())
}

/// `core::heap` + `backend`: the atomic view, reserving, touching.
fn heap(z: Sizing, out: &mut Readings) -> Result<(), String> {
    const BYTES: u64 = 64 << 20;
    let (mut reserve, mut touch) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..z.reps.min(5) {
        drop(last.take());
        sut::release_freed_memory();
        let start = Stamp::now();
        let heap = sut::reserve_heap(BYTES, false)?;
        reserve.push(start.elapsed().0 as f64 / 1e6);
        let start = Stamp::now();
        sut::commit_heap(&heap);
        touch.push(start.elapsed().0 as f64 / 1e6 * ((1u64 << 30) as f64 / BYTES as f64));
        last = Some(heap);
    }
    let heap = last.expect("at least one repetition");
    // A stride of 68 bytes walks every cache line of a window of the heap
    // and keeps the offsets 4-byte aligned.
    const VIEWS: u64 = 8192;
    let view = cpu_ns_op(z.reps, VIEWS, || {
        for i in 0..VIEWS {
            black_box(sut::heap_atomic_touch(&heap, black_box(i * 68)));
        }
    });
    out.push(("heap.atomic_view_ns".into(), view));
    out.push(("heap.reserve_ms".into(), median(&reserve)));
    out.push(("heap.pretouch_ms_gib".into(), median(&touch)));
    Ok(())
}

/// Rounds of a per-kind probe; its trace rings hold one round more.
fn kind_rounds(z: Sizing) -> usize {
    z.reps.min(7)
}

/// Median ns/op of the rounds of `z.n` threads at 16 B on a freshly built
/// `kind`.
fn kind_ns_op(
    dev: &Dev,
    heap: &sut::Heap,
    kind: Kind,
    opts: &BuildOpts,
    z: Sizing,
) -> Result<f64, String> {
    let h = sut::build(kind, heap, opts)?;
    let ptrs = Slots::new(z.n as usize, sut::NULL);
    let freeable = h.supports_free();
    // Atomic and FDGMalloc have no per-pointer free; their rung is the
    // malloc launch alone, on both sides of every comparison.
    let ops = if freeable { 2 * u64::from(z.n) } else { u64::from(z.n) };
    Ok(cpu_ns_op(kind_rounds(z), ops, || {
        dev.threads(z.n, |ctx: &ThreadCtx| {
            ptrs.set(ctx.thread_id as usize, h.malloc(ctx, 16).unwrap_or(sut::NULL));
        });
        if freeable {
            dev.threads(z.n, |ctx: &ThreadCtx| {
                let p = ptrs.get(ctx.thread_id as usize);
                if !p.is_null() {
                    black_box(h.free(ctx, p));
                }
            });
        }
    }))
}

/// `core::metrics` and `core::telemetry`: one kind per crate at 16 B, with
/// the layer off and on. Returns the windows the probe's sampler cut.
fn observability(dev: &Dev, z: Sizing, out: &mut Readings) -> Result<u64, String> {
    let heap = sut::reserve_heap(sut::heap_for(z.n, 16), true)?;
    let panel = Kind::one_per_crate();
    let over_panel = |opts: &BuildOpts| -> Result<f64, String> {
        let per_kind: Result<Vec<f64>, String> =
            panel.iter().map(|&k| kind_ns_op(dev, &heap, k, opts, z)).collect();
        Ok(geomean(&per_kind?))
    };
    out.push(("metrics.off_ns_op".into(), over_panel(&BuildOpts::default())?));
    out.push((
        "metrics.on_ns_op".into(),
        over_panel(&BuildOpts { metrics: true, ..BuildOpts::default() })?,
    ));

    // The same traced, sink-attached managers, first with nobody sampling,
    // then under the 100 Hz sampler.
    let sink = Sink::default();
    let watched = BuildOpts {
        trace_capacity: Some((kind_rounds(z) + 1) * sut::TRACE_EVENTS_PER_ROUND),
        sink: Some(sink.clone()),
        ..BuildOpts::default()
    };
    out.push(("telemetry.sampler_off_ns_op".into(), over_panel(&watched)?));
    let sampler = sut::Sampler::start(&sink);
    let on = over_panel(&watched);
    let windows = sampler.stop();
    out.push(("telemetry.sampler_on_ns_op".into(), on?));
    Ok(windows)
}

/// `<crate>.oom_util`: 1 KiB requests on a 16 MiB heap until the first
/// denial; bytes granted ÷ heap. Exact on the inline device.
pub fn oom_util(dev: &Dev, kind: Kind) -> Result<f64, String> {
    const HEAP: u64 = 16 << 20;
    const SIZE: u64 = 1024;
    let heap = sut::reserve_heap(HEAP, false)?;
    let h = sut::build(kind, &heap, &BuildOpts::default())?;
    let granted = std::sync::atomic::AtomicU64::new(0);
    let denied = std::sync::atomic::AtomicBool::new(false);
    use std::sync::atomic::Ordering::Relaxed;
    // At most the heap's worth of requests, one block of threads a launch.
    for _ in 0..(HEAP / SIZE).div_ceil(u64::from(sut::BLOCK)) {
        dev.threads(sut::BLOCK, |ctx: &ThreadCtx| {
            if !denied.load(Relaxed) {
                match h.malloc(ctx, SIZE) {
                    Some(_) => drop(granted.fetch_add(1, Relaxed)),
                    None => denied.store(true, Relaxed),
                }
            }
        });
        if denied.load(Relaxed) {
            break;
        }
    }
    Ok((granted.into_inner() * SIZE) as f64 / HEAP as f64)
}

/// What the battery measured besides the named readings.
pub struct Battery {
    pub readings: Readings,
    pub sanitizer_violations: u64,
    pub sampler_windows: u64,
}

/// Runs every probe that does not depend on the workload.
pub fn battery(dev: &Dev, z: Sizing) -> Result<Battery, String> {
    let mut readings = Readings::new();
    exec(dev, z, &mut readings);
    let sanitizer_violations = ladder(dev, z, &mut readings)?;
    heap(z, &mut readings)?;
    let sampler_windows = observability(dev, z, &mut readings)?;

    const CALLS: u32 = 8192;
    let sizes = cpu_ns_op(z.reps, u64::from(CALLS), || {
        for tid in 0..CALLS {
            black_box(sut::thread_size(black_box(0x5eed), tid, 4, 4096));
        }
    });
    readings.push(("gpu-workloads.size_gen_ns".into(), sizes));

    let timer = cpu_ns_op(z.reps, u64::from(CALLS), || {
        for _ in 0..CALLS {
            black_box(clock::thread_cpu_ns());
        }
    });
    readings.push(("bench.timer_ns".into(), timer));
    Ok(Battery { readings, sanitizer_violations, sampler_windows })
}

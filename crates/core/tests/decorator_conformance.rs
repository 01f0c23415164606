//! Decorator hot-path conformance.
//!
//! Every decorator is a `gpumem_core::traits::Layer`, and the one blanket
//! impl forwards what a layer does not write: `grow` always, and
//! `free_warp_all` unless the layer overrides it. So no wrapper can fall
//! back to a `DeviceAllocator` default it forgot to override, and the
//! `grow` assertions below, with `Cached`'s `free_warp_all`, hold by
//! construction.
//!
//! The types cannot prove the hand-written code: each layer's four hot
//! entry points and the `free_warp_all` overrides of `Traced` and
//! `Sanitized`. A `malloc_warp` that loops `self.malloc` per lane compiles,
//! yet drops the inner manager's warp coalescing and instruments each lane
//! twice. The probe here overrides every default method with a reach flag,
//! and its warp overrides never call `self.malloc`, so a degraded warp path
//! trips the per-thread flags instead.
//!
//! Two audited, intentional deviations, asserted as such below:
//!
//! * `Sanitized::free_warp` re-implements the lane loop so every lane
//!   passes shadow-state checks; the inner allocator still sees each real
//!   free through `free`, never a bypassed pointer.
//! * `Cached` intercepts thread-level `malloc`/`free` (that is its job);
//!   its misses, evictions, and warp batches must land on the inner
//!   overrides.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use gpumem_core::{
    AllocError, Cached, DeviceAllocator, DeviceHeap, DevicePtr, ManagerInfo, Metrics,
    RegisterFootprint, Sanitized, ThreadCtx, TraceRecorder, Traced, WarpCtx,
};

/// Which of the probe's method bodies actually ran.
#[derive(Default)]
struct Reached {
    malloc: AtomicBool,
    free: AtomicBool,
    malloc_warp: AtomicBool,
    free_warp: AtomicBool,
    free_warp_all: AtomicBool,
    grow: AtomicBool,
}

impl Reached {
    fn hit(flag: &AtomicBool) {
        flag.store(true, Ordering::Relaxed);
    }
    fn got(flag: &AtomicBool) -> bool {
        flag.swap(false, Ordering::Relaxed)
    }
}

/// Bump allocator overriding EVERY default method of [`DeviceAllocator`].
/// The warp overrides allocate directly (never via `self.malloc`), so a
/// decorator that degrades to the trait defaults trips the thread-level
/// flags instead of the warp-level ones.
struct Probe {
    heap: Arc<DeviceHeap>,
    top: AtomicU64,
    reached: Arc<Reached>,
    metrics: Metrics,
}

impl Probe {
    fn new() -> (Self, Arc<Reached>) {
        let reached = Arc::new(Reached::default());
        let probe = Probe {
            heap: Arc::new(DeviceHeap::new(1 << 20)),
            top: AtomicU64::new(0),
            reached: reached.clone(),
            metrics: Metrics::enabled(4),
        };
        (probe, reached)
    }

    fn bump(&self, size: u64) -> Result<DevicePtr, AllocError> {
        let sz = size.max(1).next_multiple_of(16);
        let off = self.top.fetch_add(sz, Ordering::Relaxed);
        if off + sz > self.heap.len() {
            return Err(AllocError::OutOfMemory(size));
        }
        Ok(DevicePtr::new(off))
    }
}

impl DeviceAllocator for Probe {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("Probe").supports_free(true).build()
    }
    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }
    fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        Reached::hit(&self.reached.malloc);
        self.bump(size)
    }
    fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
        Reached::hit(&self.reached.free);
        Ok(())
    }
    fn malloc_warp(
        &self,
        _warp: &WarpCtx,
        sizes: &[u64],
        out: &mut [DevicePtr],
    ) -> Result<(), AllocError> {
        Reached::hit(&self.reached.malloc_warp);
        for (&size, slot) in sizes.iter().zip(out.iter_mut()) {
            *slot = self.bump(size)?;
        }
        Ok(())
    }
    fn free_warp(&self, _warp: &WarpCtx, _ptrs: &[DevicePtr]) -> Result<(), AllocError> {
        Reached::hit(&self.reached.free_warp);
        Ok(())
    }
    fn free_warp_all(&self, _warp: &WarpCtx) -> Result<(), AllocError> {
        Reached::hit(&self.reached.free_warp_all);
        Ok(())
    }
    fn register_footprint(&self) -> RegisterFootprint {
        RegisterFootprint { malloc: 4, free: 2 }
    }
    fn grow(&self, _additional: u64) -> Result<(), AllocError> {
        Reached::hit(&self.reached.grow);
        Ok(())
    }
    fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }
}

fn warp() -> WarpCtx {
    WarpCtx { warp: 0, block: 0, sm: 0 }
}

#[test]
fn traced_forwards_every_override() {
    let (probe, reached) = Probe::new();
    let rec = Arc::new(TraceRecorder::new(4, 64));
    let t = Traced::new(probe, rec);
    let w = warp();

    let mut out = [DevicePtr::NULL; 4];
    t.malloc_warp(&w, &[64; 4], &mut out).unwrap();
    assert!(Reached::got(&reached.malloc_warp));
    assert!(!Reached::got(&reached.malloc), "trait-default lane loop leaked through Traced");

    t.free_warp(&w, &out).unwrap();
    assert!(Reached::got(&reached.free_warp));
    assert!(!Reached::got(&reached.free), "trait-default lane loop leaked through Traced");

    t.free_warp_all(&w).unwrap();
    assert!(Reached::got(&reached.free_warp_all));

    t.grow(4096).unwrap();
    assert!(Reached::got(&reached.grow));

    let p = t.malloc(&ThreadCtx::host(), 32).unwrap();
    assert!(Reached::got(&reached.malloc));
    t.free(&ThreadCtx::host(), p).unwrap();
    assert!(Reached::got(&reached.free));
}

#[test]
fn sanitized_forwards_overrides_and_checks_warp_frees_per_lane() {
    let (probe, reached) = Probe::new();
    let s = Sanitized::new(probe);
    let w = warp();

    let mut out = [DevicePtr::NULL; 4];
    s.malloc_warp(&w, &[64; 4], &mut out).unwrap();
    assert!(Reached::got(&reached.malloc_warp));
    assert!(!Reached::got(&reached.malloc));

    // Audited deviation: Sanitized routes warp frees lane-by-lane through
    // its checked `free` path, so the inner allocator sees each real free
    // via `free` — never a batched `free_warp` it could skip checks on.
    s.free_warp(&w, &out).unwrap();
    assert!(Reached::got(&reached.free), "inner must see every real free");
    assert!(
        !Reached::got(&reached.free_warp),
        "Sanitized::free_warp shadow-checks each lane by design"
    );

    s.free_warp_all(&w).unwrap();
    assert!(Reached::got(&reached.free_warp_all));

    s.grow(4096).unwrap();
    assert!(Reached::got(&reached.grow));

    assert!(s.take_report().recorded.is_empty());
}

#[test]
fn cached_forwards_overrides_on_miss_and_bypass() {
    let (probe, reached) = Probe::new();
    let c = Cached::new(probe, 1);
    assert!(c.is_caching());
    let w = warp();

    // Cold magazines: the whole cacheable warp forwards to the inner
    // warp override intact (not lane-by-lane).
    let mut out = [DevicePtr::NULL; 4];
    c.malloc_warp(&w, &[64; 4], &mut out).unwrap();
    assert!(Reached::got(&reached.malloc_warp));
    assert!(!Reached::got(&reached.malloc), "miss must forward the intact warp");

    // Oversize (uncacheable) pointers pass through: one batched inner
    // free_warp, no per-lane inner.free calls.
    let big = c.malloc(&ThreadCtx::host(), 8192).unwrap();
    assert!(Reached::got(&reached.malloc));
    c.free_warp(&w, &[big]).unwrap();
    assert!(Reached::got(&reached.free_warp), "uncached frees publish as one warp batch");
    assert!(!Reached::got(&reached.free));

    c.free_warp_all(&w).unwrap();
    assert!(Reached::got(&reached.free_warp_all));

    c.grow(4096).unwrap();
    assert!(Reached::got(&reached.grow));
}

#[test]
fn stacked_traced_cached_reaches_the_real_allocator() {
    // The registry's production wrap order: Traced<Cached<Probe>>.
    let (probe, reached) = Probe::new();
    let rec = Arc::new(TraceRecorder::new(4, 64));
    let stack = Traced::new(Cached::new(probe, 1), rec);
    let ctx = ThreadCtx::host();

    let p = stack.malloc(&ctx, 64).unwrap(); // cold: miss reaches Probe
    assert!(Reached::got(&reached.malloc));
    stack.free(&ctx, p).unwrap(); // parks in the magazine
    assert!(!Reached::got(&reached.free), "parked free must not reach the inner allocator yet");
    let q = stack.malloc(&ctx, 64).unwrap(); // magazine hit
    assert_eq!(q, p);
    assert!(!Reached::got(&reached.malloc), "magazine hit must bypass the inner allocator");

    stack.free_warp_all(&warp()).unwrap();
    assert!(Reached::got(&reached.free_warp_all), "forwarding must survive two layers");

    stack.free(&ctx, q).unwrap(); // parks again, so the drop has work to do
    assert!(!Reached::got(&reached.free));
    drop(stack); // Cached's drop drains the parked block back to Probe
    assert!(Reached::got(&reached.free), "flush-on-drop returns parked blocks to the inner");
}

/// Cost guard for the magazine hot path: over an inner allocator that does
/// nothing, a hit (one slot `swap`, one class-map store) plus a park (one
/// class-map `swap`, one slot CAS) is three uncontended RMWs. The RMW is
/// measured here, so the bound is a ratio and holds on a slow host; 25 ns
/// cover the two calls, the hint and the stores. A hashed tag probe or a
/// second RMW per magazine operation does not fit.
#[cfg_attr(debug_assertions, ignore = "per-op timing bound: release-only (scripts/check.sh)")]
#[test]
fn magazine_hit_plus_park_costs_three_rmws() {
    use std::time::{Duration, Instant};

    struct Null(DeviceHeap);
    impl DeviceAllocator for Null {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("Null").supports_free(true).build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.0
        }
        fn malloc(&self, ctx: &ThreadCtx, _size: u64) -> Result<DevicePtr, AllocError> {
            Ok(DevicePtr::new(u64::from(ctx.thread_id) * 64))
        }
        fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
            Ok(())
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 0, free: 0 }
        }
    }

    const OPS: u32 = 1_000_000;
    let min_ns_op = |op: &dyn Fn()| {
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..OPS {
                op();
            }
            best = best.min(t.elapsed());
        }
        best.as_nanos() as f64 / f64::from(OPS)
    };
    let counter = AtomicU64::new(0);
    let rmw = min_ns_op(&|| {
        std::hint::black_box(counter.fetch_add(1, Ordering::AcqRel));
    });

    let cached = Cached::new(Null(DeviceHeap::new(1 << 20)), 1);
    let ctx = ThreadCtx::host();
    let p = cached.malloc(&ctx, 64).unwrap(); // the one miss
    cached.free(&ctx, p).unwrap();
    let pair = min_ns_op(&|| {
        let p = std::hint::black_box(cached.malloc(&ctx, 64)).unwrap(); // hit
        let _ = std::hint::black_box(cached.free(&ctx, p)); // park
    });
    assert_eq!(cached.cached_blocks(), 1, "every timed malloc hit, every timed free parked");
    let bound = 3.0 * rmw + 25.0;
    assert!(pair < bound, "hit + park {pair:.1} ns, RMW {rmw:.1} ns: want < {bound:.1}");
}

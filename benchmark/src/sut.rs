//! The system under test, as the benchmark sees it.
//!
//! Every call into the repo's crates is in this file, and so is the
//! `NullAlloc` the layer ladder is built on. When the allocator trait, the
//! builder or the executor are reshaped, this is the one file of the
//! benchmark that has to follow; nothing else names a `gpumem_*` path.
//!
//! The wrappers are `#[inline]` and generic over the kernel closure, so a
//! timed launch compiles to the same code as a direct call.

use std::sync::Arc;
use std::time::Duration;

use gpu_sim::{Device, DeviceSpec};
use gpu_workloads::sizes;
use gpumem_bench::registry::{ManagerKind, ALL_KINDS, DEFAULT_KINDS};
use gpumem_bench::runners;
use gpumem_core::telemetry::{Telemetry, TelemetryConfig, TelemetrySink};
use gpumem_core::trace::{TraceRecorder, Traced};
use gpumem_core::{
    AllocError, Cached, CounterSnapshot, DeviceAllocator, DeviceHeap, DevicePtr, HeapSpec,
    ManagerInfo, Pretouch, RegisterFootprint, Sanitized,
};

pub use gpumem_core::{ThreadCtx, WarpCtx};

/// A device pointer (byte offset into the heap, or null).
pub type Ptr = DevicePtr;
/// The null pointer.
pub const NULL: Ptr = DevicePtr::NULL;
/// Lanes per warp.
pub const WARP: u32 = gpumem_core::WARP_SIZE;
/// SMs of the simulated device; also the shard count of every decorator.
pub const SMS: u32 = DeviceSpec::titan_v().num_sms;
/// Threads per block of the simulated device.
pub const BLOCK: u32 = DeviceSpec::titan_v().default_block_size;

/// A manager kind of the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kind(ManagerKind);

/// The 15 kinds of the paper's default evaluation set.
pub fn default_kinds() -> Vec<Kind> {
    DEFAULT_KINDS.iter().map(|&k| Kind(k)).collect()
}

/// All 16 kinds (adds FDGMalloc).
pub fn all_kinds() -> Vec<Kind> {
    ALL_KINDS.iter().map(|&k| Kind(k)).collect()
}

/// The allocator crates, in the order the per-layer metrics list them.
pub const CRATES: [&str; 8] = [
    "alloc-atomic",
    "alloc-cuda",
    "alloc-xmalloc",
    "alloc-scatter",
    "alloc-fdg",
    "alloc-regeff",
    "alloc-halloc",
    "alloc-ouroboros",
];

impl Kind {
    /// The paper's label of the kind.
    pub fn label(self) -> &'static str {
        self.0.label()
    }

    /// The crate that implements the kind.
    pub fn crate_name(self) -> &'static str {
        use ManagerKind::*;
        match self.0 {
            Atomic => "alloc-atomic",
            CudaAllocator => "alloc-cuda",
            XMalloc => "alloc-xmalloc",
            ScatterAlloc => "alloc-scatter",
            FDGMalloc => "alloc-fdg",
            RegEffC | RegEffCF | RegEffCM | RegEffCFM => "alloc-regeff",
            Halloc => "alloc-halloc",
            OuroSP | OuroSC | OuroVAP | OuroVAC | OuroVLP | OuroVLC => "alloc-ouroboros",
        }
    }

    /// Whether the kind is the monotonic baseline that cannot free.
    pub fn is_atomic(self) -> bool {
        self.0 == ManagerKind::Atomic
    }

    /// Whether the kind is the CUDA-Allocator model, whose list walks are
    /// quadratic in the launch size.
    pub fn is_cuda(self) -> bool {
        self.0 == ManagerKind::CudaAllocator
    }

    /// The first kind of each crate: the panel of the one-kind-per-crate
    /// probes.
    pub fn one_per_crate() -> Vec<Kind> {
        CRATES
            .iter()
            .map(|c| *all_kinds().iter().find(|k| k.crate_name() == *c).expect("crate has a kind"))
            .collect()
    }
}

/// The repo's own heap sizing for `n` allocations of at most `max_size`.
pub fn heap_for(n: u32, max_size: u64) -> u64 {
    runners::heap_for(n, max_size)
}

/// The per-thread size stream of the mixed workloads.
#[inline]
pub fn thread_size(seed: u64, tid: u32, lo: u64, hi: u64) -> u64 {
    sizes::thread_size(seed, tid, lo, hi)
}

/// A RAM heap.
pub type Heap = Arc<DeviceHeap>;

/// Reserves a RAM heap of `bytes`, touching every page when `pretouch`.
pub fn reserve_heap(bytes: u64, pretouch: bool) -> Result<Heap, String> {
    let policy = if pretouch { Pretouch::Full } else { Pretouch::Lazy };
    DeviceHeap::try_new(HeapSpec::ram(bytes).with_pretouch(policy))
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the host allocator's freed memory back to the OS, so that the next
/// [`reserve_heap`] gets fresh pages as a process that sets up once does.
/// glibc keeps freed memory according to thresholds it raises as large
/// blocks are freed; without this a 64 MiB heap was, after some cell orders,
/// carved from kept memory and `setup_s` read 0.16 s instead of 0.9 s.
pub fn release_freed_memory() {
    // SAFETY: `malloc_trim` takes no pointer and may be called at any time.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
}

/// Bytes of `heap`.
pub fn heap_len(heap: &Heap) -> u64 {
    heap.len()
}

/// Touches every page of `heap`.
pub fn commit_heap(heap: &Heap) {
    heap.commit(0, heap.len());
}

/// One relaxed read-modify-write through the heap's bounds-checked atomic
/// view: the access every in-heap metadata operation is made of.
#[inline]
pub fn heap_atomic_touch(heap: &Heap, offset: u64) -> u32 {
    heap.atomic_u32(offset).fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// How a manager is decorated by the builder.
#[derive(Clone, Default)]
pub struct BuildOpts {
    /// `.cached(true)`: magazines in front of the manager.
    pub cached: bool,
    /// `.metrics(true)`: counters on.
    pub metrics: bool,
    /// `.trace_capacity(n)`: `Traced` wrapper with an `n`-event ring per SM.
    pub trace_capacity: Option<usize>,
    /// `.telemetry(&sink)`: register with a sampler's sink.
    pub sink: Option<Sink>,
}

/// A telemetry sink managers register with.
#[derive(Clone, Default)]
pub struct Sink(TelemetrySink);

/// A running 100 Hz telemetry sampler (one extra thread) and its sink.
pub struct Sampler {
    telemetry: Telemetry,
    sink: Sink,
}

impl Sampler {
    /// Starts the sampler over `sink`.
    pub fn start(sink: &Sink) -> Sampler {
        let telemetry = Telemetry::start(TelemetryConfig::new().hz(100.0), sink.0.clone());
        Sampler { telemetry, sink: sink.clone() }
    }

    /// The sink managers register with to be sampled.
    pub fn sink(&self) -> &Sink {
        &self.sink
    }

    /// Cuts a window now and waits for it. The sampler thread is what lets
    /// go of a dropped manager's trace rings; after this call it has.
    pub fn settle(&self) {
        self.telemetry.sample_now();
    }

    /// Stops and joins the sampler; returns the number of windows it cut.
    pub fn stop(self) -> u64 {
        let series = self.telemetry.stop();
        series.samples.len() as u64 + series.evicted
    }
}

/// Events one `Traced` manager records per shard per round: 256 threads of
/// a block, begin and end, malloc launch and free launch.
pub const TRACE_EVENTS_PER_ROUND: usize = 256 * 2 * 2;

/// A built manager behind the registry's type-erased handle.
#[derive(Clone)]
pub struct Handle(Arc<dyn DeviceAllocator>);

/// Builds `kind` over `heap` through the registry's builder.
pub fn build(kind: Kind, heap: &Heap, opts: &BuildOpts) -> Result<Handle, String> {
    let mut b = kind
        .0
        .builder()
        .heap_shared(Arc::clone(heap))
        .sms(SMS)
        .cached(opts.cached)
        .metrics(opts.metrics);
    if let Some(cap) = opts.trace_capacity {
        b = b.trace_capacity(cap);
    }
    if let Some(sink) = &opts.sink {
        b = b.telemetry(&sink.0);
    }
    b.try_build().map(Handle).map_err(|e| e.to_string())
}

/// The counters a manager's metrics handle has accumulated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub malloc_calls: u64,
    pub malloc_failures: u64,
    pub free_failures: u64,
    /// cas_retries + probe_steps + queue_spins + list_hops.
    pub retries: u64,
    pub magazine_hits: u64,
    pub magazine_misses: u64,
    pub magazine_flushes: u64,
}

impl Counts {
    fn of(s: &CounterSnapshot) -> Counts {
        Counts {
            malloc_calls: s.malloc_calls(),
            malloc_failures: s.malloc_failures(),
            free_failures: s.free_failures(),
            retries: s.cas_retries() + s.probe_steps() + s.queue_spins() + s.list_hops(),
            magazine_hits: s.magazine_hits(),
            magazine_misses: s.magazine_misses(),
            magazine_flushes: s.magazine_flushes(),
        }
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            malloc_calls: self.malloc_calls - earlier.malloc_calls,
            malloc_failures: self.malloc_failures - earlier.malloc_failures,
            free_failures: self.free_failures - earlier.free_failures,
            retries: self.retries - earlier.retries,
            magazine_hits: self.magazine_hits - earlier.magazine_hits,
            magazine_misses: self.magazine_misses - earlier.magazine_misses,
            magazine_flushes: self.magazine_flushes - earlier.magazine_flushes,
        }
    }
}

impl Handle {
    #[inline]
    pub fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Option<Ptr> {
        self.0.malloc(ctx, size).ok()
    }

    #[inline]
    pub fn free(&self, ctx: &ThreadCtx, ptr: Ptr) -> bool {
        self.0.free(ctx, ptr).is_ok()
    }

    #[inline]
    pub fn malloc_warp(&self, warp: &WarpCtx, sizes: &[u64], out: &mut [Ptr]) -> bool {
        self.0.malloc_warp(warp, sizes, out).is_ok()
    }

    #[inline]
    pub fn free_warp(&self, warp: &WarpCtx, ptrs: &[Ptr]) -> bool {
        self.0.free_warp(warp, ptrs).is_ok()
    }

    #[inline]
    pub fn free_warp_all(&self, warp: &WarpCtx) -> bool {
        self.0.free_warp_all(warp).is_ok()
    }

    /// Alignment the manager declares for its pointers.
    pub fn alignment(&self) -> u64 {
        self.0.info().alignment
    }

    /// Whether single allocations can be freed.
    pub fn supports_free(&self) -> bool {
        self.0.info().supports_free
    }

    /// Whether the manager frees a warp's allocations wholesale (FDGMalloc).
    pub fn warp_level_only(&self) -> bool {
        self.0.info().warp_level_only
    }

    /// Whether a round has a free launch: single frees, or FDGMalloc's
    /// wholesale one.
    pub fn can_free(&self) -> bool {
        let info = self.0.info();
        info.supports_free || info.warp_level_only
    }

    /// Size of the heap the manager serves from.
    pub fn heap_len(&self) -> u64 {
        self.0.heap().len()
    }

    /// Fills `[ptr, ptr + len)` with `val`.
    #[inline]
    pub fn fill(&self, ptr: Ptr, len: u64, val: u8) {
        self.0.heap().fill(ptr, len, val);
    }

    /// Reads the byte at `ptr + at`.
    #[inline]
    pub fn read_u8(&self, ptr: Ptr, at: u64) -> u8 {
        self.0.heap().read_u8(ptr, at)
    }

    /// The manager's counters (all zero when metrics are off).
    pub fn counts(&self) -> Counts {
        Counts::of(&self.0.metrics().snapshot())
    }

    /// Events the manager's trace ring recorded and dropped, when it has one.
    pub fn trace_events(&self) -> Option<(u64, u64)> {
        self.0.metrics().tracer().map(|rec| (rec.recorded(), rec.dropped()))
    }

    /// Pushes blocks parked in a decorator down to the manager.
    pub fn drain(&self) -> u64 {
        self.0.drain()
    }

    /// The same manager behind the shadow-heap sanitizer (default
    /// configuration: 32 B redzones, poison on free).
    pub fn sanitized(&self) -> SanitizedHandle {
        SanitizedHandle(Arc::new(Sanitized::new(Arc::clone(&self.0))))
    }
}

/// A manager behind `Sanitized`, with the report kept reachable.
pub struct SanitizedHandle(Arc<Sanitized<Arc<dyn DeviceAllocator>>>);

impl SanitizedHandle {
    /// The handle the kernels call.
    pub fn handle(&self) -> Handle {
        Handle(Arc::clone(&self.0) as Arc<dyn DeviceAllocator>)
    }

    /// Violations the sanitizer has counted.
    pub fn violations(&self) -> u64 {
        self.0.violation_count()
    }

    /// One line describing the findings.
    pub fn describe(&self) -> String {
        self.0.report().to_string()
    }
}

/// The simulated device.
pub struct Dev(Device);

impl Dev {
    /// The inline device every gated number is measured on: one worker, the
    /// whole kernel runs on the calling thread.
    pub fn inline() -> Dev {
        Dev(Device::with_workers(DeviceSpec::titan_v(), 1))
    }

    /// A pooled device, for the informational `exec.pooled_*` probes only.
    pub fn pooled(workers: usize) -> Dev {
        Dev(Device::with_workers(DeviceSpec::titan_v(), workers))
    }

    /// Worker threads of the device (1 = inline).
    pub fn workers(&self) -> usize {
        self.0.workers()
    }

    /// Launches `n` threads.
    #[inline]
    pub fn threads<F: Fn(&ThreadCtx) + Sync>(&self, n: u32, kernel: F) {
        self.0.launch(n, kernel);
    }

    /// Launches `n` warps.
    #[inline]
    pub fn warps<F: Fn(&WarpCtx) + Sync>(&self, n: u32, kernel: F) {
        self.0.launch_warps(n, kernel);
    }

    /// Launches `n` threads and returns the executor's own dispatch time.
    pub fn threads_dispatch<F: Fn(&ThreadCtx) + Sync>(&self, n: u32, kernel: F) -> Duration {
        self.0.launch_with_stats(n, kernel).1.dispatch
    }
}

/// The allocator the layer ladder stands on: every thread gets the same
/// offset every time (`thread_id × NULL_STRIDE`), nothing is shared and
/// nothing is written, so whatever a rung costs above the empty kernel is
/// the layer and not an algorithm.
pub struct NullAlloc {
    heap: Heap,
}

/// Bytes between two threads' blocks of [`NullAlloc`].
pub const NULL_STRIDE: u64 = 64;

impl NullAlloc {
    /// A `NullAlloc` for up to `threads` threads.
    pub fn new(threads: u32) -> Result<NullAlloc, String> {
        let bytes = (u64::from(threads) * NULL_STRIDE).max(1 << 20);
        Ok(NullAlloc { heap: reserve_heap(bytes, true)? })
    }
}

impl DeviceAllocator for NullAlloc {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("Null").build()
    }
    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }
    #[inline]
    fn malloc(&self, ctx: &ThreadCtx, _size: u64) -> Result<DevicePtr, AllocError> {
        Ok(DevicePtr::new(u64::from(ctx.thread_id) * NULL_STRIDE))
    }
    #[inline]
    fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), AllocError> {
        Ok(())
    }
    fn register_footprint(&self) -> RegisterFootprint {
        RegisterFootprint { malloc: 0, free: 0 }
    }
}

/// The rungs of the ladder over [`NullAlloc`].
pub enum Rung {
    /// Behind `Arc<dyn DeviceAllocator>`, as the registry hands managers out.
    Dyn,
    /// `Cached` magazines in front.
    Cached,
}

impl NullAlloc {
    /// This allocator called by type: `malloc` then `free`, both inlined
    /// into the kernel.
    #[inline]
    pub fn malloc_direct(&self, ctx: &ThreadCtx, size: u64) -> Ptr {
        DeviceAllocator::malloc(self, ctx, size).unwrap_or(NULL)
    }

    /// See [`NullAlloc::malloc_direct`].
    #[inline]
    pub fn free_direct(&self, ctx: &ThreadCtx, ptr: Ptr) -> bool {
        DeviceAllocator::free(self, ctx, ptr).is_ok()
    }

    /// Wraps the allocator for one rung, type-erased like every registry
    /// handle.
    pub fn rung(self, rung: Rung) -> Handle {
        match rung {
            Rung::Dyn => Handle(Arc::new(self)),
            Rung::Cached => Handle(Arc::new(Cached::new(self, SMS))),
        }
    }

    /// The `Traced` rung, with a ring of `capacity` events per SM; the ring
    /// comes back too so the probe can read its counts.
    pub fn traced_rung(self, capacity: usize) -> (Handle, TraceRing) {
        let rec = Arc::new(TraceRecorder::new(SMS, capacity));
        (Handle(Arc::new(Traced::new(self, Arc::clone(&rec)))), TraceRing(rec))
    }
}

/// A trace ring's counts.
pub struct TraceRing(Arc<TraceRecorder>);

impl TraceRing {
    /// Events recorded and events dropped because a shard was full.
    pub fn events(&self) -> (u64, u64) {
        (self.0.recorded(), self.0.dropped())
    }
}

//! The manager registry — "switch between them for benchmarking purposes".
//!
//! Mirrors the artifact's selection syntax: each approach is picked by the
//! first letter of its name and chained with `+` (`-t o+s+h+c+r+x`,
//! Appendix A.6) — see [`ManagerKind::parse_selector`]. Every kind
//! constructs through one [`ManagerBuilder`], so any test case can run
//! against any manager, with or without the contention-observability layer
//! attached.

use std::fmt;
use std::sync::Arc;

use alloc_atomic::AtomicAlloc;
use alloc_cuda::CudaAllocModel;
use alloc_fdg::FdgMalloc;
use alloc_halloc::Halloc;
use alloc_ouroboros::{OuroSC, OuroSP, OuroVAC, OuroVAP, OuroVLC, OuroVLP};
use alloc_regeff::{RegEffC, RegEffCF, RegEffCFM, RegEffCM};
use alloc_scatter::ScatterAlloc;
use alloc_xmalloc::XMalloc;
use gpumem_core::metrics::Counted;
use gpumem_core::telemetry::TelemetrySink;
use gpumem_core::trace::{TraceRecorder, Traced, DEFAULT_EVENTS_PER_SM};
use gpumem_core::{Cached, DeviceAllocator, DeviceHeap, HeapError, HeapSpec, Metrics};

/// Every manager variant the framework can instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ManagerKind {
    Atomic,
    CudaAllocator,
    XMalloc,
    ScatterAlloc,
    FDGMalloc,
    RegEffC,
    RegEffCF,
    RegEffCM,
    RegEffCFM,
    Halloc,
    OuroSP,
    OuroSC,
    OuroVAP,
    OuroVAC,
    OuroVLP,
    OuroVLC,
}

use ManagerKind::*;

/// All kinds, in the paper's Figure 8 plot order.
pub const ALL_KINDS: [ManagerKind; 16] = [
    OuroSP,
    OuroSC,
    OuroVAP,
    OuroVAC,
    OuroVLP,
    OuroVLC,
    ScatterAlloc,
    Halloc,
    CudaAllocator,
    XMalloc,
    RegEffC,
    RegEffCF,
    RegEffCM,
    RegEffCFM,
    FDGMalloc,
    Atomic,
];

/// The default evaluation set: the paper's `-t o+s+h+c+r+x` plus the Atomic
/// baseline (FDGMalloc is opt-in, as in the paper's final evaluation).
pub const DEFAULT_KINDS: [ManagerKind; 15] = [
    OuroSP,
    OuroSC,
    OuroVAP,
    OuroVAC,
    OuroVLP,
    OuroVLC,
    ScatterAlloc,
    Halloc,
    CudaAllocator,
    XMalloc,
    RegEffC,
    RegEffCF,
    RegEffCM,
    RegEffCFM,
    Atomic,
];

impl ManagerKind {
    /// Label used in CSVs and reports (matches the paper's naming).
    pub fn label(&self) -> &'static str {
        match self {
            Atomic => "Atomic",
            CudaAllocator => "CUDA-Allocator",
            XMalloc => "XMalloc",
            ScatterAlloc => "ScatterAlloc",
            FDGMalloc => "FDGMalloc",
            RegEffC => "Reg-Eff-C",
            RegEffCF => "Reg-Eff-CF",
            RegEffCM => "Reg-Eff-CM",
            RegEffCFM => "Reg-Eff-CFM",
            Halloc => "Halloc",
            OuroSP => "Ouro-S-P",
            OuroSC => "Ouro-S-C",
            OuroVAP => "Ouro-VA-P",
            OuroVAC => "Ouro-VA-C",
            OuroVLP => "Ouro-VL-P",
            OuroVLC => "Ouro-VL-C",
        }
    }

    /// Starts a [`ManagerBuilder`] for this kind. This is the *single*
    /// construction path of the framework (the former `create`/`create_on`
    /// shims are gone); defaults are a fresh, fully committed 64 MiB heap,
    /// 80 SMs, and metrics disabled.
    pub fn builder(self) -> ManagerBuilder {
        ManagerBuilder {
            kind: self,
            heap: HeapSource::Fresh(HeapSpec::ram(DEFAULT_HEAP_BYTES)),
            sms: DEFAULT_SMS,
            metrics: false,
            trace: None,
            cached: false,
            sink: None,
        }
    }

    /// Parses the artifact's selector syntax: letters chained with `+`
    /// (`o` Ouroboros, `s` ScatterAlloc, `h` Halloc, `c` CUDA-Allocator,
    /// `r` Reg-Eff, `x` XMalloc, `f` FDGMalloc, `a` Atomic baseline),
    /// case-insensitive; `o` expands to all six Ouroboros variants and `r`
    /// to all four Reg-Eff variants. A selector names managers only: the
    /// magazine cache is `--cached`, so an `@` suffix is an error that says
    /// so.
    pub fn parse_selector(s: &str) -> Result<Vec<ManagerKind>, String> {
        if s.contains('@') {
            return Err(format!(
                "selector {s:?} takes no `@` suffix: it names managers only; \
                 pick the magazine cache with --cached"
            ));
        }
        if s.trim().is_empty() {
            return Err("empty approach selector".to_string());
        }
        let mut kinds = Vec::new();
        for part in s.split('+') {
            match part.trim().to_ascii_lowercase().as_str() {
                "o" => kinds.extend([OuroSP, OuroSC, OuroVAP, OuroVAC, OuroVLP, OuroVLC]),
                "s" => kinds.push(ScatterAlloc),
                "h" => kinds.push(Halloc),
                "c" => kinds.push(CudaAllocator),
                "r" => kinds.extend([RegEffC, RegEffCF, RegEffCM, RegEffCFM]),
                "x" => kinds.push(XMalloc),
                "f" => kinds.push(FDGMalloc),
                "a" => kinds.push(Atomic),
                other => return Err(format!("unknown approach selector: {other:?}")),
            }
        }
        Ok(kinds)
    }
}

impl fmt::Display for ManagerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Default heap size for [`ManagerBuilder`]-constructed managers.
pub const DEFAULT_HEAP_BYTES: u64 = 64 << 20;

/// Default SM count for [`ManagerBuilder`]-constructed managers (TITAN V).
pub const DEFAULT_SMS: u32 = 80;

/// Where a builder gets its heap from.
enum HeapSource {
    /// Construct a fresh heap from this spec at `build()`.
    Fresh(HeapSpec),
    /// Reuse an existing heap (e.g. to isolate manager-init cost).
    Shared(Arc<DeviceHeap>),
}

/// Builder-style construction for any manager kind:
///
/// ```
/// use gpumem_bench::registry::ManagerKind;
/// use gpumem_core::DeviceAllocator;
///
/// let alloc = ManagerKind::ScatterAlloc
///     .builder()
///     .heap(128 << 20)
///     .sms(80)
///     .metrics(true)
///     .build();
/// assert!(alloc.metrics().is_enabled());
/// ```
///
/// `metrics(true)` attaches a sharded [`Metrics`] handle (one shard per SM)
/// to the manager, which shares it with any embedded CUDA-allocator model,
/// so hot loops record contention counters and the [`Counted`] layer every
/// stack starts with counts the calls. With `metrics(false)` (the default)
/// the handle is disabled and every recording call is a no-op on a `None`
/// branch.
///
/// `trace(true)` additionally wraps the manager in the event-tracing layer
/// (`gpumem_core::trace`): a per-SM ring [`TraceRecorder`] is attached to
/// the metrics handle and a [`Traced`] wrapper records one event with
/// latency and retry payloads for every entry-point call. Tracing implies
/// metrics. Retrieve the recorder afterwards with
/// `alloc.metrics().tracer()`.
pub struct ManagerBuilder {
    kind: ManagerKind,
    heap: HeapSource,
    sms: u32,
    metrics: bool,
    /// Ring capacity per SM shard when tracing; `None` = no tracing.
    trace: Option<usize>,
    /// Wrap the manager in the [`Cached`] magazine decorator.
    cached: bool,
    /// Explicit telemetry sink to register the metrics handle with.
    sink: Option<TelemetrySink>,
}

impl ManagerBuilder {
    /// Sizes the fresh heap the manager is built over (default 64 MiB),
    /// keeping any pre-touch choice made so far.
    pub fn heap(mut self, bytes: u64) -> Self {
        self.heap = match self.heap {
            HeapSource::Fresh(spec) => HeapSource::Fresh(HeapSpec { len: bytes, ..spec }),
            HeapSource::Shared(_) => HeapSource::Fresh(HeapSpec::ram(bytes)),
        };
        self
    }

    /// Replaces the whole fresh-heap spec: size and pre-touch policy in one
    /// call (the construction currency `Bench` hands around).
    pub fn heap_spec(mut self, spec: HeapSpec) -> Self {
        self.heap = HeapSource::Fresh(spec);
        self
    }

    /// Builds the manager over an existing heap instead of a fresh one.
    pub fn heap_shared(mut self, heap: Arc<DeviceHeap>) -> Self {
        self.heap = HeapSource::Shared(heap);
        self
    }

    /// Number of SMs the manager scatters over (default 80); also the shard
    /// count of the metrics handle.
    pub fn sms(mut self, num_sms: u32) -> Self {
        self.sms = num_sms;
        self
    }

    /// Enables or disables the contention-observability layer.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Enables or disables the event-tracing layer with the default ring
    /// capacity ([`DEFAULT_EVENTS_PER_SM`] events per SM shard). Tracing
    /// implies metrics.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled.then_some(DEFAULT_EVENTS_PER_SM);
        self
    }

    /// Enables tracing with an explicit per-SM ring capacity.
    pub fn trace_capacity(mut self, events_per_sm: usize) -> Self {
        self.trace = Some(events_per_sm);
        self
    }

    /// Wraps the manager in the [`Cached`] decorator: per-SM size-class
    /// magazines of recently freed blocks serve repeat allocations without
    /// touching the manager's shared metadata, and a warp's uncacheable
    /// frees are batched into one inner publication. For managers without
    /// general free support (warp-level-only FDGMalloc, the monotonic
    /// Atomic baseline) the wrapper is a transparent pass-through. When
    /// tracing is also enabled the wrap order is `Traced<Cached<A>>`, so
    /// latency records measure the cached hot path.
    pub fn cached(mut self, enabled: bool) -> Self {
        self.cached = enabled;
        self
    }

    /// Registers the built manager's counter block with a telemetry sink so
    /// the live sampler ([`gpumem_core::telemetry`]) can window its
    /// counters. Implies metrics; tracing stays as chosen. The benchmark's
    /// `observed` workload builds its managers this way.
    pub fn telemetry(mut self, sink: &TelemetrySink) -> Self {
        self.sink = Some(sink.clone());
        self
    }

    /// Constructs the manager, panicking on heap-construction failure.
    ///
    /// Thin wrapper over [`ManagerBuilder::try_build`] for tests and call
    /// sites that treat a failed reservation as fatal.
    pub fn build(self) -> Arc<dyn DeviceAllocator> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Constructs the manager, surfacing heap-construction failure (bad
    /// spec, failed reservation or commit) as a typed
    /// [`HeapError`] instead of aborting.
    pub fn try_build(self) -> Result<Arc<dyn DeviceAllocator>, HeapError> {
        let heap = match self.heap {
            HeapSource::Fresh(spec) => Arc::new(DeviceHeap::try_new(spec)?),
            HeapSource::Shared(heap) => heap,
        };
        let (metrics, tracer) = match self.trace {
            Some(events_per_sm) => {
                let rec = Arc::new(TraceRecorder::new(self.sms, events_per_sm));
                (Metrics::enabled(self.sms).with_tracer(Arc::clone(&rec)), Some(rec))
            }
            None if self.metrics || self.sink.is_some() => (Metrics::enabled(self.sms), None),
            None => (Metrics::disabled(), None),
        };
        if let Some(sink) = &self.sink {
            sink.attach(&metrics);
        }
        let stack = Stack { sms: self.sms, cached: self.cached, tracer };
        Ok(construct(self.kind, heap, metrics, stack))
    }
}

/// The decorators a built manager wears, outermost first: [`Traced`] when
/// there is a recorder, then [`Cached`].
struct Stack {
    sms: u32,
    cached: bool,
    tracer: Option<Arc<TraceRecorder>>,
}

/// Wraps the concrete manager `m` in its decorators — `Counted<M>`,
/// `Cached<Counted<M>>`, `Traced<Counted<M>>` or
/// `Traced<Cached<Counted<M>>>` — and erases the whole stack once: each
/// layer calls the next directly, and only the caller's call crosses the
/// `dyn` boundary. [`Counted`] is innermost, so every manager's calls are
/// counted by one rule, and a magazine hit never reaches it.
fn finish<M: DeviceAllocator + 'static>(m: M, stack: Stack) -> Arc<dyn DeviceAllocator> {
    let m = Counted::new(m);
    match (stack.tracer, stack.cached) {
        (None, false) => Arc::new(m),
        (None, true) => Arc::new(Cached::new(m, stack.sms)),
        (Some(rec), false) => Arc::new(Traced::new(m, rec)),
        (Some(rec), true) => Arc::new(Traced::new(Cached::new(m, stack.sms), rec)),
    }
}

/// The single construction match: every public path funnels through here.
fn construct(
    kind: ManagerKind,
    heap: Arc<DeviceHeap>,
    metrics: Metrics,
    stack: Stack,
) -> Arc<dyn DeviceAllocator> {
    let (m, sms) = (metrics, stack.sms);
    match kind {
        Atomic => finish(AtomicAlloc::new(heap).with_metrics(m), stack),
        CudaAllocator => finish(CudaAllocModel::new(heap).with_metrics(m), stack),
        XMalloc => finish(XMalloc::new(heap).with_metrics(m), stack),
        ScatterAlloc => finish(ScatterAlloc::new(heap).with_metrics(m), stack),
        FDGMalloc => finish(FdgMalloc::new(heap).with_metrics(m), stack),
        RegEffC => finish(RegEffC::new(heap, sms).with_metrics(m), stack),
        RegEffCF => finish(RegEffCF::new(heap, sms).with_metrics(m), stack),
        RegEffCM => finish(RegEffCM::new(heap, sms).with_metrics(m), stack),
        RegEffCFM => finish(RegEffCFM::new(heap, sms).with_metrics(m), stack),
        Halloc => finish(Halloc::new(heap).with_metrics(m), stack),
        OuroSP => finish(OuroSP::new(heap).with_metrics(m), stack),
        OuroSC => finish(OuroSC::new(heap).with_metrics(m), stack),
        OuroVAP => finish(OuroVAP::new(heap).with_metrics(m), stack),
        OuroVAC => finish(OuroVAC::new(heap).with_metrics(m), stack),
        OuroVLP => finish(OuroVLP::new(heap).with_metrics(m), stack),
        OuroVLC => finish(OuroVLC::new(heap).with_metrics(m), stack),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_core::{Pretouch, ThreadCtx};

    const HEAP: u64 = 16 << 20;

    #[test]
    fn every_kind_constructs_and_allocates() {
        for kind in ALL_KINDS {
            let a = kind.builder().heap(HEAP).sms(80).build();
            assert_eq!(a.info().label(), kind.label().replace("Ouro-", "Ouroboros-"));
            let p = a.malloc(&ThreadCtx::host(), 64).unwrap();
            assert!(p.offset() + 64 <= HEAP, "{}", kind.label());
        }
    }

    #[test]
    fn builder_defaults_leave_metrics_disabled() {
        for kind in ALL_KINDS {
            let a = kind.builder().heap(HEAP).build();
            assert!(!a.metrics().is_enabled(), "{kind}");
            let b = kind.builder().heap(HEAP).metrics(true).build();
            assert!(b.metrics().is_enabled(), "{kind}");
        }
    }

    #[test]
    fn builder_shared_heap_reuses_backing_store() {
        let heap = Arc::new(DeviceHeap::new(HEAP));
        let a = ScatterAlloc.builder().heap_shared(Arc::clone(&heap)).build();
        // The builder must not allocate a second heap: three Arcs exist —
        // ours, the allocator's, and ScatterAlloc's internal page directory
        // does not clone the Arc again here, so strong_count >= 2.
        assert!(Arc::strong_count(&heap) >= 2);
        a.malloc(&ThreadCtx::host(), 64).unwrap();
    }

    #[test]
    fn builder_heap_spec_threads_through() {
        // heap() after heap_spec() keeps the chosen policy.
        let spec = HeapSpec::ram(4096).with_pretouch(Pretouch::Lazy);
        let a = Atomic.builder().heap_spec(spec).heap(HEAP).build();
        assert_eq!(a.heap().len(), HEAP);
        a.malloc(&ThreadCtx::host(), 64).unwrap();
    }

    #[test]
    fn try_build_surfaces_heap_errors() {
        let err = match Atomic.builder().heap(100).try_build() {
            Err(e) => e,
            Ok(_) => panic!("len 100 must be rejected"),
        };
        assert!(matches!(err, HeapError::InvalidLen { .. }), "{err}");
        assert!(err.to_string().contains("multiple of 128"));
    }

    #[test]
    fn selector_parses_paper_syntax() {
        let kinds = ManagerKind::parse_selector("o+s+h+c+r+x").unwrap();
        assert_eq!(kinds.len(), 6 + 1 + 1 + 1 + 4 + 1);
        assert!(kinds.contains(&OuroVLC));
        assert!(kinds.contains(&RegEffCFM));
        assert!(!kinds.contains(&FDGMalloc));
        assert!(ManagerKind::parse_selector("q").is_err());
        assert_eq!(ManagerKind::parse_selector("f+a").unwrap(), vec![FDGMalloc, Atomic]);
    }

    #[test]
    fn selector_refuses_suffixes() {
        for s in ["s@mmap", "s@cached"] {
            let e = ManagerKind::parse_selector(s).unwrap_err();
            assert!(e.contains("managers only") && e.contains("--cached"), "{e}");
        }
        for s in ["o+s@ram", "s@mmap+cached", "@mmap", "f@numa"] {
            assert!(ManagerKind::parse_selector(s).is_err(), "{s}");
        }
    }

    #[test]
    fn selector_rejects_bad_input() {
        for s in ["", "  ", "o+q", "os", "o++s", "o+s@disk"] {
            assert!(ManagerKind::parse_selector(s).is_err(), "{s:?}");
        }
        // Case-insensitive and whitespace-tolerant on valid letters.
        assert_eq!(ManagerKind::parse_selector(" A + S ").unwrap(), vec![Atomic, ScatterAlloc]);
    }

    #[test]
    fn kind_display_matches_label() {
        for kind in ALL_KINDS {
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = ALL_KINDS.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ALL_KINDS.len());
    }

    #[test]
    fn builder_trace_attaches_recorder_and_records() {
        use gpumem_core::trace::EventKind;
        let a = ScatterAlloc.builder().heap(HEAP).trace(true).build();
        let m = a.metrics();
        assert!(m.is_enabled(), "tracing implies metrics");
        let rec = Arc::clone(m.tracer().expect("tracer attached"));
        assert_eq!(rec.recorded(), 0);
        let p = a.malloc(&ThreadCtx::host(), 64).unwrap();
        a.free(&ThreadCtx::host(), p).unwrap();
        let t = rec.snapshot();
        assert_eq!(t.count(EventKind::MallocEnd), 1);
        assert_eq!(t.count(EventKind::FreeEnd), 1);
        assert_eq!(rec.recorded(), 2, "one event per operation");
        assert_eq!(
            t.events.iter().find(|e| e.kind == EventKind::MallocEnd).unwrap().args[0],
            p.raw()
        );
    }

    #[test]
    fn builder_without_trace_has_no_recorder() {
        for kind in [ScatterAlloc, Atomic] {
            let a = kind.builder().heap(HEAP).build();
            assert!(a.metrics().tracer().is_none(), "{kind}");
            let b = kind.builder().heap(HEAP).metrics(true).build();
            assert!(b.metrics().tracer().is_none(), "{kind}");
        }
    }

    #[test]
    fn builder_telemetry_attaches_counters_without_a_ring() {
        let sink = TelemetrySink::new();
        let a = ScatterAlloc.builder().heap(HEAP).telemetry(&sink).build();
        assert!(a.metrics().is_enabled(), "telemetry implies metrics");
        assert!(a.metrics().tracer().is_none(), "telemetry forces no trace ring");
        assert_eq!(sink.len(), 1, "the counter block is attached");
    }

    #[test]
    fn builder_cached_wraps_every_kind() {
        for kind in ALL_KINDS {
            let a = kind.builder().heap(HEAP).cached(true).build();
            // info() forwards through the decorator unchanged.
            assert_eq!(a.info().label(), kind.label().replace("Ouro-", "Ouroboros-"), "{kind}");
            let ctx = ThreadCtx::host();
            let p = a.malloc(&ctx, 64).unwrap();
            if a.info().supports_free {
                a.free(&ctx, p).unwrap();
                let q = a.malloc(&ctx, 64).unwrap();
                assert_eq!(q, p, "{kind}: repeat allocation must hit the magazine");
            }
        }
    }

    #[test]
    fn builder_cached_with_trace_records_hot_path() {
        use gpumem_core::trace::EventKind;
        let a = ScatterAlloc.builder().heap(HEAP).cached(true).trace(true).build();
        let ctx = ThreadCtx::host();
        let p = a.malloc(&ctx, 64).unwrap();
        a.free(&ctx, p).unwrap();
        let _ = a.malloc(&ctx, 64).unwrap();
        let m = a.metrics();
        assert_eq!(m.snapshot().magazine_hits(), 1);
        let t = m.tracer().expect("tracer attached").snapshot();
        assert_eq!(t.count(EventKind::CacheHit), 1, "hit event lands in the shared trace");
        assert_eq!(t.count(EventKind::MallocEnd), 2, "Traced wraps outside Cached");
    }

    /// Every kind in all four stacks: `metrics()` reaches the recorder
    /// `Traced` writes to, `drain()` reaches the magazines through
    /// `Traced`, `info()` is the manager's, and under both decorators a
    /// magazine hit is one `CacheHit` and one `MallocEnd`.
    #[test]
    fn every_stack_reaches_each_of_its_layers() {
        use gpumem_core::trace::EventKind;
        let ctx = ThreadCtx::host();
        for kind in ALL_KINDS {
            for (trace, cached) in [(false, false), (false, true), (true, false), (true, true)] {
                let a = kind.builder().heap(HEAP).trace(trace).cached(cached).build();
                let stack = format!("{kind} trace={trace} cached={cached}");
                let info = a.info();
                assert_eq!(info.label(), kind.label().replace("Ouro-", "Ouroboros-"), "{stack}");
                let rec = a.metrics().tracer().cloned();
                assert_eq!(rec.is_some(), trace, "{stack}");
                let caching = cached && info.supports_free && !info.warp_level_only;
                let p = a.malloc(&ctx, 64).unwrap();
                if info.supports_free {
                    a.free(&ctx, p).unwrap();
                }
                if let Some(rec) = &rec {
                    let t = rec.snapshot();
                    assert_eq!(t.count(EventKind::MallocEnd), 1, "{stack}");
                    assert_eq!(t.count(EventKind::FreeEnd), info.supports_free as usize, "{stack}");
                    if caching {
                        assert_eq!(a.malloc(&ctx, 64).unwrap(), p, "{stack}: a magazine hit");
                        let hit = rec.snapshot();
                        assert_eq!(hit.count(EventKind::CacheHit), 1, "{stack}");
                        assert_eq!(hit.count(EventKind::MallocEnd), 2, "{stack}");
                        a.free(&ctx, p).unwrap();
                    }
                }
                assert_eq!(a.drain(), caching as u64, "{stack}: parked blocks drained");
                assert_eq!(a.drain(), 0, "{stack}");
            }
        }
    }

    #[test]
    fn default_set_excludes_fdg() {
        assert!(!DEFAULT_KINDS.contains(&FDGMalloc));
        assert_eq!(DEFAULT_KINDS.len(), 15);
    }
}

//! The manager registry — "switch between them for benchmarking purposes".
//!
//! Mirrors the artifact's selection syntax: each approach is picked by the
//! first letter of its name and chained with `+` (`-t o+s+h+c+r+x`,
//! Appendix A.6) — see [`ManagerSelection`]. Every kind constructs through
//! one [`ManagerBuilder`], so any test case can run against any manager,
//! with or without the contention-observability layer attached.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use alloc_atomic::AtomicAlloc;
use alloc_cuda::CudaAllocModel;
use alloc_fdg::FdgMalloc;
use alloc_halloc::Halloc;
use alloc_ouroboros::{OuroSC, OuroSP, OuroVAC, OuroVAP, OuroVLC, OuroVLP};
use alloc_regeff::{RegEffC, RegEffCF, RegEffCFM, RegEffCM};
use alloc_scatter::ScatterAlloc;
use alloc_xmalloc::XMalloc;
use gpumem_core::telemetry::{self, TelemetrySink};
use gpumem_core::trace::{TraceRecorder, Traced, DEFAULT_EVENTS_PER_SM};
use gpumem_core::{
    Cached, DeviceAllocator, DeviceHeap, HeapBackendKind, HeapError, HeapSpec, Metrics, Pretouch,
};

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

    /// Plot colour (hex), following the consistent colour scheme of
    /// Figure 8 (Ouroboros greens, ScatterAlloc blue, Halloc amber,
    /// CUDA-Allocator grey, XMalloc violet, Reg-Eff reds).
    pub fn color(&self) -> &'static str {
        match self {
            OuroSP => "#1b7837",
            OuroSC => "#5aae61",
            OuroVAP => "#a6dba0",
            OuroVAC => "#00441b",
            OuroVLP => "#238b45",
            OuroVLC => "#74c476",
            ScatterAlloc => "#2166ac",
            Halloc => "#e08214",
            CudaAllocator => "#7f7f7f",
            XMalloc => "#762a83",
            RegEffC => "#b2182b",
            RegEffCF => "#d6604d",
            RegEffCM => "#f4a582",
            RegEffCFM => "#fddbc7",
            FDGMalloc => "#c51b7d",
            Atomic => "#000000",
        }
    }

    /// Whether this kind frees through `free_warp_all` (FDGMalloc).
    pub fn warp_level_only(&self) -> bool {
        matches!(self, FDGMalloc)
    }

    /// The Appendix A.6 selector letter this kind answers to.
    pub fn selector_letter(&self) -> char {
        match self {
            OuroSP | OuroSC | OuroVAP | OuroVAC | OuroVLP | OuroVLC => 'o',
            ScatterAlloc => 's',
            Halloc => 'h',
            CudaAllocator => 'c',
            RegEffC | RegEffCF | RegEffCM | RegEffCFM => 'r',
            XMalloc => 'x',
            FDGMalloc => 'f',
            Atomic => 'a',
        }
    }

    /// Starts a [`ManagerBuilder`] for this kind. This is the *single*
    /// construction path of the framework (the former `create`/`create_on`
    /// shims are gone); defaults are a fresh 64 MiB heap on the
    /// environment-default backend (`GMS_HEAP_BACKEND`, RAM otherwise),
    /// 80 SMs, and metrics disabled.
    pub fn builder(self) -> ManagerBuilder {
        ManagerBuilder {
            kind: self,
            heap: HeapSource::Fresh(HeapSpec::new(DEFAULT_HEAP_BYTES)),
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
    /// optionally suffixed with a heap backend (`o+s@mmap`).
    pub fn parse_selector(s: &str) -> Result<Vec<ManagerKind>, String> {
        s.parse::<ManagerSelection>().map(|sel| sel.kinds)
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
/// to the manager — and, for managers that relay oversized requests to an
/// embedded CUDA-allocator model, a relay handle to that model too — so hot
/// loops record contention counters. With `metrics(false)` (the default) the
/// handle is disabled and every recording call is a no-op on a `None` branch.
///
/// `trace(true)` additionally wraps the manager in the event-tracing layer
/// (`gpumem_core::trace`): a per-SM ring [`TraceRecorder`] is attached to
/// the metrics handle and a [`Traced`] wrapper records begin/end events with
/// latency and retry payloads around every entry point. Tracing implies
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
    /// keeping any backend/pre-touch choice made so far.
    pub fn heap(mut self, bytes: u64) -> Self {
        self.heap = match self.heap {
            HeapSource::Fresh(spec) => HeapSource::Fresh(HeapSpec { len: bytes, ..spec }),
            HeapSource::Shared(_) => HeapSource::Fresh(HeapSpec::new(bytes)),
        };
        self
    }

    /// Replaces the whole fresh-heap spec: size, backend and pre-touch
    /// policy in one call (the construction currency `Bench` hands around).
    pub fn heap_spec(mut self, spec: HeapSpec) -> Self {
        self.heap = HeapSource::Fresh(spec);
        self
    }

    /// Selects the backing store of the fresh heap (`ram`, `mmap`).
    pub fn heap_backend(mut self, backend: HeapBackendKind) -> Self {
        self.heap = match self.heap {
            HeapSource::Fresh(spec) => HeapSource::Fresh(spec.with_backend(backend)),
            HeapSource::Shared(_) => {
                HeapSource::Fresh(HeapSpec::new(DEFAULT_HEAP_BYTES).with_backend(backend))
            }
        };
        self
    }

    /// Selects the page-commit policy of the fresh heap.
    pub fn pretouch(mut self, pretouch: Pretouch) -> Self {
        self.heap = match self.heap {
            HeapSource::Fresh(spec) => HeapSource::Fresh(spec.with_pretouch(pretouch)),
            HeapSource::Shared(_) => {
                HeapSource::Fresh(HeapSpec::new(DEFAULT_HEAP_BYTES).with_pretouch(pretouch))
            }
        };
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

    /// Registers the built manager with a telemetry sink so the live
    /// sampler ([`gpumem_core::telemetry`]) can snapshot its counters and
    /// drain its trace ring. Implies metrics and (if not already chosen) a
    /// modest trace ring sized for sampling rather than post-mortem replay.
    ///
    /// Call sites that cannot reach the builder (matrix scenario bodies
    /// construct managers internally) get the same effect from the
    /// process-global sink: `repro watch` installs one via
    /// [`gpumem_core::telemetry::install_global_sink`], and `try_build`
    /// consults it when no explicit sink was given.
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
    /// spec, failed mmap reservation, unavailable backend) as a typed
    /// [`HeapError`] instead of aborting.
    pub fn try_build(self) -> Result<Arc<dyn DeviceAllocator>, HeapError> {
        let heap = match self.heap {
            HeapSource::Fresh(spec) => Arc::new(DeviceHeap::try_new(spec)?),
            HeapSource::Shared(heap) => heap,
        };
        let wrap_cached = |inner: Arc<dyn DeviceAllocator>| -> Arc<dyn DeviceAllocator> {
            if self.cached {
                Arc::new(Cached::new(inner, self.sms))
            } else {
                inner
            }
        };
        // Watch mode: an explicit sink (`.telemetry()`), or the
        // process-global one `repro watch` installs, forces the
        // observability stack on so the sampler has counters to delta and
        // a ring to drain. The global lookup is one mutex lock per
        // *construction* — builds without a sink installed pay a single
        // `None` branch and nothing on any allocation path.
        let sink = self.sink.or_else(telemetry::global_sink);
        let trace = match (&sink, self.trace) {
            (Some(_), None) => Some(telemetry::WATCH_EVENTS_PER_SM),
            (_, chosen) => chosen,
        };
        Ok(match trace {
            Some(events_per_sm) => {
                let rec = Arc::new(TraceRecorder::new(self.sms, events_per_sm));
                let metrics = Metrics::enabled(self.sms).with_tracer(Arc::clone(&rec));
                if let Some(sink) = &sink {
                    sink.attach(&metrics);
                }
                let inner: Arc<dyn DeviceAllocator> =
                    Arc::from(construct(self.kind, heap, self.sms, metrics));
                Arc::new(Traced::new(wrap_cached(inner), rec))
            }
            None => {
                let metrics =
                    if self.metrics { Metrics::enabled(self.sms) } else { Metrics::disabled() };
                wrap_cached(Arc::from(construct(self.kind, heap, self.sms, metrics)))
            }
        })
    }
}

/// The single construction match: every public path funnels through here.
fn construct(
    kind: ManagerKind,
    heap: Arc<DeviceHeap>,
    num_sms: u32,
    metrics: Metrics,
) -> Box<dyn DeviceAllocator> {
    let m = metrics;
    match kind {
        Atomic => Box::new(AtomicAlloc::new(heap).with_metrics(m)),
        CudaAllocator => Box::new(CudaAllocModel::new(heap).with_metrics(m)),
        XMalloc => Box::new(XMalloc::new(heap).with_metrics(m)),
        ScatterAlloc => Box::new(ScatterAlloc::new(heap).with_metrics(m)),
        FDGMalloc => Box::new(FdgMalloc::new(heap).with_metrics(m)),
        RegEffC => Box::new(RegEffC::new(heap, num_sms).with_metrics(m)),
        RegEffCF => Box::new(RegEffCF::new(heap, num_sms).with_metrics(m)),
        RegEffCM => Box::new(RegEffCM::new(heap, num_sms).with_metrics(m)),
        RegEffCFM => Box::new(RegEffCFM::new(heap, num_sms).with_metrics(m)),
        Halloc => Box::new(Halloc::new(heap).with_metrics(m)),
        OuroSP => Box::new(OuroSP::new(heap).with_metrics(m)),
        OuroSC => Box::new(OuroSC::new(heap).with_metrics(m)),
        OuroVAP => Box::new(OuroVAP::new(heap).with_metrics(m)),
        OuroVAC => Box::new(OuroVAC::new(heap).with_metrics(m)),
        OuroVLP => Box::new(OuroVLP::new(heap).with_metrics(m)),
        OuroVLC => Box::new(OuroVLC::new(heap).with_metrics(m)),
    }
}

/// An ordered set of manager kinds selected with the artifact's Appendix A.6
/// syntax (`o+s+h+c+r+x`), optionally qualified with an `@` suffix of
/// `+`-chained modifiers: a heap backend (`o+s@mmap`) and/or the `cached`
/// magazine decorator (`o+s@cached`, `o+s@mmap+cached`). Parsing expands
/// family letters (`o` → all six Ouroboros variants, `r` → all four
/// Reg-Eff variants); displaying compresses back to family letters,
/// deduplicated in first-appearance order, and appends modifiers only when
/// they differ from the defaults. Selections produced by [`FromStr`]
/// round-trip through [`Display`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManagerSelection {
    /// The selected kinds, in selection order.
    pub kinds: Vec<ManagerKind>,
    /// The heap backend every selected manager is built over.
    pub backend: HeapBackendKind,
    /// Whether every selected manager is wrapped in the [`Cached`]
    /// magazine decorator.
    pub cached: bool,
}

impl ManagerSelection {
    /// The paper's default evaluation set over the default backend.
    pub fn default_set() -> Self {
        ManagerSelection {
            kinds: DEFAULT_KINDS.to_vec(),
            backend: HeapBackendKind::default(),
            cached: false,
        }
    }

    /// The selected kinds, in selection order.
    pub fn kinds(&self) -> &[ManagerKind] {
        &self.kinds
    }
}

impl FromStr for ManagerSelection {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (selector, backend, cached) = match s.split_once('@') {
            Some((sel, suffix)) => {
                let mut backend = None;
                let mut cached = false;
                for token in suffix.split('+') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("cached") {
                        cached = true;
                    } else if backend.is_none() {
                        backend = Some(token.parse::<HeapBackendKind>()?);
                    } else {
                        return Err(format!("duplicate heap backend in selector: {token:?}"));
                    }
                }
                (sel, backend.unwrap_or_default(), cached)
            }
            None => (s, HeapBackendKind::default(), false),
        };
        if selector.trim().is_empty() {
            return Err("empty approach selector".to_string());
        }
        let mut kinds = Vec::new();
        for part in selector.split('+') {
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
        Ok(ManagerSelection { kinds, backend, cached })
    }
}

impl fmt::Display for ManagerSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut letters = Vec::new();
        for kind in &self.kinds {
            let c = kind.selector_letter();
            if !letters.contains(&c) {
                letters.push(c);
            }
        }
        for (i, c) in letters.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            write!(f, "{c}")?;
        }
        let mut modifiers = Vec::new();
        if self.backend != HeapBackendKind::default() {
            modifiers.push(self.backend.to_string());
        }
        if self.cached {
            modifiers.push("cached".to_string());
        }
        if !modifiers.is_empty() {
            write!(f, "@{}", modifiers.join("+"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_core::ThreadCtx;

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
    fn builder_heap_spec_and_backend_thread_through() {
        let spec = HeapSpec::ram(HEAP).with_pretouch(Pretouch::Full);
        let a = Atomic.builder().heap_spec(spec).build();
        a.malloc(&ThreadCtx::host(), 64).unwrap();

        // heap() after heap_backend() keeps the chosen backend.
        let b = Atomic.builder().heap_backend(HeapBackendKind::Ram).heap(HEAP).build();
        b.malloc(&ThreadCtx::host(), 64).unwrap();
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
    fn try_build_succeeds_on_every_available_backend() {
        for backend in HeapBackendKind::ALL {
            if !backend.available() {
                continue;
            }
            let a = Atomic
                .builder()
                .heap(HEAP)
                .heap_backend(backend)
                .pretouch(Pretouch::Auto)
                .try_build()
                .unwrap_or_else(|e| panic!("{backend}: {e}"));
            a.malloc(&ThreadCtx::host(), 64).unwrap();
        }
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
    fn selection_round_trips_through_display() {
        for s in ["o+s+h+c+r+x", "f+a", "s", "o", "x+c", "o+s@mmap", "f@mmap", "r+x@mmap"] {
            let sel: ManagerSelection = s.parse().unwrap();
            assert_eq!(sel.to_string(), s, "display of {s:?}");
            let again: ManagerSelection = sel.to_string().parse().unwrap();
            assert_eq!(again, sel, "round-trip of {s:?}");
        }
    }

    #[test]
    fn selection_backend_suffix_parses() {
        let sel: ManagerSelection = "o+s@mmap".parse().unwrap();
        assert_eq!(sel.backend, HeapBackendKind::Mmap);
        assert_eq!(sel.kinds.len(), 7);
        // No suffix → RAM default, and Display omits it.
        let plain: ManagerSelection = "o+s".parse().unwrap();
        assert_eq!(plain.backend, HeapBackendKind::Ram);
        assert_eq!(plain.to_string(), "o+s");
        // Whitespace-tolerant around the suffix too.
        let sel: ManagerSelection = " f @ ram ".parse().unwrap();
        assert_eq!(sel.backend, HeapBackendKind::Ram);
    }

    #[test]
    fn selection_rejects_bad_input() {
        assert!("".parse::<ManagerSelection>().is_err());
        assert!("  ".parse::<ManagerSelection>().is_err());
        assert!("o+q".parse::<ManagerSelection>().is_err());
        assert!("os".parse::<ManagerSelection>().is_err());
        assert!("o++s".parse::<ManagerSelection>().is_err());
        assert!("o+s@disk".parse::<ManagerSelection>().is_err());
        // A retired backend is an error naming what is left, not an alias.
        for s in ["f@numa", "o@numa+cached"] {
            let e = s.parse::<ManagerSelection>().unwrap_err();
            assert!(e.contains("numa") && e.contains("ram or mmap"), "{s}: {e}");
        }
        assert!("@mmap".parse::<ManagerSelection>().is_err());
        // Case-insensitive and whitespace-tolerant on valid letters.
        let sel: ManagerSelection = " O + S ".parse().unwrap();
        assert_eq!(sel.to_string(), "o+s");
    }

    #[test]
    fn kind_display_matches_label() {
        for kind in ALL_KINDS {
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn labels_and_colors_are_unique() {
        let labels: std::collections::HashSet<_> = ALL_KINDS.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), ALL_KINDS.len());
        let colors: std::collections::HashSet<_> = ALL_KINDS.iter().map(|k| k.color()).collect();
        assert_eq!(colors.len(), ALL_KINDS.len());
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
        assert_eq!(t.count(EventKind::MallocBegin), 1);
        assert_eq!(t.count(EventKind::MallocEnd), 1);
        assert_eq!(t.count(EventKind::FreeBegin), 1);
        assert_eq!(t.count(EventKind::FreeEnd), 1);
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

    #[test]
    fn selection_cached_modifier_parses_and_round_trips() {
        for s in ["o+s@cached", "s@mmap+cached", "f+a@cached", "o@mmap+cached"] {
            let sel: ManagerSelection = s.parse().unwrap();
            assert!(sel.cached, "{s}");
            assert_eq!(sel.to_string(), s, "display of {s:?}");
        }
        let sel: ManagerSelection = "s@CACHED".parse().unwrap();
        assert!(sel.cached);
        let plain: ManagerSelection = "o+s".parse().unwrap();
        assert!(!plain.cached);
        // Backend order is canonicalized backend-first on display.
        let sel: ManagerSelection = "s@cached+mmap".parse().unwrap();
        assert_eq!(sel.backend, HeapBackendKind::Mmap);
        assert_eq!(sel.to_string(), "s@mmap+cached");
        assert!("s@mmap+ram".parse::<ManagerSelection>().is_err(), "two backends");
    }

    #[test]
    fn default_set_excludes_fdg() {
        assert!(!DEFAULT_KINDS.contains(&FDGMalloc));
        assert_eq!(DEFAULT_KINDS.len(), 15);
    }
}

//! # gpumem-core
//!
//! Core abstractions for the GPU dynamic-memory-manager survey reproduction
//! (Winter et al., *"Are Dynamic Memory Managers on GPUs Slow? A Survey and
//! Benchmarks"*, PPoPP 2021).
//!
//! This crate defines the pieces every memory manager and every benchmark
//! shares:
//!
//! * [`DeviceHeap`] — the simulated slab of GPU global memory. One contiguous
//!   host allocation addressed by byte offsets, with *in-heap atomic views*
//!   so allocators can keep their headers and tables inside the managed
//!   region, exactly like their CUDA originals.
//! * [`backend`] — the heap substrate: one mapping primitive in two forms,
//!   in-RAM (hugepage-advised, committed up front) and mmap
//!   (`MAP_NORESERVE`, runs the paper's full 8 GiB heap on any host),
//!   selected by [`HeapSpec`] and failing with a typed [`HeapError`].
//! * [`DevicePtr`] — a byte offset into a [`DeviceHeap`] (the survey's
//!   device-pointer equivalent).
//! * [`ThreadCtx`] / [`WarpCtx`] — the identity a simulated GPU thread or
//!   warp carries into an allocation call (thread / lane / warp / block /
//!   SM id). Several allocators hash these ids (ScatterAlloc scatters by SM
//!   id, Reg-Eff-CM keeps one offset per SM, FDGMalloc keys state by warp).
//! * [`DeviceAllocator`] — the unified `malloc`/`free` interface of the
//!   survey's framework, Section 3 of the paper. Warp-level entry points
//!   ([`DeviceAllocator::malloc_warp`]) model warp-aggregated allocation.
//! * [`ManagerInfo`] — the static survey metadata behind Table 1.
//! * [`RegisterFootprint`] — the register-requirement proxy used for the
//!   Section 4.1 comparison (see that type's docs for the methodology).
//! * [`frag`] — fragmentation / address-range measurement (Figure 11a).
//! * [`metrics`] — the contention-observability layer: sharded event
//!   counters ([`Metrics`], [`CounterSnapshot`]) that attribute cost to the
//!   algorithmic structure the paper blames (CAS retries, probe chains,
//!   queue spins, list walks).
//! * [`cache`] — the hot-path caching decorator: [`Cached`] parks recently
//!   freed blocks in per-SM size-class magazines (Halloc's class table
//!   generalized) so repeat allocations skip the inner allocator's shared
//!   metadata, and batches a warp's leftover frees into one inner
//!   publication.
//! * [`sanitize`] — the shadow-heap allocation sanitizer: [`Sanitized`]
//!   wraps any manager and detects overlap, out-of-heap and misaligned
//!   returns, double-/unknown-frees and redzone corruption, collecting
//!   structured [`Violation`]s instead of panicking mid-kernel.
//! * [`trace`] — the event-tracing layer: a per-SM ring-buffer
//!   [`TraceRecorder`] fed by the [`Traced`] wrapper and the executor,
//!   with a latency-histogram consumer and a Chrome/Perfetto JSON
//!   consumer that replays the live set through one [`LiveSet`]. The
//!   Perfetto JSON is the one per-run export.
//! * [`telemetry`] — the time-series sampler: folds counter deltas and
//!   trace-ring drains into a bounded [`Sample`] series, cut by a timer
//!   thread; it has no export of its own.
//! * [`json`] — the one JSON reader ([`json::Json`]) and string escaper
//!   ([`json::quote`]) that anchors and the Chrome trace export share.
//!
//! Everything here is `std`-only; no external dependencies.

pub mod backend;
pub mod cache;
pub mod ctx;
pub mod error;
pub mod frag;
pub mod heap;
pub mod info;
pub mod json;
pub mod metrics;
pub mod ptr;
pub mod regs;
pub mod sanitize;
pub mod sync;
pub mod telemetry;
pub mod trace;
pub mod traits;
pub mod util;

pub use backend::{HeapBackendKind, HeapError, HeapSpec, Pretouch};
pub use cache::Cached;
pub use ctx::{ThreadCtx, WarpCtx, WARP_SIZE};
pub use error::AllocError;
pub use frag::{AddressRange, FragmentationStats};
pub use heap::DeviceHeap;
pub use info::{Availability, ManagerInfo, ManagerInfoBuilder, SurveyRow, SURVEY_TABLE};
pub use metrics::{AllocCounters, Counter, CounterSnapshot, Metrics};
pub use ptr::DevicePtr;
pub use regs::RegisterFootprint;
pub use sanitize::{Sanitized, SanitizerReport, Violation, ViolationKind};
pub use telemetry::{Sample, Telemetry, TelemetryConfig, TelemetrySink, TimeSeries};
pub use trace::{
    chrome_trace_json, validate_chrome_json, EventKind, LatencyHistogram, LiveSet, OpLatencies,
    Trace, TraceEvent, TraceRecorder, Traced,
};
pub use traits::DeviceAllocator;

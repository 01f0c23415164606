//! # gpumemsurvey — facade crate
//!
//! Re-exports every crate in the workspace so examples, integration tests
//! and downstream users can depend on a single package. See `README.md` for
//! the architecture overview and `DESIGN.md` for the system inventory.

pub use alloc_atomic;
pub use alloc_cuda;
pub use dyn_graph;
pub use gpu_sim;
pub use gpu_workloads;
pub use gpumem_bench as bench;
pub use gpumem_core as core;

pub use alloc_fdg;
pub use alloc_halloc;
pub use alloc_ouroboros;
pub use alloc_regeff;
pub use alloc_scatter;
pub use alloc_xmalloc;

/// Convenience prelude: the types almost every user touches.
pub mod prelude {
    pub use gpu_sim::{Device, DeviceSpec, SchedStats};
    pub use gpumem_bench::registry::{ManagerBuilder, ManagerKind};
    pub use gpumem_core::{
        chrome_trace_json, validate_chrome_json, EventKind, LatencyHistogram, OpLatencies, Trace,
        TraceRecorder, Traced,
    };
    pub use gpumem_core::{
        AllocError, Counter, CounterSnapshot, DeviceAllocator, DeviceHeap, DevicePtr, HeapError,
        HeapSpec, ManagerInfo, Metrics, Pretouch, Sanitized, SanitizerReport, ThreadCtx, WarpCtx,
    };
    pub use gpumem_core::{Telemetry, TelemetryConfig, TelemetrySink};
}

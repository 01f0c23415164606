//! # gpu-sim
//!
//! A SIMT-style execution substrate that stands in for the CUDA runtime the
//! survey's framework launches its test kernels on.
//!
//! The model: a *kernel launch* executes `n` logical threads. Threads are
//! grouped into warps of 32; warps are claimed from a shared queue by a
//! **persistent pool** of OS worker threads that play the role of streaming
//! multiprocessors — workers park between kernels and are released through
//! a staging barrier, so reported kernel times cover the parallel section
//! alone (dispatch overhead is reported separately, see
//! [`exec::SchedStats`]). Every logical thread receives a
//! [`ThreadCtx`](gpumem_core::ThreadCtx) with its thread/lane/warp/block/SM
//! coordinates — the same identifiers the surveyed allocators hash and
//! scatter by.
//!
//! What is *not* modelled: instruction-level SIMD lockstep and divergence
//! penalties. The surveyed allocators' performance differences come from
//! their shared-state algorithms (hash probing vs. list walking vs. queue
//! operations), which execute natively here; warp-aggregation benefits are
//! preserved through the warp-level entry points of the allocator trait.
//!
//! Also provided:
//!
//! * [`DeviceSpec`] — named device presets (NVIDIA TITAN V, RTX 2080Ti) so
//!   the benchmark harness can reproduce the paper's two-device axis.
//! * [`access`] — the memory-coalescing transaction model behind the
//!   Fig. 11e access-performance test case.
//! * [`PerThread`] — a per-thread output buffer for kernels that produce one
//!   value per thread (e.g. "each thread stores its allocated pointer").

pub mod access;
pub mod exec;
pub mod spec;

pub use exec::{Device, PerThread, SchedStats};
pub use spec::DeviceSpec;

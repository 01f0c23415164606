//! # gpu-workloads — workload generators and reference baselines
//!
//! The building blocks of the survey's synthetic test cases (§4.2, §4.4.1,
//! §4.4.2):
//!
//! * [`round`] — the one allocation kernel (per thread or per warp) and the
//!   one free kernel every test case launches; the free round decides how
//!   a manager frees.
//! * [`sizes`] — deterministic per-thread request-size streams (uniform
//!   ranges for the mixed-allocation and work-generation test cases).
//! * [`prefix`] — the canonical alternative to dynamic allocation: a
//!   parallel exclusive prefix sum over the per-thread sizes plus a single
//!   bulk allocation (the paper's "Baseline built on a prefix-sum from
//!   Thrust").
//! * [`workgen`] — the work-generation test case: threads produce variable
//!   amounts of output, either through a memory manager or through the
//!   prefix-sum baseline.
//! * [`write_test`] — the memory-access performance test case (Fig. 11e):
//!   an allocation round, then warp write coalescing priced by the
//!   `gpu-sim` transaction model.
//! * [`churn`] — repeated allocate-all/free-all rounds (§4.2.1), counting
//!   the requests that fail over the run.

#[cfg(test)]
mod bump;
pub mod churn;
pub mod prefix;
pub mod round;
pub mod sizes;
pub mod workgen;
pub mod write_test;

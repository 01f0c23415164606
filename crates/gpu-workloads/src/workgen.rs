//! The work-generation test case (§4.4.1, Figures 11c/11d).
//!
//! "This test case emulates a real-world example of a set of threads
//! producing work": each thread draws a size from a range, obtains memory
//! for it, and writes its output. The dynamic-memory variant goes through a
//! manager under test; the baseline performs the canonical prefix-sum +
//! single bulk allocation.

use std::time::Duration;

use gpu_sim::{Device, PerThread};
use gpumem_core::{DeviceAllocator, DevicePtr};

use crate::prefix::scan_allocate;
use crate::sizes::thread_size;

/// Outcome of one work-generation run.
pub struct WorkGenResult {
    /// Wall-clock of the allocate+write kernel (and scan for the baseline).
    pub elapsed: Duration,
    /// Per-thread pointers (for validation / later freeing).
    pub ptrs: Vec<DevicePtr>,
    /// Threads whose allocation failed.
    pub failures: u64,
}

/// Runs work generation through a memory manager: every thread allocates
/// its size and writes its payload.
pub fn run_managed(
    alloc: &dyn DeviceAllocator,
    device: &Device,
    n_threads: u32,
    seed: u64,
    lo: u64,
    hi: u64,
) -> WorkGenResult {
    let out = PerThread::<DevicePtr>::new(n_threads as usize);
    let heap = alloc.heap();
    let elapsed = device.launch(n_threads, |ctx| {
        let size = thread_size(seed, ctx.thread_id, lo, hi);
        match alloc.malloc(ctx, size) {
            Ok(p) => {
                heap.fill(p, size, (ctx.thread_id as u8) | 1);
                out.set(ctx.thread_id as usize, p);
            }
            Err(_) => out.set(ctx.thread_id as usize, DevicePtr::NULL),
        }
    });
    let ptrs = out.into_vec();
    let failures = ptrs.iter().filter(|p| p.is_null()).count() as u64;
    WorkGenResult { elapsed, ptrs, failures }
}

/// Runs the prefix-sum baseline: host-side scan + one bulk reservation,
/// then a write kernel over the packed layout.
pub fn run_baseline(
    device: &Device,
    heap: &gpumem_core::DeviceHeap,
    n_threads: u32,
    seed: u64,
    lo: u64,
    hi: u64,
) -> WorkGenResult {
    let sizes: Vec<u64> = (0..n_threads).map(|t| thread_size(seed, t, lo, hi)).collect();
    let scan = scan_allocate(&sizes, 0, device.workers());
    assert!(scan.total <= heap.len(), "baseline demand {} exceeds heap {}", scan.total, heap.len());
    let offsets = scan.offsets;
    let write = device.launch(n_threads, |ctx| {
        let size = thread_size(seed, ctx.thread_id, lo, hi);
        heap.fill(offsets[ctx.thread_id as usize], size, (ctx.thread_id as u8) | 1);
    });
    WorkGenResult { elapsed: scan.elapsed + write, ptrs: offsets, failures: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bump::Bump;
    use gpu_sim::DeviceSpec;
    use gpumem_core::DeviceHeap;
    use std::sync::Arc;

    fn device() -> Device {
        Device::with_workers(DeviceSpec::titan_v(), 4)
    }

    #[test]
    fn managed_run_allocates_for_every_thread() {
        let a = Bump::new(8 << 20, 0);
        let r = run_managed(&a, &device(), 5000, 1, 4, 64);
        assert_eq!(r.failures, 0);
        assert_eq!(r.ptrs.len(), 5000);
        // Payload actually written: spot-check a few threads.
        for t in [0usize, 999, 4999] {
            let v = a.heap().read_u8(r.ptrs[t], 0);
            assert_eq!(v, (t as u8) | 1);
        }
    }

    #[test]
    fn managed_run_reports_failures_on_exhaustion() {
        let a = Bump::new(16 * 1024, 0);
        let r = run_managed(&a, &device(), 10_000, 1, 64, 64);
        assert!(r.failures > 0, "heap too small, failures expected");
    }

    #[test]
    fn baseline_packs_and_writes() {
        let heap = Arc::new(DeviceHeap::new(8 << 20));
        let r = run_baseline(&device(), &heap, 5000, 1, 4, 64);
        assert_eq!(r.failures, 0);
        for t in [0usize, 2500, 4999] {
            assert_eq!(heap.read_u8(r.ptrs[t], 0), (t as u8) | 1);
        }
        // Packed: strictly increasing offsets.
        assert!(r.ptrs.windows(2).all(|w| w[0] < w[1]));
    }
}

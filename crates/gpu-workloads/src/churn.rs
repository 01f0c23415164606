//! Repeated allocation/deallocation churn.
//!
//! The paper observes (§4.2.1, warp-based discussion) that "the two
//! Multi-Reg-Eff variants also start strong, but have an issue with
//! repeated allocations/deallocations, slowing down significantly over
//! time", and (§5) that the CUDA-Allocator's "performance continuously
//! increases with the amount of allocations". This workload measures
//! exactly that: the same allocate-all/free-all cycle repeated many times,
//! reporting the per-cycle time series so slowdown (or speed-up through
//! reuse, as Ouroboros shows) becomes visible.

use std::time::Duration;

use gpu_sim::Device;
use gpumem_core::DeviceAllocator;

use crate::round;

/// Per-cycle timings of a churn run.
pub struct ChurnResult {
    /// (alloc, free) wall-clock per cycle, in order.
    pub cycles: Vec<(Duration, Duration)>,
    /// Allocation failures over the whole run.
    pub failures: u64,
}

impl ChurnResult {
    /// Ratio of the mean of the last quarter of cycles to the mean of the
    /// first quarter (allocation time): > 1 = slows down over time.
    pub fn slowdown_factor(&self) -> f64 {
        let n = self.cycles.len();
        if n < 4 {
            return 1.0;
        }
        let quarter = n / 4;
        let mean = |s: &[(Duration, Duration)]| {
            s.iter().map(|(a, _)| a.as_secs_f64()).sum::<f64>() / s.len() as f64
        };
        let first = mean(&self.cycles[..quarter]);
        let last = mean(&self.cycles[n - quarter..]);
        if first == 0.0 {
            1.0
        } else {
            last / first
        }
    }
}

/// Runs `cycles` iterations of (allocate `n_threads`×`size`, free all).
pub fn run(
    alloc: &dyn DeviceAllocator,
    device: &Device,
    n_threads: u32,
    size: u64,
    cycles: u32,
) -> ChurnResult {
    let mut result = ChurnResult { cycles: Vec::with_capacity(cycles as usize), failures: 0 };
    for _ in 0..cycles {
        let r = round::malloc_threads(alloc, device, n_threads, |_| size);
        result.failures += r.failures;
        // No free: the run degenerates to repeated bump allocation and will
        // start failing — still a valid measurement of that fact.
        let t_free = round::free(alloc, device, &r).map_or(Duration::ZERO, |(t, _)| t);
        result.cycles.push((r.elapsed, t_free));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use gpumem_core::sync::{AtomicU64, Ordering};
    use gpumem_core::util::align_up;
    use gpumem_core::{
        AllocError, DeviceHeap, DevicePtr, ManagerInfo, RegisterFootprint, ThreadCtx,
    };
    use std::sync::{Arc, Mutex};

    /// Free-list test allocator whose free list is intentionally scanned
    /// linearly, so churn slows down — lets the metric be validated.
    struct SlowingAlloc {
        heap: Arc<DeviceHeap>,
        top: AtomicU64,
        graveyard: Mutex<Vec<u64>>,
        scan_per_alloc: usize,
    }

    impl SlowingAlloc {
        fn new(len: u64, scan_per_alloc: usize) -> Self {
            SlowingAlloc {
                heap: Arc::new(DeviceHeap::new(len)),
                top: AtomicU64::new(0),
                graveyard: Mutex::new(Vec::new()),
                scan_per_alloc,
            }
        }
    }

    impl DeviceAllocator for SlowingAlloc {
        fn info(&self) -> ManagerInfo {
            ManagerInfo::builder("Slowing").build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
            let g = self.graveyard.lock().unwrap();
            // Cost grows with history: scan a bounded window of the
            // graveyard.
            let window = g.len().min(self.scan_per_alloc);
            let _ = std::hint::black_box(g.iter().take(window).sum::<u64>());
            drop(g);
            let sz = align_up(size.max(1), 16);
            let off = self.top.fetch_add(sz, Ordering::Relaxed);
            if off + sz > self.heap.len() {
                // Recycle: pretend compaction, restart from zero.
                self.top.store(sz, Ordering::Relaxed);
                return Ok(DevicePtr::new(0));
            }
            Ok(DevicePtr::new(off))
        }
        fn free(&self, _ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
            self.graveyard.lock().unwrap().push(ptr.offset());
            Ok(())
        }
        fn register_footprint(&self) -> RegisterFootprint {
            RegisterFootprint { malloc: 2, free: 2 }
        }
    }

    fn device() -> Device {
        Device::with_workers(DeviceSpec::titan_v(), 2)
    }

    #[test]
    fn churn_records_every_cycle() {
        let a = SlowingAlloc::new(8 << 20, 0);
        let r = run(&a, &device(), 512, 64, 10);
        assert_eq!(r.cycles.len(), 10);
        assert_eq!(r.failures, 0);
    }

    #[test]
    fn slowdown_factor_detects_growth() {
        let a = SlowingAlloc::new(8 << 20, usize::MAX);
        let r = run(&a, &device(), 1024, 64, 16);
        assert!(
            r.slowdown_factor() > 1.2,
            "graveyard scan must slow later cycles: {}",
            r.slowdown_factor()
        );
    }

    #[test]
    fn slowdown_factor_of_flat_series_is_near_one() {
        let flat = ChurnResult {
            cycles: vec![(Duration::from_micros(100), Duration::from_micros(50)); 16],
            failures: 0,
        };
        assert!((flat.slowdown_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn short_series_defaults_to_one() {
        let r = ChurnResult { cycles: vec![(Duration::ZERO, Duration::ZERO); 2], failures: 0 };
        assert_eq!(r.slowdown_factor(), 1.0);
    }
}

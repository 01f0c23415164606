//! The memory-access performance test case (§4.4.2, Figure 11e).
//!
//! "On the GPU, not only allocation speed but also memory access speed is
//! crucial. To evaluate whether a memory allocator considers alignment, we
//! test the uniform and mixed case with 2¹⁷ allocations between
//! 16 B–128 B. Each thread reads and writes to its assigned memory."
//!
//! After allocating through the manager under test, every warp's write
//! sweep is priced with the `gpu-sim` coalescing model and compared against
//! the fully-coalesced packed baseline.

use gpu_sim::access::AccessStats;
use gpu_sim::Device;
use gpumem_core::{DeviceAllocator, WARP_SIZE};

use crate::round;
use crate::sizes::thread_size;

/// Which size pattern the threads request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePattern {
    /// All threads allocate exactly `bytes`.
    Uniform { bytes: u64 },
    /// Sizes drawn from `[lo, hi]` per thread (the paper's mixed case).
    Mixed { lo: u64, hi: u64 },
}

impl WritePattern {
    fn size_for(&self, seed: u64, thread: u32) -> u64 {
        match *self {
            WritePattern::Uniform { bytes } => bytes,
            WritePattern::Mixed { lo, hi } => thread_size(seed, thread, lo, hi),
        }
    }
}

/// Result of the write-performance test.
pub struct WriteTestResult {
    /// Transaction statistics across all warps.
    pub stats: AccessStats,
    /// Allocation failures (excluded from the statistics).
    pub failures: u64,
}

/// Allocates `n_threads` blocks through `alloc` and prices each warp's
/// write sweep against the coalesced baseline.
pub fn run(
    alloc: &dyn DeviceAllocator,
    device: &Device,
    n_threads: u32,
    seed: u64,
    pattern: WritePattern,
) -> WriteTestResult {
    let r = round::malloc_threads(alloc, device, n_threads, |t| pattern.size_for(seed, t));

    let mut stats = AccessStats::default();
    for (w, warp_ptrs) in r.ptrs.chunks(WARP_SIZE as usize).enumerate() {
        // Price the warp write at the maximum lane size: the sweep is
        // lock-step, inactive lanes drop out once their block is done, which
        // the per-step distinct-segment count already models via NULLs.
        let max_size = warp_ptrs
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_null())
            .map(|(lane, _)| pattern.size_for(seed, (w * WARP_SIZE as usize + lane) as u32))
            .max()
            .unwrap_or(0);
        stats.add_warp(warp_ptrs, max_size);
    }
    WriteTestResult { stats, failures: r.failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bump::Bump;
    use gpu_sim::DeviceSpec;

    fn device() -> Device {
        Device::with_workers(DeviceSpec::titan_v(), 2)
    }

    #[test]
    fn packed_layout_matches_baseline() {
        let a = Bump::new(8 << 20, 0);
        // One worker: with interleaved workers a warp's bump allocations
        // are not perfectly contiguous, which costs a few extra segments.
        let device = Device::with_workers(DeviceSpec::titan_v(), 1);
        let r = run(&a, &device, 4096, 3, WritePattern::Uniform { bytes: 16 });
        assert_eq!(r.failures, 0);
        assert!(
            (r.stats.relative_cost() - 1.0).abs() < 0.05,
            "packed bump should be ~baseline: {}",
            r.stats.relative_cost()
        );
    }

    #[test]
    fn padded_layout_costs_more() {
        let packed =
            run(&Bump::new(16 << 20, 0), &device(), 4096, 3, WritePattern::Uniform { bytes: 16 });
        let padded = run(
            &Bump::new(64 << 20, 112), // 16 B payload at 128 B stride
            &device(),
            4096,
            3,
            WritePattern::Uniform { bytes: 16 },
        );
        assert!(
            padded.stats.relative_cost() > packed.stats.relative_cost() * 2.0,
            "padding must hurt coalescing: {} vs {}",
            padded.stats.relative_cost(),
            packed.stats.relative_cost()
        );
    }

    #[test]
    fn mixed_pattern_is_deterministic() {
        // One worker: with two workers the bump allocations land in
        // scheduling order, so the layout (and transaction count) varies
        // between runs — determinism only holds for a serial device.
        let device = Device::with_workers(DeviceSpec::titan_v(), 1);
        let a = Bump::new(16 << 20, 0);
        let r1 = run(&a, &device, 2048, 5, WritePattern::Mixed { lo: 16, hi: 128 });
        let a2 = Bump::new(16 << 20, 0);
        let r2 = run(&a2, &device, 2048, 5, WritePattern::Mixed { lo: 16, hi: 128 });
        assert_eq!(r1.stats.transactions, r2.stats.transactions);
        assert_eq!(r1.stats.baseline, r2.stats.baseline);
    }

    #[test]
    fn failures_are_counted_not_priced() {
        let a = Bump::new(4096, 0); // tiny: most allocations fail
        let r = run(&a, &device(), 1024, 1, WritePattern::Uniform { bytes: 64 });
        assert!(r.failures > 900);
    }
}

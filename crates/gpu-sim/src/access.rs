//! Memory-access (coalescing) cost model — the substrate for the paper's
//! write-performance test case (§4.4.2, Figure 11e).
//!
//! On the evaluated GPUs, a warp's global-memory instruction is serviced in
//! 128-byte segments: the hardware coalesces the 32 lane addresses and issues
//! one transaction per *distinct* segment touched. An allocator that returns
//! well-packed, aligned, warp-local memory therefore costs as little as
//! `size/4` transactions per 4-byte-stride sweep, while scattered or
//! misaligned allocations cost up to one transaction per lane per step.
//!
//! The model reproduces exactly that rule: lanes sweep their allocation in
//! 4-byte strides, and each step contributes the number of distinct 128-byte
//! segments among the 32 lane addresses. The benchmark reports the ratio to
//! the fully-coalesced baseline, which is what Fig. 11e plots.

use gpumem_core::{DevicePtr, WARP_SIZE};

/// Memory transaction segment size in bytes (constant across the surveyed
/// architectures).
pub const SEGMENT_BYTES: u64 = 128;

/// Word size of one lane access in bytes.
pub const ACCESS_BYTES: u64 = 4;

/// Counts the transactions a warp needs to sweep its allocations.
///
/// `ptrs` holds one pointer per participating lane (≤ 32; null entries are
/// skipped, modelling inactive lanes); each lane writes `bytes_each` bytes in
/// [`ACCESS_BYTES`] strides. Returns the summed transaction count.
pub fn warp_transactions(ptrs: &[DevicePtr], bytes_each: u64) -> u64 {
    assert!(ptrs.len() <= WARP_SIZE as usize);
    if bytes_each == 0 {
        return 0;
    }
    let steps = bytes_each.div_ceil(ACCESS_BYTES);
    let mut total = 0u64;
    let mut segs = [u64::MAX; WARP_SIZE as usize];
    for step in 0..steps {
        let mut n = 0;
        for &p in ptrs {
            if p.is_null() {
                continue;
            }
            // A lane's strided address: an in-heap offset plus a step bounded by
            // the lane's access count, far below u64::MAX.
            let addr = p.offset() + step * ACCESS_BYTES;
            segs[n] = addr / SEGMENT_BYTES;
            n += 1;
        }
        if n == 0 {
            continue;
        }
        let active = &mut segs[..n];
        active.sort_unstable();
        let mut distinct = 1;
        for i in 1..active.len() {
            if active[i] != active[i - 1] {
                distinct += 1;
            }
        }
        total += distinct;
    }
    total
}

/// Transactions for the ideal case: the same demand served from one packed,
/// segment-aligned region (lane `i` at offset `i * bytes_each`). This is the
/// "Baseline" series of Fig. 11e.
pub fn coalesced_baseline(lanes: usize, bytes_each: u64) -> u64 {
    assert!(lanes <= WARP_SIZE as usize);
    let ptrs: Vec<DevicePtr> = (0..lanes).map(|i| DevicePtr::new(i as u64 * bytes_each)).collect();
    warp_transactions(&ptrs, bytes_each)
}

/// Aggregates transactions over many warps and exposes the slowdown ratio.
#[derive(Clone, Copy, Debug, Default)]
pub struct AccessStats {
    /// Transactions the allocator's layout required.
    pub transactions: u64,
    /// Transactions the packed baseline would have required.
    pub baseline: u64,
}

impl AccessStats {
    /// Accumulates one warp's measurement.
    pub fn add_warp(&mut self, ptrs: &[DevicePtr], bytes_each: u64) {
        let lanes = ptrs.iter().filter(|p| !p.is_null()).count();
        self.transactions += warp_transactions(ptrs, bytes_each);
        self.baseline += coalesced_baseline(lanes, bytes_each);
    }

    /// Merge a partial result (per-worker reduction).
    pub fn merge(&mut self, other: &AccessStats) {
        self.transactions += other.transactions;
        self.baseline += other.baseline;
    }

    /// Access cost relative to the coalesced baseline (≥ 1.0 in practice;
    /// the y-axis of Fig. 11e).
    pub fn relative_cost(&self) -> f64 {
        if self.baseline == 0 {
            0.0
        } else {
            self.transactions as f64 / self.baseline as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_ptrs(base: u64, stride: u64, n: usize) -> Vec<DevicePtr> {
        (0..n).map(|i| DevicePtr::new(base + i as u64 * stride)).collect()
    }

    #[test]
    fn fully_coalesced_warp_uses_one_transaction_per_segment() {
        // 32 lanes × 4 B, consecutive, segment-aligned: one 128 B segment.
        let ptrs = seq_ptrs(0, 4, 32);
        assert_eq!(warp_transactions(&ptrs, 4), 1);
    }

    #[test]
    fn strided_accesses_touch_more_segments() {
        // Lane stride of 128 B: every lane hits its own segment.
        let ptrs = seq_ptrs(0, 128, 32);
        assert_eq!(warp_transactions(&ptrs, 4), 32);
    }

    #[test]
    fn misalignment_costs_an_extra_segment() {
        // Consecutive but shifted by 4: straddles two segments.
        let ptrs = seq_ptrs(4, 4, 32);
        assert_eq!(warp_transactions(&ptrs, 4), 2);
    }

    #[test]
    fn multi_step_sweep_sums_steps() {
        // 16 B each, 32 lanes, packed: demand = 512 B = 4 segments; the sweep
        // revisits each segment once per 4-byte step → 4 steps × 4 segments.
        let ptrs = seq_ptrs(0, 16, 32);
        assert_eq!(warp_transactions(&ptrs, 16), 16);
    }

    #[test]
    fn baseline_matches_packed_layout() {
        assert_eq!(coalesced_baseline(32, 4), 1);
        assert_eq!(coalesced_baseline(32, 16), 16);
        assert_eq!(coalesced_baseline(1, 4), 1);
        assert_eq!(coalesced_baseline(0, 4), 0);
    }

    #[test]
    fn null_lanes_are_inactive() {
        let mut ptrs = seq_ptrs(0, 4, 4);
        ptrs.push(DevicePtr::NULL);
        assert_eq!(warp_transactions(&ptrs, 4), 1);
    }

    #[test]
    fn zero_bytes_costs_nothing() {
        let ptrs = seq_ptrs(0, 4, 32);
        assert_eq!(warp_transactions(&ptrs, 0), 0);
    }

    #[test]
    fn relative_cost_ratio() {
        let mut s = AccessStats::default();
        s.add_warp(&seq_ptrs(0, 128, 32), 4); // 32 transactions vs baseline 1
        assert!((s.relative_cost() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = AccessStats { transactions: 10, baseline: 5 };
        a.merge(&AccessStats { transactions: 2, baseline: 1 });
        assert_eq!(a.transactions, 12);
        assert_eq!(a.baseline, 6);
        assert!((a.relative_cost() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_cost_zero() {
        assert_eq!(AccessStats::default().relative_cost(), 0.0);
    }
}

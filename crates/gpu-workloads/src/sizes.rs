//! Deterministic per-thread request sizes.
//!
//! "To evaluate this, each thread requests an allocation from a certain
//! range of available sizes. The lower bound is 4 B, while the upper bound
//! ranges between 4 B–8192 B, a value is randomly chosen in this range."
//! (§4.2.2). The same generator drives the work-generation test cases
//! (§4.4.1).

use gpumem_core::util::DeviceRng;

/// The per-thread size for `thread_id` drawn uniformly from `[lo, hi]`,
/// reproducibly (same seed → same workload for every manager under test).
#[inline]
pub fn thread_size(seed: u64, thread_id: u32, lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= hi && lo > 0);
    let mut rng = DeviceRng::new(seed ^ ((thread_id as u64) << 20));
    rng.range_u64(lo, hi)
}

/// The sweep of allocation sizes used by the Fig. 9 performance plots:
/// 4 B–8192 B with power-of-two and 3·2ᵏ intermediate points.
pub fn alloc_size_sweep() -> Vec<u64> {
    let mut v = vec![4u64, 8];
    let mut p = 16u64;
    while p <= 8192 {
        v.push(p);
        let mid = p / 2 * 3;
        if mid < 8192 {
            v.push(mid);
        }
        p *= 2;
    }
    v
}

/// Upper bounds of the mixed-allocation sweep (Fig. 9h): 4-4, 4-8, …,
/// 4-8192.
pub fn mixed_upper_bounds() -> Vec<u64> {
    (2..=13).map(|e| 1u64 << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sizes_are_deterministic_and_in_range() {
        for t in 0..1000 {
            let a = thread_size(42, t, 4, 8192);
            let b = thread_size(42, t, 4, 8192);
            assert_eq!(a, b);
            assert!((4..=8192).contains(&a));
        }
    }

    #[test]
    fn different_threads_get_different_streams() {
        let distinct: std::collections::HashSet<u64> =
            (0..100).map(|t| thread_size(7, t, 4, 1 << 20)).collect();
        assert!(distinct.len() > 95, "sizes should look random across threads");
    }

    #[test]
    fn sweep_covers_4_to_8192() {
        let v = alloc_size_sweep();
        assert_eq!(*v.first().unwrap(), 4);
        assert_eq!(*v.last().unwrap(), 8192);
        assert!(v.contains(&16) && v.contains(&24) && v.contains(&3072));
        assert!(v.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn mixed_bounds_match_paper() {
        let v = mixed_upper_bounds();
        assert_eq!(v, vec![4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]);
    }
}

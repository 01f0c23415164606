//! One allocation round and one free round: the two kernels every test case
//! of §4 launches, and the one place that decides how a manager frees —
//! `free_warp_all` per warp (FDGMalloc), one `free` per grant, or nothing.

use std::time::Duration;

use gpu_sim::{Device, PerThread, SchedStats};
use gpumem_core::{DeviceAllocator, DevicePtr, WARP_SIZE};

/// The outcome of one malloc launch.
pub struct Round {
    /// One slot per thread (or warp), `DevicePtr::NULL` where it failed.
    pub ptrs: Vec<DevicePtr>,
    pub failures: u64,
    /// Kernel wall-clock of the launch.
    pub elapsed: Duration,
    pub sched: SchedStats,
    /// Whether each slot is one warp's `malloc_warp` (else one thread's).
    warps: bool,
}

impl Round {
    fn new(ptrs: Vec<DevicePtr>, (elapsed, sched): (Duration, SchedStats), warps: bool) -> Self {
        let failures = ptrs.iter().filter(|p| p.is_null()).count() as u64;
        Round { ptrs, failures, elapsed, sched, warps }
    }
}

/// Launches `n` threads; thread `t` asks for `size(t)` bytes.
pub fn malloc_threads(
    alloc: &dyn DeviceAllocator,
    device: &Device,
    n: u32,
    size: impl Fn(u32) -> u64 + Sync,
) -> Round {
    let out = PerThread::<DevicePtr>::new(n as usize);
    let launch = device.launch_with_stats(n, |ctx| {
        let p = alloc.malloc(ctx, size(ctx.thread_id)).unwrap_or(DevicePtr::NULL);
        out.set(ctx.thread_id as usize, p);
    });
    Round::new(out.into_vec(), launch, false)
}

/// Launches `n_warps` warps; warp `w` makes one one-lane `malloc_warp` of
/// `size(w)` bytes (the warp-based test case, Fig. 9g).
pub fn malloc_warps(
    alloc: &dyn DeviceAllocator,
    device: &Device,
    n_warps: u32,
    size: impl Fn(u32) -> u64 + Sync,
) -> Round {
    let out = PerThread::<DevicePtr>::new(n_warps as usize);
    let launch = device.launch_warps_with_stats(n_warps, |w| {
        let mut p = [DevicePtr::NULL];
        let ok = alloc.malloc_warp(w, &[size(w.warp)], &mut p).is_ok();
        out.set(w.warp as usize, if ok { p[0] } else { DevicePtr::NULL });
    });
    Round::new(out.into_vec(), launch, true)
}

/// Frees `round` in one launch, or returns `None` without launching when
/// the manager cannot free. Free errors are ignored.
pub fn free(
    alloc: &dyn DeviceAllocator,
    device: &Device,
    round: &Round,
) -> Option<(Duration, SchedStats)> {
    let info = alloc.info();
    let (ptrs, n) = (&round.ptrs, round.ptrs.len() as u32);
    if info.warp_level_only {
        let warps = if round.warps { n } else { n.div_ceil(WARP_SIZE) };
        Some(device.launch_warps_with_stats(warps, |w| {
            let _ = alloc.free_warp_all(w);
        }))
    } else if !info.supports_free {
        None
    } else if round.warps {
        Some(device.launch_warps_with_stats(n, |w| {
            let p = ptrs[w.warp as usize];
            if !p.is_null() {
                let _ = alloc.free(&w.leader(), p);
            }
        }))
    } else {
        Some(device.launch_with_stats(n, |ctx| {
            let p = ptrs[ctx.thread_id as usize];
            if !p.is_null() {
                let _ = alloc.free(ctx, p);
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bump::Bump;
    use gpu_sim::DeviceSpec;
    use gpumem_core::sync::Ordering;
    use gpumem_core::ManagerInfo;

    fn device() -> Device {
        Device::with_workers(DeviceSpec::titan_v(), 2)
    }

    fn calls(a: &Bump) -> (u64, u64) {
        (a.frees.load(Ordering::Relaxed), a.warp_frees.load(Ordering::Relaxed))
    }

    #[test]
    fn thread_round_counts_failures_and_a_no_free_manager_launches_nothing() {
        let (a, d) = (Bump::new(100 * 64, 0), device());
        let r = malloc_threads(&a, &d, 1000, |_| 64);
        assert_eq!((r.ptrs.len(), r.failures), (1000, 900), "100 grants fit the heap");
        // `None` comes only from the branch that launches nothing.
        assert!(free(&a, &d, &r).is_none());
    }

    #[test]
    fn warp_level_only_frees_once_per_warp_of_the_round() {
        let info = ManagerInfo::builder("Fdg").supports_free(false).warp_level_only(true).build();
        let (a, d) = (Bump::with_info(1 << 20, 0, info), device());
        assert!(free(&a, &d, &malloc_threads(&a, &d, 100, |_| 16)).is_some());
        assert_eq!(calls(&a), (0, 4), "⌈100/32⌉ warps after a thread round");
        assert!(free(&a, &d, &malloc_warps(&a, &d, 100, |_| 16)).is_some());
        assert_eq!(calls(&a), (0, 4 + 100), "one per warp after a warp round");
    }

    #[test]
    fn per_thread_free_skips_null_slots() {
        let freeing = || Bump::with_info(40 * 64, 0, ManagerInfo::builder("Freeing").build());
        let (a, d) = (freeing(), device());
        assert!(free(&a, &d, &malloc_threads(&a, &d, 64, |_| 64)).is_some());
        assert_eq!(calls(&a), (40, 0), "24 of the 64 slots are NULL");
        let a = freeing();
        assert!(free(&a, &d, &malloc_warps(&a, &d, 64, |_| 64)).is_some());
        assert_eq!(calls(&a), (40, 0), "warp rounds free through the leader");
    }
}

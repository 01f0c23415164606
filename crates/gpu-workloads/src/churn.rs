//! Repeated allocation/deallocation churn.
//!
//! The paper observes (§4.2.1, warp-based discussion) that "the two
//! Multi-Reg-Eff variants also start strong, but have an issue with
//! repeated allocations/deallocations, slowing down significantly over
//! time". This workload is that cycle: the same allocate-all/free-all round
//! repeated, counting the requests that got no pointer. The `churn` matrix
//! scenario anchors those failures and the `sanitize` scenario runs the
//! cycle under the shadow heap; nothing times the cycles.

use gpu_sim::Device;
use gpumem_core::DeviceAllocator;

use crate::round;

/// Runs `cycles` iterations of (allocate `n_threads`×`size`, free all) and
/// returns the allocation failures over the whole run.
pub fn run(
    alloc: &dyn DeviceAllocator,
    device: &Device,
    n_threads: u32,
    size: u64,
    cycles: u32,
) -> u64 {
    let mut failures = 0;
    for _ in 0..cycles {
        let r = round::malloc_threads(alloc, device, n_threads, |_| size);
        failures += r.failures;
        // No free: the run degenerates to repeated bump allocation and will
        // start failing — still a valid measurement of that fact.
        round::free(alloc, device, &r);
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bump::Bump;
    use gpu_sim::DeviceSpec;
    use gpumem_core::sync::Ordering;
    use gpumem_core::ManagerInfo;

    /// A freeing bump manager whose frees release nothing: its heap holds
    /// three cycles, so the other seven fail every request, and each cycle
    /// frees what it got.
    #[test]
    fn churn_records_every_cycle() {
        const THREADS: u64 = 512;
        let info = ManagerInfo::builder("Freeing").build();
        let a = Bump::with_info(3 * THREADS * 64, 0, info);
        let device = Device::with_workers(DeviceSpec::titan_v(), 2);
        assert_eq!(run(&a, &device, THREADS as u32, 64, 10), 7 * THREADS);
        assert_eq!(a.frees.load(Ordering::Relaxed), 3 * THREADS);
    }
}

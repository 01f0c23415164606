//! Thread and warp identity, the SIMT coordinates of an allocation request.
//!
//! The surveyed allocators are not oblivious to *who* is asking: ScatterAlloc
//! hashes the multiprocessor id into its page hash, Reg-Eff-CM/-CFM keep one
//! ring offset per SM, FDGMalloc keys its whole state on the warp, and
//! XMalloc/Halloc coalesce requests issued by the same warp. The simulated
//! executor (crate `gpu-sim`) fabricates these coordinates when it schedules
//! logical threads; benchmarks and tests may also construct them directly.

/// Number of lanes per warp — fixed at 32 on every NVIDIA architecture the
/// paper evaluates.
pub const WARP_SIZE: u32 = 32;

/// The identity of one simulated GPU thread at one point of execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ThreadCtx {
    /// Global linear thread id (`blockIdx * blockDim + threadIdx` flattened).
    pub thread_id: u32,
    /// Lane within the warp, `0..WARP_SIZE`.
    pub lane: u32,
    /// Global warp id (`thread_id / WARP_SIZE`).
    pub warp: u32,
    /// Block id the thread belongs to.
    pub block: u32,
    /// Multiprocessor the warp is resident on. The executor assigns this;
    /// hash-scattering allocators consume it.
    pub sm: u32,
}

impl ThreadCtx {
    /// Builds a context from a flat thread id, assigning lane/warp ids and a
    /// round-robin SM placement — the layout the simulated executor uses.
    pub fn from_linear(thread_id: u32, block_size: u32, num_sms: u32) -> Self {
        debug_assert!(block_size > 0 && num_sms > 0);
        let warp = thread_id / WARP_SIZE;
        let block = thread_id / block_size;
        ThreadCtx {
            thread_id,
            lane: thread_id % WARP_SIZE,
            warp,
            block,
            // Warps of the same block stay on the same SM, blocks round-robin
            // over SMs — the same placement heuristic real hardware exhibits
            // for a saturating launch.
            sm: block % num_sms,
        }
    }

    /// A convenience context for host-side tests: thread 0 of warp 0 on SM 0.
    pub fn host() -> Self {
        ThreadCtx { thread_id: 0, lane: 0, warp: 0, block: 0, sm: 0 }
    }

    /// A deterministic per-thread hash, used by allocators that scatter by
    /// thread id (and by tests that need reproducible per-thread values).
    #[inline]
    pub fn scatter_hash(&self) -> u64 {
        crate::util::mix64(self.thread_id as u64 ^ ((self.sm as u64) << 32))
    }
}

/// The identity of a warp performing a *collective* operation.
///
/// Warp-level entry points ([`crate::DeviceAllocator::malloc_warp`]) receive
/// this instead of a single [`ThreadCtx`]; the allocator may assume all 32
/// lanes participate (warp-synchronous model, the pre-Volta behaviour the
/// paper compiles most managers for).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WarpCtx {
    /// Global warp id.
    pub warp: u32,
    /// Block the warp belongs to.
    pub block: u32,
    /// Multiprocessor the warp is resident on.
    pub sm: u32,
}

impl WarpCtx {
    /// Warp `warp` of a launch in blocks of `block_size` threads over
    /// `num_sms` SMs: the block and SM [`ThreadCtx::from_linear`] gives each
    /// of its lanes. `block_size` is a multiple of [`WARP_SIZE`], as on the
    /// hardware, so a warp never spans two blocks.
    #[inline]
    pub fn from_linear(warp: u32, block_size: u32, num_sms: u32) -> Self {
        debug_assert!(block_size > 0 && block_size.is_multiple_of(WARP_SIZE) && num_sms > 0);
        let block = warp / (block_size / WARP_SIZE);
        WarpCtx { warp, block, sm: block % num_sms }
    }

    /// The context of the warp's leader lane (lane 0) as a [`ThreadCtx`].
    pub fn leader(&self) -> ThreadCtx {
        ThreadCtx {
            thread_id: self.warp * WARP_SIZE,
            lane: 0,
            warp: self.warp,
            block: self.block,
            sm: self.sm,
        }
    }

    /// The context of an arbitrary lane of this warp.
    pub fn lane(&self, lane: u32) -> ThreadCtx {
        debug_assert!(lane < WARP_SIZE);
        ThreadCtx {
            thread_id: self.warp * WARP_SIZE + lane,
            lane,
            warp: self.warp,
            block: self.block,
            sm: self.sm,
        }
    }

    /// Builds the warp context that contains `ctx`.
    pub fn of(ctx: &ThreadCtx) -> Self {
        WarpCtx { warp: ctx.warp, block: ctx.block, sm: ctx.sm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_layout() {
        let c = ThreadCtx::from_linear(100, 256, 80);
        assert_eq!(c.thread_id, 100);
        assert_eq!(c.lane, 100 % 32);
        assert_eq!(c.warp, 100 / 32);
        assert_eq!(c.block, 0);
        assert_eq!(c.sm, 0);

        let c = ThreadCtx::from_linear(1000, 256, 80);
        assert_eq!(c.block, 3);
        assert_eq!(c.sm, 3);
    }

    #[test]
    fn sm_round_robin_wraps() {
        let c = ThreadCtx::from_linear(256 * 85, 256, 80);
        assert_eq!(c.block, 85);
        assert_eq!(c.sm, 5);
    }

    #[test]
    fn warp_lanes_cover_thread_ids() {
        let w = WarpCtx { warp: 7, block: 0, sm: 3 };
        assert_eq!(w.leader().thread_id, 7 * 32);
        assert_eq!(w.lane(31).thread_id, 7 * 32 + 31);
        assert_eq!(w.lane(31).sm, 3);
    }

    #[test]
    fn warp_from_linear_matches_its_lanes() {
        for (block_size, num_sms) in [(32, 1), (64, 7), (256, 80), (256, 68), (1024, 3)] {
            for warp in 0..2_000 {
                let w = WarpCtx::from_linear(warp, block_size, num_sms);
                for lane in [0, 1, 31] {
                    let tid = warp * WARP_SIZE + lane;
                    assert_eq!(w.lane(lane), ThreadCtx::from_linear(tid, block_size, num_sms));
                }
            }
        }
    }

    #[test]
    fn warp_of_thread() {
        let c = ThreadCtx::from_linear(1234, 128, 68);
        let w = WarpCtx::of(&c);
        assert_eq!(w.warp, c.warp);
        assert_eq!(w.sm, c.sm);
    }

    #[test]
    fn scatter_hash_differs_between_threads() {
        let a = ThreadCtx::from_linear(0, 256, 80).scatter_hash();
        let b = ThreadCtx::from_linear(1, 256, 80).scatter_hash();
        assert_ne!(a, b);
    }
}

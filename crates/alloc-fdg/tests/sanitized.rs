//! FDGMalloc under the shadow-heap sanitizer.
//!
//! FDG is warp-level-only: threads allocate from their warp's SuperBlocks
//! and nothing is freed individually — `free_warp_all` (the original's
//! `tidyUp`) releases a warp's entire history at once. The sanitizer tracks
//! those allocations per warp and retires them collectively, so a
//! SuperBlock handed to two warps, or a tidyUp that misses a block, would
//! show up as Overlap / leftover live allocations.

use alloc_fdg::FdgMalloc;
use gpumem_core::sanitize::Sanitized;
use gpumem_core::{DeviceAllocator, WarpCtx};

#[test]
fn warp_lifecycle_is_clean() {
    let san = Sanitized::new(FdgMalloc::with_capacity(32 << 20));
    assert!(san.info().warp_level_only);
    for round in 0..3u32 {
        for warp in 0..4u32 {
            let w = WarpCtx { warp, block: 0, sm: warp % 2 };
            for lane in 0..32u32 {
                let ctx = w.lane(lane);
                let p = san.malloc(&ctx, 16 + ((round + lane) as u64 % 8) * 24).unwrap();
                san.heap().fill(p, 16, lane as u8);
            }
            san.free_warp_all(&w).unwrap();
        }
    }
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.live, 0, "tidyUp must retire every tracked allocation");
}

#[test]
fn interleaved_warps_do_not_alias() {
    let san = Sanitized::new(FdgMalloc::with_capacity(32 << 20));
    let w0 = WarpCtx { warp: 10, block: 1, sm: 0 };
    let w1 = WarpCtx { warp: 11, block: 1, sm: 1 };
    // Two warps allocate turn by turn from the same manager before either
    // tidies up: their SuperBlock carves must stay disjoint.
    for i in 0..48u64 {
        let _ = san.malloc(&w0.lane((i % 32) as u32), 64 + (i % 4) * 32).unwrap();
        let _ = san.malloc(&w1.lane((i % 32) as u32), 48 + (i % 3) * 48).unwrap();
    }
    san.free_warp_all(&w0).unwrap();
    let mid = san.report();
    assert!(mid.is_clean(), "{mid}");
    assert!(mid.live > 0, "warp 11 still holds its allocations");
    san.free_warp_all(&w1).unwrap();
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.live, 0);
}

//! ScatterAlloc under the shadow-heap sanitizer: hashed page placement must
//! never hand two threads bytes of the same page slot.

use alloc_scatter::ScatterAlloc;
use gpumem_core::sanitize::Sanitized;
use gpumem_core::{DeviceAllocator, DevicePtr, WarpCtx};

#[test]
fn hashed_placement_churn_is_clean() {
    let san = Sanitized::new(ScatterAlloc::with_capacity(32 << 20));
    // Distinct SIMT coordinates drive ScatterAlloc's hash scattering.
    for warp in 0..4u32 {
        let w = WarpCtx { warp, block: warp / 2, sm: warp % 2 };
        let ptrs: Vec<_> = (0..32u32)
            .map(|lane| {
                let ctx = w.lane(lane);
                san.malloc(&ctx, 16 + ((warp + lane) as u64 % 16) * 64).unwrap()
            })
            .collect();
        for (lane, p) in ptrs.into_iter().enumerate() {
            san.free(&w.lane(lane as u32), p).unwrap();
        }
    }
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.live, 0);
}

#[test]
fn warp_collective_path_is_clean() {
    let san = Sanitized::new(ScatterAlloc::with_capacity(16 << 20));
    let w = WarpCtx { warp: 7, block: 1, sm: 3 };
    let mut out = [DevicePtr::NULL; 32];
    san.malloc_warp(&w, &[256; 32], &mut out).unwrap();
    san.free_warp(&w, &out).unwrap();
    assert!(san.report().is_clean(), "{}", san.report());
}

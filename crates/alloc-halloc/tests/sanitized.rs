//! Halloc under the shadow-heap sanitizer: the hashed slab path and the
//! large-request relay to the embedded CUDA-Allocator model must both stay
//! free of aliasing and free-path bugs.

use alloc_halloc::Halloc;
use gpumem_core::sanitize::Sanitized;
use gpumem_core::{DeviceAllocator, DevicePtr, ThreadCtx, WarpCtx};

#[test]
fn slab_and_relay_churn_is_clean() {
    let san = Sanitized::new(Halloc::with_capacity(32 << 20));
    let ctx = ThreadCtx::host();
    for cycle in 0..4u64 {
        // Mix small slab-served sizes with requests past the slab maximum
        // (relayed to the busy-list allocator).
        let ptrs: Vec<_> = (0..64u64)
            .map(|i| {
                let size = if i % 8 == 0 { 4096 + cycle * 512 } else { 16 + (i % 6) * 40 };
                san.malloc(&ctx, size).unwrap()
            })
            .collect();
        for p in ptrs {
            san.free(&ctx, p).unwrap();
        }
    }
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.live, 0);
}

#[test]
fn warp_collective_path_is_clean() {
    let san = Sanitized::new(Halloc::with_capacity(16 << 20));
    let w = WarpCtx { warp: 5, block: 2, sm: 0 };
    let mut out = [DevicePtr::NULL; 32];
    san.malloc_warp(&w, &[64; 32], &mut out).unwrap();
    san.free_warp(&w, &out).unwrap();
    assert!(san.report().is_clean(), "{}", san.report());
}

//! The CUDA-Allocator model under the shadow-heap sanitizer.

use alloc_cuda::CudaAllocModel;
use gpumem_core::sanitize::Sanitized;
use gpumem_core::{DeviceAllocator, DevicePtr, ThreadCtx, WarpCtx};

#[test]
fn churn_with_reverse_frees_is_clean() {
    let san = Sanitized::new(CudaAllocModel::with_capacity(16 << 20));
    let ctx = ThreadCtx::host();
    for cycle in 0..5u64 {
        let ptrs: Vec<_> =
            (0..100u64).map(|i| san.malloc(&ctx, 16 + ((cycle + i) % 20) * 60).unwrap()).collect();
        for p in ptrs.into_iter().rev() {
            san.free(&ctx, p).unwrap();
        }
    }
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.live, 0);
}

#[test]
fn warp_collective_path_is_clean() {
    let san = Sanitized::new(CudaAllocModel::with_capacity(8 << 20));
    let w = WarpCtx { warp: 1, block: 0, sm: 0 };
    let mut out = [DevicePtr::NULL; 32];
    san.malloc_warp(&w, &[128; 32], &mut out).unwrap();
    // Payload writes cover the full request: the redzone must sit outside.
    for (lane, p) in out.iter().enumerate() {
        san.heap().fill(*p, 128, lane as u8);
    }
    san.free_warp(&w, &out).unwrap();
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.live, 0);
}

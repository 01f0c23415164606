//! XMalloc under the shadow-heap sanitizer: basic-block carving, FIFO
//! recycling and the warp-coalesced path must never alias live payloads.

use alloc_xmalloc::XMalloc;
use gpumem_core::sanitize::Sanitized;
use gpumem_core::{AllocError, DeviceAllocator, DevicePtr, ThreadCtx, WarpCtx};

#[test]
fn fifo_recycling_churn_is_clean() {
    let san = Sanitized::new(XMalloc::with_capacity(16 << 20));
    let ctx = ThreadCtx::host();
    // Repeated same-size cycles force XMalloc's FIFO buffers to recycle
    // blocks; a stale FIFO entry would surface as Overlap or DoubleFree.
    for _ in 0..6 {
        let ptrs: Vec<_> =
            (0..80u64).map(|i| san.malloc(&ctx, 32 + (i % 4) * 32).unwrap()).collect();
        for p in &ptrs {
            san.heap().fill(*p, 32, 0xab);
        }
        for p in ptrs {
            san.free(&ctx, p).unwrap();
        }
    }
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.live, 0);
}

#[test]
fn coalesced_warp_path_is_clean() {
    let san = Sanitized::new(XMalloc::with_capacity(16 << 20));
    let w = WarpCtx { warp: 2, block: 0, sm: 1 };
    for _ in 0..4 {
        let mut out = [DevicePtr::NULL; 32];
        san.malloc_warp(&w, &[96; 32], &mut out).unwrap();
        for (lane, p) in out.iter().enumerate() {
            san.heap().fill(*p, 96, lane as u8);
        }
        san.free_warp(&w, &out).unwrap();
    }
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.live, 0);
}

#[test]
fn wrapped_warp_total_is_refused_cleanly() {
    // A lane sum past u64::MAX used to wrap, carve a tiny block and write
    // lane headers outside it; it must fail whole, with the shadow heap empty.
    let san = Sanitized::new(XMalloc::with_capacity(1 << 20));
    let w = WarpCtx { warp: 0, block: 0, sm: 0 };
    let mut out = [DevicePtr::NULL; 2];
    let r = san.malloc_warp(&w, &[u64::MAX - 100, 64], &mut out);
    assert!(matches!(r, Err(AllocError::UnsupportedSize(_))), "{r:?}");
    assert_eq!(out, [DevicePtr::NULL; 2]);
    san.malloc_warp(&w, &[64, 64], &mut out).unwrap();
    san.free_warp(&w, &out).unwrap();
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.live, 0);
}

#[test]
fn mmap_backed_heap_run_is_clean() {
    use gpumem_core::{DeviceHeap, HeapBackendKind, HeapSpec, ThreadCtx};
    use std::sync::Arc;
    if !HeapBackendKind::Mmap.available() {
        return;
    }
    // Same manager, lazily-committed MAP_NORESERVE substrate: pages must
    // appear zeroed on first touch exactly like the RAM backend's.
    let heap = Arc::new(DeviceHeap::try_new(HeapSpec::mmap(32 << 20)).unwrap());
    let san = Sanitized::new(XMalloc::new(heap));
    let ctx = ThreadCtx::host();
    let ptrs: Vec<_> = (0..128u64)
        .map(|i| {
            let size = 16 + (i % 16) * 48;
            let p = san.malloc(&ctx, size).unwrap();
            san.heap().fill(p, size, (i % 251) as u8 | 1);
            assert_eq!(san.heap().read_u8(p, size - 1), (i % 251) as u8 | 1);
            p
        })
        .collect();
    for p in ptrs {
        san.free(&ctx, p).unwrap();
    }
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
}

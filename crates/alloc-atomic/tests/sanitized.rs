//! The Atomic baseline under the shadow-heap sanitizer.
//!
//! Atomic is "no true memory manager" (paper §4): a bump pointer with no
//! free. Under the sanitizer that means every allocation stays live, and
//! the free path must pass through (counted by the inner manager's error,
//! not as a shadow violation — losing the pointer is this design's
//! documented behaviour, not a bug).

use alloc_atomic::AtomicAlloc;
use gpumem_core::sanitize::Sanitized;
use gpumem_core::{DeviceAllocator, ThreadCtx};

#[test]
fn bump_allocation_is_clean_and_fully_live() {
    let san = Sanitized::new(AtomicAlloc::with_capacity(1 << 22));
    let ctx = ThreadCtx::host();
    let ptrs: Vec<_> = (0..200u64).map(|i| san.malloc(&ctx, 16 + (i % 13) * 48).unwrap()).collect();
    for (i, p) in ptrs.iter().enumerate() {
        san.heap().fill(*p, 16, i as u8);
    }
    let report = san.take_report();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.live, 200, "nothing can be freed, everything stays live");
}

#[test]
fn free_passes_through_without_shadow_violation() {
    let san = Sanitized::new(AtomicAlloc::with_capacity(1 << 20));
    let ctx = ThreadCtx::host();
    let p = san.malloc(&ctx, 64).unwrap();
    assert!(san.free(&ctx, p).is_err(), "the baseline has no free");
    let report = san.report();
    assert!(report.is_clean(), "an unsupported free is not a violation: {report}");
    assert_eq!(report.live, 1);
}

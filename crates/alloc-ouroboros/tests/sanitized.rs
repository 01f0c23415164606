//! All six Ouroboros instantiations under the shadow-heap sanitizer.
//!
//! The queues recycle page/chunk indices; an off-by-one in index→offset
//! translation or a premature re-enqueue shows up as Overlap or DoubleFree
//! in the shadow map.

use alloc_ouroboros::{OuroSC, OuroSP, OuroVAC, OuroVAP, OuroVLC, OuroVLP};
use gpumem_core::sanitize::Sanitized;
use gpumem_core::{DeviceAllocator, ThreadCtx};

fn churn<A: DeviceAllocator>(alloc: A, label: &str) {
    let san = Sanitized::new(alloc);
    let ctx = ThreadCtx::host();
    for cycle in 0..4u64 {
        let ptrs: Vec<_> = (0..64u64)
            .map(|i| san.malloc(&ctx, 16 + ((cycle * 3 + i) % 12) * 80).unwrap())
            .collect();
        // Interleave frees with fresh allocations so recycled indices are
        // reused while neighbours are still live.
        for (i, p) in ptrs.into_iter().enumerate() {
            san.free(&ctx, p).unwrap();
            if i % 4 == 0 {
                let q = san.malloc(&ctx, 128).unwrap();
                san.free(&ctx, q).unwrap();
            }
        }
    }
    let report = san.take_report();
    assert!(report.is_clean(), "{label}: {report}");
    assert_eq!(report.live, 0, "{label}");
}

#[test]
fn ouro_s_p_recycling_is_clean() {
    churn(OuroSP::with_capacity(16 << 20), "Ouro-S-P");
}

#[test]
fn ouro_s_c_recycling_is_clean() {
    churn(OuroSC::with_capacity(16 << 20), "Ouro-S-C");
}

#[test]
fn ouro_va_p_recycling_is_clean() {
    churn(OuroVAP::with_capacity(16 << 20), "Ouro-VA-P");
}

#[test]
fn ouro_va_c_recycling_is_clean() {
    churn(OuroVAC::with_capacity(16 << 20), "Ouro-VA-C");
}

#[test]
fn ouro_vl_p_recycling_is_clean() {
    churn(OuroVLP::with_capacity(16 << 20), "Ouro-VL-P");
}

#[test]
fn ouro_vl_c_recycling_is_clean() {
    churn(OuroVLC::with_capacity(16 << 20), "Ouro-VL-C");
}

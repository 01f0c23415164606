//! All four Register-Efficient variants under the shadow-heap sanitizer.
//!
//! Reg-Eff keeps headers *inside* the managed region; splitting and merging
//! rewrite them in place. The sanitizer's redzones sit directly where a
//! header-arithmetic bug would scribble, so a clean run is strong evidence
//! the offset math of each codec (TwoWord / Fused, circular / multi) is
//! sound.

use alloc_regeff::{RegEffC, RegEffCF, RegEffCFM, RegEffCM};
use gpumem_core::sanitize::Sanitized;
use gpumem_core::{DeviceAllocator, ThreadCtx};

fn churn<A: DeviceAllocator>(alloc: A, label: &str) {
    let san = Sanitized::new(alloc);
    let ctx = ThreadCtx::host();
    for cycle in 0..4u64 {
        // Mixed sizes provoke splits; freeing in address order provokes the
        // neighbour merges where stale headers would be read.
        let mut ptrs: Vec<_> = (0..96u64)
            .map(|i| san.malloc(&ctx, 16 + ((cycle * 5 + i) % 24) * 36).unwrap())
            .collect();
        ptrs.sort_unstable();
        for p in ptrs {
            san.free(&ctx, p).unwrap();
        }
    }
    let report = san.take_report();
    assert!(report.is_clean(), "{label}: {report}");
    assert_eq!(report.live, 0, "{label}");
}

#[test]
fn regeff_c_split_merge_churn_is_clean() {
    churn(RegEffC::with_capacity(8 << 20, 8), "RegEff-C");
}

#[test]
fn regeff_cf_split_merge_churn_is_clean() {
    churn(RegEffCF::with_capacity(8 << 20, 8), "RegEff-CF");
}

#[test]
fn regeff_cm_split_merge_churn_is_clean() {
    churn(RegEffCM::with_capacity(8 << 20, 8), "RegEff-CM");
}

#[test]
fn regeff_cfm_split_merge_churn_is_clean() {
    churn(RegEffCFM::with_capacity(8 << 20, 8), "RegEff-CFM");
}

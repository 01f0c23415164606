//! Near-max request battery: every kind in the registry's four stacks
//! (`Counted` innermost, with `Cached`, `Traced` or both around it), and the
//! sanitizer over the plain stack, asked for sizes at and around `u64::MAX`,
//! at the heap length and at every size-class edge plus a header.
//!
//! A wrapped `size + header` or `align_up(size, …)` turns an absurd request
//! into a small one that passes the length guard. Debug builds trap the
//! overflow, so a wrap anywhere in a stack panics here; release builds wrap
//! silently, and the grant-bounds check below is what catches them there
//! (`scripts/check.sh` runs this battery in both).

use std::sync::Arc;

use gpumemsurvey::bench::registry::{ManagerKind, ALL_KINDS};
use gpumemsurvey::core::sanitize::Sanitized;
use gpumemsurvey::prelude::*;

const HEAP: u64 = 8 << 20;

/// The registry's four stacks of `kind`, then `Sanitized` over the plain
/// stack with metrics off.
fn stacks(kind: ManagerKind) -> Vec<(String, Arc<dyn DeviceAllocator>)> {
    let mut v = Vec::new();
    for (cached, traced) in [(false, false), (true, false), (false, true), (true, true)] {
        let b = kind.builder().heap(HEAP).sms(80).metrics(true).cached(cached);
        let alloc = if traced { b.trace_capacity(256) } else { b }.build();
        v.push((format!("{kind} (cached: {cached}, traced: {traced})"), alloc));
    }
    let plain = kind.builder().heap(HEAP).sms(80).build();
    v.push((format!("{kind} (sanitized)"), Arc::new(Sanitized::new(plain))));
    v
}

/// `Err`, or a grant inside a heap of `len` bytes.
fn refused_or_in_heap(r: &Result<DevicePtr, AllocError>, size: u64, len: u64) -> bool {
    r.as_ref().map_or(true, |p| p.offset().checked_add(size).is_some_and(|end| end <= len))
}

#[test]
fn near_max_requests_are_refused_or_granted_in_heap() {
    let ctx = ThreadCtx::host();
    let refuse: Vec<u64> =
        (0..=4_200).map(|d| u64::MAX - d).chain([u64::MAX / 2, 1 << 63, 1 << 32]).collect();
    // Every power-of-two class edge from 16 B to 16 KiB, plus each header a
    // manager adds, as given and one below.
    let edges: Vec<u64> = (4..=14)
        .flat_map(|e| [0, 8, 16, 32, 48].map(|h| (1u64 << e) + h))
        .flat_map(|s| [s, s - 1])
        .collect();
    for kind in ALL_KINDS {
        for (at, alloc) in stacks(kind) {
            for &size in &refuse {
                assert!(alloc.malloc(&ctx, size).is_err(), "{at}: {size:#x} must be refused");
            }
            let len = alloc.heap().len();
            let small = alloc.malloc(&ctx, 16);
            assert!(small.is_ok(), "{at}: a refused request left the manager unusable");
            assert!(refused_or_in_heap(&small, 16, len), "{at}: 16 B granted past the heap");

            // One lane past the end of the address space fails the warp: that
            // lane comes back null, and whatever lane was served is in heap.
            let mut sizes = [16u64; 32];
            sizes[7] = u64::MAX - 15;
            let mut out = [DevicePtr::NULL; 32];
            let warp = WarpCtx { warp: 1, block: 1, sm: 1 };
            let _ = alloc.malloc_warp(&warp, &sizes, &mut out);
            assert!(out[7].is_null(), "{at}: the near-max lane was granted {:?}", out[7]);
            for p in out.iter().filter(|p| !p.is_null()) {
                assert!(refused_or_in_heap(&Ok(*p), 16, len), "{at}: lane granted at {p:?}");
            }

            // Last, because a heap-sized request exhausts Atomic for good (by
            // design: its bump offset never rolls back).
            for &size in edges.iter().chain(&[len - 1, len, len + 1]) {
                let r = alloc.malloc(&ctx, size);
                assert!(refused_or_in_heap(&r, size, len), "{at}: {size:#x} granted as {r:?}");
            }
        }
    }
}

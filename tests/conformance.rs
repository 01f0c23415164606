//! Conformance battery: one set of behavioural requirements, executed
//! against every evaluated manager. Complements the per-crate unit tests
//! (which exercise internals) with black-box checks through the public
//! trait only. Every heap here is the default, committed in full;
//! `tests/heap_backends.rs` runs every manager over a sparse (`Lazy`) one.

use gpumemsurvey::bench::registry::{ManagerKind, DEFAULT_KINDS};
use gpumemsurvey::core::sanitize::Sanitized;
use gpumemsurvey::core::util::next_pow2;
use gpumemsurvey::prelude::*;

const HEAP: u64 = 64 << 20;

fn kinds_with_free() -> impl Iterator<Item = ManagerKind> {
    DEFAULT_KINDS.into_iter().filter(|k| *k != ManagerKind::Atomic)
}

fn worst_case_footprint(kind: ManagerKind, size: u64) -> u64 {
    // Upper bound of the space a manager may legitimately consume for one
    // request (class rounding / page rounding / headers).
    let _ = kind;
    next_pow2(size.max(16)).max(32) * 2 + 4096
}

#[test]
fn boundary_sizes_roundtrip() {
    // Exact power-of-two boundaries and their neighbours are where class
    // rounding bugs live.
    let sizes: Vec<u64> = (4..=13)
        .flat_map(|e| {
            let p = 1u64 << e;
            [p - 1, p, p + 1]
        })
        .collect();
    for kind in DEFAULT_KINDS {
        let alloc = kind.builder().heap(HEAP).sms(80).build();
        let ctx = ThreadCtx::host();
        for &size in &sizes {
            let p = alloc
                .malloc(&ctx, size)
                .unwrap_or_else(|e| panic!("{} size {size}: {e}", kind.label()));
            alloc.heap().fill(p, size, 0x42);
            assert_eq!(alloc.heap().read_u8(p, size - 1), 0x42);
            if alloc.info().supports_free {
                alloc.free(&ctx, p).unwrap_or_else(|e| panic!("{} size {size}: {e}", kind.label()));
            }
        }
    }
}

#[test]
fn one_byte_allocations_are_usable() {
    for kind in DEFAULT_KINDS {
        let alloc = kind.builder().heap(HEAP).sms(80).build();
        let ctx = ThreadCtx::host();
        let a = alloc.malloc(&ctx, 1).unwrap();
        let b = alloc.malloc(&ctx, 1).unwrap();
        assert_ne!(a, b, "{}", kind.label());
        alloc.heap().fill(a, 1, 1);
        alloc.heap().fill(b, 1, 2);
        assert_eq!(alloc.heap().read_u8(a, 0), 1, "{}", kind.label());
        assert_eq!(alloc.heap().read_u8(b, 0), 2, "{}", kind.label());
    }
}

#[test]
fn free_in_reverse_and_random_order() {
    for kind in kinds_with_free() {
        let alloc = kind.builder().heap(HEAP).sms(80).build();
        let ctx = ThreadCtx::host();
        // Reverse order.
        let ptrs: Vec<DevicePtr> =
            (0..200).map(|i| alloc.malloc(&ctx, 32 + (i % 8) * 64).unwrap()).collect();
        for p in ptrs.iter().rev() {
            alloc.free(&ctx, *p).unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        }
        // Pseudo-random order.
        let mut ptrs: Vec<DevicePtr> =
            (0..200).map(|i| alloc.malloc(&ctx, 16 + (i % 16) * 48).unwrap()).collect();
        let mut state = 0x12345u64;
        while !ptrs.is_empty() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (state >> 33) as usize % ptrs.len();
            let p = ptrs.swap_remove(i);
            alloc.free(&ctx, p).unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        }
    }
}

#[test]
fn churn_does_not_leak_space() {
    // Allocate/free the same demand many times; if a manager leaks per
    // cycle, the heap eventually refuses a demand it previously served.
    for kind in kinds_with_free() {
        let alloc = kind.builder().heap(16 << 20).sms(80).build();
        let ctx = ThreadCtx::host();
        for cycle in 0..50 {
            let ptrs: Vec<DevicePtr> = (0..256)
                .map(|i| {
                    alloc
                        .malloc(&ctx, 64 + (i % 4) * 256)
                        .unwrap_or_else(|e| panic!("{} leaked by cycle {cycle}: {e}", kind.label()))
                })
                .collect();
            for p in ptrs {
                alloc.free(&ctx, p).unwrap();
            }
        }
    }
}

#[test]
fn interleaved_lifetimes() {
    // Long-lived allocations pinned while short-lived churn happens around
    // them; pinned payloads must survive.
    for kind in kinds_with_free() {
        let alloc = kind.builder().heap(32 << 20).sms(80).build();
        let ctx = ThreadCtx::host();
        let pinned: Vec<(DevicePtr, u8)> = (0..32)
            .map(|i| {
                let p = alloc.malloc(&ctx, 512).unwrap();
                let tag = (i as u8) | 0x80;
                alloc.heap().fill(p, 512, tag);
                (p, tag)
            })
            .collect();
        for round in 0..20 {
            let churn: Vec<DevicePtr> = (0..128)
                .map(|i| {
                    let p = alloc.malloc(&ctx, 16 + ((round + i) % 32) * 32).unwrap();
                    alloc.heap().fill(p, 16, 0x0f);
                    p
                })
                .collect();
            for p in churn {
                alloc.free(&ctx, p).unwrap();
            }
        }
        for (p, tag) in pinned {
            assert_eq!(alloc.heap().read_u8(p, 511), tag, "{}", kind.label());
            alloc.free(&ctx, p).unwrap();
        }
    }
}

#[test]
fn null_and_foreign_pointers_rejected_by_free() {
    for kind in kinds_with_free() {
        let alloc = kind.builder().heap(HEAP).sms(80).build();
        let ctx = ThreadCtx::host();
        assert_eq!(
            alloc.free(&ctx, DevicePtr::NULL),
            Err(AllocError::InvalidPointer),
            "{}",
            kind.label()
        );
        // An offset that was never returned: either rejected or — for
        // designs whose pointer math cannot distinguish it (none today) —
        // at minimum must not panic. We require rejection.
        let bogus = DevicePtr::new(alloc.heap().len() - 8);
        assert!(
            alloc.free(&ctx, bogus).is_err(),
            "{}: freeing a never-allocated pointer must fail",
            kind.label()
        );
    }
}

#[test]
fn alignment_declared_equals_alignment_observed() {
    for kind in DEFAULT_KINDS {
        let alloc = kind.builder().heap(HEAP).sms(80).build();
        let info = alloc.info();
        let ctx = ThreadCtx::host();
        for size in [1u64, 3, 17, 100, 1000, 5000] {
            let p = alloc.malloc(&ctx, size).unwrap();
            assert!(
                p.is_aligned(info.alignment),
                "{}: declared {} but got {p:?} for size {size}",
                info.label(),
                info.alignment
            );
        }
    }
}

#[test]
fn oversize_requests_fail_cleanly() {
    for kind in DEFAULT_KINDS {
        let alloc = kind.builder().heap(HEAP).sms(80).build();
        let ctx = ThreadCtx::host();
        let r = alloc.malloc(&ctx, HEAP * 2);
        assert!(
            matches!(r, Err(AllocError::OutOfMemory(_)) | Err(AllocError::UnsupportedSize(_))),
            "{}: {r:?}",
            kind.label()
        );
        // The manager remains usable afterwards — except the Atomic
        // baseline, which documents that its bump offset is never rolled
        // back ("no true memory manager", §4).
        if kind != ManagerKind::Atomic {
            assert!(alloc.malloc(&ctx, 64).is_ok(), "{}", kind.label());
        }
    }
}

#[test]
fn per_allocation_space_overhead_is_bounded() {
    // Allocate a known demand and verify the manager fits it into a
    // reasonable envelope (catches gross layout regressions). The
    // CUDA-Allocator model is exempt: it deliberately carves units from
    // both ends of its region (the paper's maximum-address-range
    // fragmentation signature, §4.3.1), so its address span is the whole
    // heap by design.
    for kind in kinds_with_free().filter(|k| *k != ManagerKind::CudaAllocator) {
        let alloc = kind.builder().heap(HEAP).sms(80).build();
        let ctx = ThreadCtx::host();
        let size = 1000u64;
        let n = 1000u64;
        let mut max_end = 0u64;
        for _ in 0..n {
            let p = alloc.malloc(&ctx, size).unwrap();
            max_end = max_end.max(p.offset() + size);
        }
        let budget: u64 = n * worst_case_footprint(kind, size);
        assert!(
            max_end <= budget + HEAP / 4,
            "{}: {n}x{size} B spread to {max_end} (> budget {budget})",
            kind.label()
        );
    }
}

#[test]
fn sanitized_mixed_workload_is_clean_for_every_manager() {
    // The whole battery above checks behaviour the caller can observe; this
    // one puts the shadow-heap sanitizer between the test and the manager so
    // overlaps, bounds/alignment violations and free-path bugs are caught
    // even when the workload would not notice them.
    for kind in DEFAULT_KINDS {
        let san = Sanitized::new(kind.builder().heap(HEAP).sms(80).build());
        let info = san.info();
        let ctx = ThreadCtx::host();
        for cycle in 0..3u64 {
            let ptrs: Vec<DevicePtr> = (0..128)
                .map(|i| san.malloc(&ctx, 16 + ((cycle * 7 + i) % 24) * 40).unwrap())
                .collect();
            // Warp-collective traffic interleaved with the thread-level churn.
            let w = WarpCtx { warp: cycle as u32, block: 0, sm: 2 };
            let mut warp_out = [DevicePtr::NULL; 16];
            san.malloc_warp(&w, &[96; 16], &mut warp_out).unwrap();
            if info.supports_free {
                san.free_warp(&w, &warp_out).unwrap();
                for p in ptrs {
                    san.free(&ctx, p).unwrap();
                }
            }
        }
        let report = san.take_report();
        assert!(report.is_clean(), "{}: {report}", kind.label());
        if info.supports_free {
            assert_eq!(report.live, 0, "{}: everything was freed", kind.label());
        }
    }
}

#[test]
fn launched_alloc_free_roundtrip_every_kind() {
    // Same black-box contract as the host-ctx tests, but driven through the
    // executor: every evaluated manager serves a full device launch where
    // each thread allocates, writes, reads back and frees. Honouring
    // `GMS_WORKERS` (the device is built with `Device::new`) makes this the
    // test the `GMS_WORKERS=1` determinism pass in scripts/check.sh leans on.
    use gpumemsurvey::core::WARP_SIZE;
    use std::sync::atomic::{AtomicU64, Ordering};
    let device = Device::new(DeviceSpec::titan_v());
    let threads = 4096u32;
    for kind in DEFAULT_KINDS {
        let alloc = kind.builder().heap(HEAP).sms(device.spec().num_sms).build();
        let supports_free = alloc.info().supports_free;
        let failures = AtomicU64::new(0);
        let (_, sched) = device.launch_with_stats(threads, |ctx| {
            let size = 16 + (u64::from(ctx.thread_id) % 16) * 24;
            match alloc.malloc(ctx, size) {
                Ok(p) => {
                    let tag = (ctx.thread_id % 251) as u8;
                    alloc.heap().fill(p, size, tag);
                    if alloc.heap().read_u8(p, size - 1) != tag {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                    if supports_free && alloc.free(ctx, p).is_err() {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(failures.load(Ordering::Relaxed), 0, "{}", kind.label());
        // Every warp of the launch is accounted to some worker.
        let total: u32 = sched.warps_per_worker.iter().sum();
        assert_eq!(total, threads.div_ceil(WARP_SIZE), "{}", kind.label());
    }
}

#[test]
fn warp_and_thread_allocations_coexist() {
    for kind in kinds_with_free() {
        let alloc = kind.builder().heap(HEAP).sms(80).build();
        let ctx = ThreadCtx::host();
        let w = WarpCtx { warp: 3, block: 0, sm: 1 };
        let t1 = alloc.malloc(&ctx, 128).unwrap();
        let mut warp_out = [DevicePtr::NULL; 8];
        alloc.malloc_warp(&w, &[64; 8], &mut warp_out).unwrap();
        let t2 = alloc.malloc(&ctx, 128).unwrap();
        // All distinct, all freeable in any order.
        let mut all = vec![t1, t2];
        all.extend(warp_out);
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "{}", kind.label());
        for p in all {
            alloc.free(&ctx, p).unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        }
    }
}

//! End-to-end sanitizer battery.
//!
//! Two halves. First, deliberately broken mock allocators prove the shadow
//! heap actually catches each [`ViolationKind`] through the public trait —
//! and that it reports instead of panicking mid-"kernel". Second, every
//! evaluated manager runs a churn workload under [`Sanitized`] and must come
//! out clean, which is the repository-level guarantee behind the paper's
//! correctness claims (§5: which managers are stable under which workloads).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpumemsurvey::bench::matrix::{run_scenario, scenario, MatrixCfg, Tier};
use gpumemsurvey::bench::registry::{ALL_KINDS, DEFAULT_KINDS};
use gpumemsurvey::core::sanitize::ALL_VIOLATION_KINDS;
use gpumemsurvey::core::sanitize::{Sanitized, ViolationKind};
use gpumemsurvey::core::util::align_up;
use gpumemsurvey::core::RegisterFootprint;
use gpumemsurvey::gpu_workloads::churn;
use gpumemsurvey::prelude::*;

/// What kind of bug the rigged allocator injects on its malloc path.
#[derive(Clone, Copy, PartialEq)]
enum Bug {
    /// Correct bump allocation (free-path bugs are triggered by the caller).
    None,
    /// Every allocation is the same region.
    SamePointer,
    /// Returns a pointer at the very end of the heap.
    PastEnd,
    /// Returns pointers 8 bytes off the declared 16-byte alignment.
    OffByEight,
}

/// Minimal bump allocator with a selectable defect, used as the inner
/// manager under test. Its `free` accepts anything — the sanitizer must
/// reject bad frees *before* the inner manager sees them.
struct Rigged {
    heap: Arc<DeviceHeap>,
    top: AtomicU64,
    bug: Bug,
}

impl Rigged {
    fn new(bug: Bug) -> Self {
        Rigged { heap: Arc::new(DeviceHeap::new(1 << 20)), top: AtomicU64::new(0), bug }
    }
}

impl DeviceAllocator for Rigged {
    fn info(&self) -> ManagerInfo {
        ManagerInfo::builder("Rigged").build()
    }
    fn heap(&self) -> &DeviceHeap {
        &self.heap
    }
    fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, AllocError> {
        match self.bug {
            Bug::SamePointer => return Ok(DevicePtr::new(64)),
            Bug::PastEnd => return Ok(DevicePtr::new(self.heap.len())),
            Bug::OffByEight => {
                let off = self.top.fetch_add(align_up(size + 8, 16), Ordering::Relaxed);
                return Ok(DevicePtr::new(off + 8));
            }
            Bug::None => {}
        }
        let sz = align_up(size.max(1), 16);
        let off = self.top.fetch_add(sz, Ordering::Relaxed);
        if off + sz > self.heap.len() {
            return Err(AllocError::OutOfMemory(size));
        }
        Ok(DevicePtr::new(off))
    }
    fn free(&self, _ctx: &ThreadCtx, ptr: DevicePtr) -> Result<(), AllocError> {
        if ptr.is_null() {
            return Err(AllocError::InvalidPointer);
        }
        Ok(())
    }
    fn register_footprint(&self) -> RegisterFootprint {
        RegisterFootprint { malloc: 1, free: 1 }
    }
}

fn ctx() -> ThreadCtx {
    ThreadCtx::host()
}

#[test]
fn overlap_is_detected_end_to_end() {
    let san = Sanitized::new(Rigged::new(Bug::SamePointer));
    let a = san.malloc(&ctx(), 128).unwrap();
    let b = san.malloc(&ctx(), 128).unwrap();
    assert_eq!(a, b, "the rig hands out one region twice");
    let report = san.report();
    assert_eq!(report.by_kind(ViolationKind::Overlap), 1, "{report}");
    assert_eq!(report.recorded[0].offset, 64);
}

#[test]
fn out_of_heap_return_is_detected_end_to_end() {
    let san = Sanitized::new(Rigged::new(Bug::PastEnd));
    // Must not panic even though the pointer cannot be dereferenced.
    let _ = san.malloc(&ctx(), 64).unwrap();
    let report = san.report();
    assert_eq!(report.by_kind(ViolationKind::OutOfHeap), 1, "{report}");
}

#[test]
fn misaligned_return_is_detected_end_to_end() {
    let san = Sanitized::new(Rigged::new(Bug::OffByEight));
    let _ = san.malloc(&ctx(), 64).unwrap();
    let report = san.report();
    assert_eq!(report.by_kind(ViolationKind::Misaligned), 1, "{report}");
}

#[test]
fn double_free_and_unknown_free_are_detected_end_to_end() {
    let san = Sanitized::new(Rigged::new(Bug::None));
    let p = san.malloc(&ctx(), 256).unwrap();
    assert!(san.free(&ctx(), p).is_ok());
    assert_eq!(san.free(&ctx(), p), Err(AllocError::InvalidPointer), "second free rejected");
    assert_eq!(
        san.free(&ctx(), DevicePtr::new(512 * 1024)),
        Err(AllocError::InvalidPointer),
        "never-allocated pointer rejected"
    );
    let report = san.report();
    assert_eq!(report.by_kind(ViolationKind::DoubleFree), 1, "{report}");
    assert_eq!(report.by_kind(ViolationKind::UnknownFree), 1, "{report}");
}

#[test]
fn redzone_corruption_is_detected_end_to_end() {
    let san = Sanitized::new(Rigged::new(Bug::None));
    let p = san.malloc(&ctx(), 64).unwrap();
    // The workload writes one byte past its request, into the canary.
    san.heap().fill(p.add(64), 1, 0xff);
    let _ = san.free(&ctx(), p);
    let report = san.report();
    assert_eq!(report.by_kind(ViolationKind::RedzoneCorrupt), 1, "{report}");
    assert_eq!(report.recorded[0].conflict, Some(p.offset() + 64));
}

#[test]
fn violations_are_reported_not_panicked() {
    // A stack of defects in one run: the sanitizer keeps serving the
    // workload and aggregates everything host-side.
    let san = Sanitized::new(Rigged::new(Bug::SamePointer));
    for _ in 0..50 {
        let _ = san.malloc(&ctx(), 32);
    }
    let _ = san.free(&ctx(), DevicePtr::new(1 << 19));
    let report = san.take_report();
    assert!(!report.is_clean());
    assert_eq!(report.by_kind(ViolationKind::Overlap), 49);
    assert_eq!(report.by_kind(ViolationKind::UnknownFree), 1);
    assert_eq!(report.total(), 50, "{report}");
}

#[test]
fn every_default_manager_is_clean_under_sanitized_churn() {
    let device = Device::with_workers(DeviceSpec::titan_v(), 2);
    for kind in DEFAULT_KINDS {
        let alloc = kind.builder().heap(64 << 20).sms(80).build();
        let san = Sanitized::new(alloc);
        churn::run(&san, &device, 256, 64, 4);
        let report = san.take_report();
        assert!(report.is_clean(), "{}: {report}", kind.label());
        if san.info().supports_free {
            assert_eq!(report.live, 0, "{}: churn must drain fully", kind.label());
        }
    }
}

/// Same battery with the magazine cache between the sanitizer and every
/// manager (`Sanitized<Cached<A>>`). The sanitizer wraps outside, so a
/// parked free must retire its shadow entry exactly like a real one and a
/// magazine hit must re-admit the recycled block cleanly — caching must be
/// invisible to the shadow heap across all families, including those where
/// the cache disables itself (no-free and warp-level-only managers).
#[test]
fn every_default_manager_is_clean_under_sanitized_cached_churn() {
    let device = Device::with_workers(DeviceSpec::titan_v(), 2);
    for kind in DEFAULT_KINDS {
        let alloc = kind.builder().heap(64 << 20).sms(80).cached(true).build();
        let san = Sanitized::new(alloc);
        churn::run(&san, &device, 256, 64, 4);
        let report = san.take_report();
        assert!(report.is_clean(), "{} (cached): {report}", kind.label());
        if san.info().supports_free {
            assert_eq!(report.live, 0, "{} (cached): churn must drain fully", kind.label());
        }
    }
}

/// The battery above is one block, so one SM shard. Here 96 blocks wrap
/// around the 80 SMs: blocks `b` and `b + 80` share a shard, two workers
/// push and pop the same magazines, and each shard sees 512 frees of one
/// class against 256 slots, so the eviction path runs too.
#[test]
fn two_workers_sharing_sm_shards_are_clean_under_sanitized_cached_churn() {
    use gpumemsurvey::bench::registry::ManagerKind::{Halloc, OuroVAP, ScatterAlloc, XMalloc};
    let device = Device::with_workers(DeviceSpec::titan_v(), 2);
    for kind in [ScatterAlloc, Halloc, XMalloc, OuroVAP] {
        let alloc = kind.builder().heap(64 << 20).sms(80).cached(true).build();
        let san = Sanitized::new(alloc);
        let failures = churn::run(&san, &device, 96 * 256, 64, 3);
        assert_eq!(failures, 0, "{}: every allocation must succeed", kind.label());
        let report = san.take_report();
        assert!(report.is_clean(), "{} (cached, shared shards): {report}", kind.label());
        assert_eq!(report.live, 0, "{}: churn must drain fully", kind.label());
        // Up to 80 full magazines are parked (a racing hint may have evicted
        // a few blocks early); one drain returns them all to the manager.
        let parked = san.drain();
        assert!((1..=256 * 80).contains(&parked), "{}: drained {parked}", kind.label());
        assert_eq!(san.drain(), 0, "{}: magazines must drain to zero", kind.label());
    }
}

/// The gated `sanitize` scenario at the tiny tier: churn and mixed sizes,
/// including the mixed-size phase, leave no violation in any of the 16
/// kinds, and every kind that can free ends with nothing live.
#[test]
fn sanitize_scenario_is_clean_for_every_kind() {
    let anchor = run_scenario(&MatrixCfg::new(Tier::Tiny), scenario("sanitize").unwrap()).unwrap();
    let value = |key: String| anchor.metric(&key).unwrap_or_else(|| panic!("no {key}")).value;
    for kind in ALL_KINDS {
        let k = kind.label();
        for v in ALL_VIOLATION_KINDS {
            assert_eq!(value(format!("{k}/{}", v.name())), 0.0, "{k}: {v}");
        }
        // Atomic is the one kind without any free.
        let live = value(format!("{k}/live_after"));
        if kind == ManagerKind::Atomic {
            assert!(live > 0.0, "{k}: a bump allocator keeps everything live");
        } else {
            assert_eq!(live, 0.0, "{k}: frees must drain");
        }
    }
}

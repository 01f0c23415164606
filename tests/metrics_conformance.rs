//! Conformance battery for the contention-observability layer: one set of
//! accounting laws, executed black-box against every evaluated manager.
//!
//! The laws:
//!
//! 1. **Call-accounting identity** — after any sequence of operations,
//!    `malloc_calls == malloc_failures + (free_calls − free_failures) + live`.
//! 2. **Zero when disabled** — a manager built without metrics reports an
//!    all-zero snapshot no matter what runs on it.
//! 3. **Monotone snapshots** — concurrent launches never make any counter
//!    go backwards between two readings of the same handle.
//! 4. **Reproducible perf-cell counts** — the counted round behind every
//!    perf cell's contention metrics gives the same delta twice on the
//!    inline device, and that delta is one round's calls.
//! 5. **One counting rule** — every kind in every registry stack counts its
//!    calls per caller lane, the way `gpumem_core::metrics::Counted` states:
//!    a refused warp is all its lanes failed, a rollback is no caller free,
//!    and a relayed request is one call.

use gpumemsurvey::bench::registry::{ManagerKind, ALL_KINDS, DEFAULT_KINDS};
use gpumemsurvey::bench::runners::{alloc_perf, Bench};
use gpumemsurvey::gpu_workloads::round;
use gpumemsurvey::prelude::*;

const HEAP: u64 = 64 << 20;
const N: u32 = 2_000;

fn device() -> Device {
    Device::with_workers(DeviceSpec::titan_v(), 4)
}

#[test]
fn call_accounting_identity_after_alloc_only() {
    for kind in ALL_KINDS {
        let alloc = kind.builder().heap(HEAP).sms(80).metrics(true).build();
        let d = device();
        let r = round::malloc_threads(alloc.as_ref(), &d, N, |_| 32);
        let s = alloc.metrics().snapshot();
        assert_eq!(s.malloc_calls(), N as u64, "{kind}: every request counted once");
        assert_eq!(s.malloc_failures(), r.failures, "{kind}: failures counted exactly");
        assert_eq!(
            s.live(),
            N as u64 - r.failures,
            "{kind}: live = successes while nothing is freed"
        );
        assert_eq!(
            s.malloc_calls(),
            s.malloc_failures() + (s.free_calls() - s.free_failures()) + s.live(),
            "{kind}: call-accounting identity"
        );
    }
}

#[test]
fn call_accounting_identity_after_alloc_free_cycle() {
    for kind in DEFAULT_KINDS {
        let alloc = kind.builder().heap(HEAP).sms(80).metrics(true).build();
        let d = device();
        let r = round::malloc_threads(alloc.as_ref(), &d, N, |_| 48);
        round::free(alloc.as_ref(), &d, &r);
        let s = alloc.metrics().snapshot();
        assert_eq!(s.malloc_calls(), N as u64, "{kind}");
        assert_eq!(
            s.malloc_calls(),
            s.malloc_failures() + (s.free_calls() - s.free_failures()) + s.live(),
            "{kind}: identity after free cycle"
        );
        if alloc.info().supports_free {
            assert_eq!(s.live(), 0, "{kind}: everything allocated was freed");
        }
    }
}

#[test]
fn disabled_metrics_record_nothing() {
    for kind in ALL_KINDS {
        let alloc = kind.builder().heap(HEAP).sms(80).build();
        assert!(!alloc.metrics().is_enabled(), "{kind}: disabled by default");
        let d = device();
        let r = round::malloc_threads(alloc.as_ref(), &d, N, |_| 64);
        round::free(alloc.as_ref(), &d, &r);
        let s = alloc.metrics().snapshot();
        assert!(s.is_zero(), "{kind}: disabled handle must stay all-zero");
    }
}

#[test]
fn snapshots_are_monotone_under_concurrent_launches() {
    // Two devices launching into one manager while a third thread takes
    // rapid-fire snapshots: every later reading must dominate every
    // earlier one.
    let alloc = ManagerKind::ScatterAlloc.builder().heap(HEAP).sms(80).metrics(true).build();
    let m = alloc.metrics();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut last = m.snapshot();
            let mut readings = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let now = m.snapshot();
                assert!(now.dominates(&last), "counter went backwards");
                last = now;
                readings += 1;
            }
            readings
        });
        for _ in 0..2 {
            let d = device();
            let r = round::malloc_threads(alloc.as_ref(), &d, N, |_| 32);
            round::free(alloc.as_ref(), &d, &r);
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        assert!(watcher.join().unwrap() > 0);
    });
    // After the launches the identity still holds on the final reading.
    let s = m.snapshot();
    assert_eq!(
        s.malloc_calls(),
        s.malloc_failures() + (s.free_calls() - s.free_failures()) + s.live()
    );
}

#[test]
fn structural_counters_fire_for_their_families() {
    // ScatterAlloc's hashed probing must report probe steps (and, with
    // hash collisions on partially filled pages, lost claims).
    let d = device();
    let scatter = ManagerKind::ScatterAlloc.builder().heap(HEAP).sms(80).metrics(true).build();
    let r = round::malloc_threads(scatter.as_ref(), &d, N, |_| 16);
    round::free(scatter.as_ref(), &d, &r);
    let s = scatter.metrics().snapshot();
    assert!(s.probe_steps() > 0, "ScatterAlloc probes pages per request");
    assert!(s.cas_retries() > 0, "hashed spots collide on filled pages");

    // Every Ouroboros variant re-spins its index queue at least on the
    // initial empty-queue expansion.
    for kind in [ManagerKind::OuroSP, ManagerKind::OuroVAC] {
        let ouro = kind.builder().heap(HEAP).sms(80).metrics(true).build();
        let r = round::malloc_threads(ouro.as_ref(), &d, N, |_| 16);
        round::free(ouro.as_ref(), &d, &r);
        let s = ouro.metrics().snapshot();
        assert!(s.queue_spins() > 0, "{kind}: queue activity must register");
    }
}

#[test]
fn perf_cell_counted_round_reproduces_one_round_of_calls() {
    use ManagerKind::{Atomic, Halloc, ScatterAlloc, XMalloc};
    const THREADS: u64 = 512;
    for cached in [false, true] {
        // The matrix's tiny/smoke context: inline device, cached cells warmed.
        let mut bench = Bench::new(Device::with_workers(DeviceSpec::titan_v(), 1));
        bench.cached = cached;
        for kind in [Atomic, ScatterAlloc, XMalloc, Halloc] {
            let cell = |_| alloc_perf(&bench, kind, THREADS as u32, 16, false).counters;
            let (a, b) = (cell(0), cell(1));
            assert_eq!(a, b, "{kind} (cached: {cached}): the counted round must reproduce");
            // A magazine hit is served without a manager call.
            assert_eq!(a.malloc_calls() + a.magazine_hits(), THREADS, "{kind} (cached: {cached})");
            assert_eq!(a.malloc_failures(), 0, "{kind} (cached: {cached})");
            // A cached cell warms its magazines with one round first.
            if cached && kind != Atomic {
                assert!(a.magazine_hits() > 0, "{kind}: the counted round must hit the magazines");
            }
            // A parked free is not counted either, so the free side is exact
            // only without magazines, and for Atomic, which has no free and
            // which the cache passes through.
            if !cached || kind == Atomic {
                let frees = if kind == Atomic { 0 } else { THREADS };
                assert_eq!(a.free_calls(), frees, "{kind} (cached: {cached})");
            }
        }
    }
}

/// One 32-lane warp `w` asking `sizes`; whether it was served.
fn serve_warp(a: &dyn DeviceAllocator, w: u32, sizes: &[u64]) -> bool {
    let mut out = [DevicePtr::NULL; 32];
    a.malloc_warp(&WarpCtx { warp: w, block: w, sm: w % 80 }, sizes, &mut out).is_ok()
}

/// Law 5 on all 16 kinds in the registry's four stacks (`Counted<M>` and
/// `Cached`, `Traced` or both around it), on the inline device: a thread
/// malloc round released by `round::free`, which must leave nothing live;
/// then, on a fresh manager, a thread malloc round, one oversize request, a
/// free of every grant, 2 048 B × 32-lane warps on an 8 MiB heap until the
/// first refusal and four mixed 16 B / 2 048 B warps. A manager that counts
/// a refused warp as one failure, its rollback frees as caller frees, or a
/// tidy-up (`free_warp_all`) as no free, fails here.
#[test]
fn every_stack_counts_calls_by_one_rule() {
    use ManagerKind::*;
    let relays = |k| {
        matches!(k, Halloc | FDGMalloc | OuroSP | OuroSC | OuroVAP | OuroVAC | OuroVLP | OuroVLC)
    };
    let mixed: Vec<u64> = (0..32).map(|lane| if lane < 16 { 16 } else { 2048 }).collect();
    let d = Device::with_workers(DeviceSpec::titan_v(), 1);
    for kind in ALL_KINDS {
        for (cached, traced) in [(false, false), (true, false), (false, true), (true, true)] {
            let at = format!("{kind} (cached: {cached}, traced: {traced})");
            let build = || {
                let b = kind.builder().heap(8 << 20).sms(80).metrics(true).cached(cached);
                if traced { b.trace_capacity(256) } else { b }.build()
            };

            // However a manager frees a round — one free per grant, or one
            // tidy-up per warp — nothing is live after it; a manager that
            // cannot free (Atomic) runs no free round and holds its grants.
            let alloc = build();
            let r = round::malloc_threads(alloc.as_ref(), &d, 256, |_| 64);
            let freed_round = round::free(alloc.as_ref(), &d, &r).is_some();
            alloc.drain();
            let left = if freed_round { 0 } else { 256 - r.failures };
            assert_eq!(alloc.metrics().snapshot().live(), left, "{at}: live after round::free");

            let alloc = build();
            let m = alloc.metrics();
            let r = round::malloc_threads(alloc.as_ref(), &d, 256, |_| 64);
            let before = m.snapshot();
            let big = alloc.malloc(&ThreadCtx::host(), 16 << 10);
            let one = m.snapshot().delta_since(&before);
            assert_eq!(one.malloc_calls(), 1, "{at}: one oversize request is one call");
            if relays(kind) {
                assert_eq!(one.oom_fallbacks(), 1, "{at}: the oversize request is relayed");
                assert!(big.is_ok(), "{at}: the fallback section has room");
            }
            let grants = r.ptrs.iter().chain(big.as_ref().ok()).filter(|p| !p.is_null());
            let (mut freed, mut refused_frees) = (0, 0);
            for (t, &p) in grants.enumerate() {
                freed += 1;
                let ctx = ThreadCtx::from_linear(t as u32, 256, 80);
                refused_frees += u64::from(alloc.free(&ctx, p).is_err());
            }

            let before = m.snapshot();
            let (mut warps, mut refused) = (0, 0);
            while refused == 0 && warps < 1024 {
                refused += u64::from(!serve_warp(alloc.as_ref(), warps, &[2048; 32]));
                warps += 1;
            }
            assert_eq!(refused, 1, "{at}: an 8 MiB heap refuses a 64 KiB warp within 1 024");
            for w in warps..warps + 4 {
                refused += u64::from(!serve_warp(alloc.as_ref(), w, &mixed));
            }
            let warps = u64::from(warps) + 4;
            // The caller's own tally, lane by lane; live is the grants whose
            // free was refused and the lanes of served warps.
            let asked = 256 + 1 + 32 * warps;
            let got_none = r.failures + u64::from(big.is_err()) + 32 * refused;
            let held = refused_frees + 32 * (warps - refused);
            let phase = m.snapshot().delta_since(&before);
            assert_eq!(phase.malloc_failures(), 32 * refused, "{at}: every lane of a refusal");
            assert_eq!(phase.free_calls(), 0, "{at}: a rollback is no caller free");

            alloc.drain();
            let s = m.snapshot();
            // A magazine hit reaches no manager, and so neither does the
            // free that parked the block it served.
            assert_eq!(s.malloc_calls() + s.magazine_hits(), asked, "{at}: lanes asked");
            assert_eq!(s.malloc_failures(), got_none, "{at}: lanes that got no pointer");
            assert_eq!(s.free_calls() + s.magazine_hits(), freed, "{at}: pointers freed");
            assert_eq!(s.free_failures(), refused_frees, "{at}: refused frees");
            assert_eq!(s.live(), held, "{at}: live is what the caller holds");
        }
    }
}

//! Reg-Eff list-walk length as an exact count (Fig. 9h's cost driver).
//!
//! The walks run on the host in thread order, so `list_hops` is a function
//! of the algorithm alone — the same digits on any machine. A launch frees
//! in address order: every `free` finds its successor still allocated and
//! merges nothing, so only `malloc`'s growth-on-claim keeps a mixed-size
//! walk from lengthening with every round the manager has lived.

use std::sync::Arc;

use gpumemsurvey::alloc_regeff::{RegEffC, RegEffCF, RegEffCFM, RegEffCM};
use gpumemsurvey::core::metrics::Counted;
use gpumemsurvey::gpu_workloads::sizes::thread_size;
use gpumemsurvey::prelude::*;

const HEAP: u64 = 128 << 20;
const SMS: u32 = 80;
const ROUNDS: u64 = 52;
const THREADS: u32 = 2048;

/// Mallocs in the last ten of [`ROUNDS`] rounds, the stretch that is counted.
const TAIL_MALLOCS: u64 = 10 * THREADS as u64;

/// `list_hops` of the [`TAIL_MALLOCS`] after 42 rounds of alloc-all then
/// free-all in thread order.
fn tail_hops(alloc: &dyn DeviceAllocator, size_of: impl Fn(u64, u32) -> u64) -> u64 {
    let ctxs: Vec<ThreadCtx> = (0..THREADS).map(|t| ThreadCtx::from_linear(t, 256, SMS)).collect();
    let mut tail_start = alloc.metrics().snapshot();
    for round in 0..ROUNDS {
        if round == ROUNDS - 10 {
            tail_start = alloc.metrics().snapshot();
        }
        let ptrs: Vec<DevicePtr> = ctxs
            .iter()
            .map(|c| alloc.malloc(c, size_of(round, c.thread_id)).expect("heap is 30x a round"))
            .collect();
        for (c, p) in ctxs.iter().zip(ptrs) {
            alloc.free(c, p).expect("own pointer");
        }
    }
    let tail = alloc.metrics().snapshot().delta_since(&tail_start);
    assert_eq!(tail.malloc_calls(), TAIL_MALLOCS);
    tail.list_hops()
}

fn variants() -> [(&'static str, Box<dyn DeviceAllocator>); 4] {
    let heap = || Arc::new(DeviceHeap::new(HEAP));
    let metrics = || Metrics::enabled(SMS);
    [
        ("C", Box::new(Counted::new(RegEffC::new(heap(), SMS).with_metrics(metrics())))),
        ("CF", Box::new(Counted::new(RegEffCF::new(heap(), SMS).with_metrics(metrics())))),
        ("CM", Box::new(Counted::new(RegEffCM::new(heap(), SMS).with_metrics(metrics())))),
        ("CFM", Box::new(Counted::new(RegEffCFM::new(heap(), SMS).with_metrics(metrics())))),
    ]
}

#[test]
fn mixed_size_walks_stay_short_however_long_the_manager_has_lived() {
    // Before growth-on-claim: 16 hops (C/CF) and 60-83 (CM/CFM) by round 52.
    for (variant, alloc) in variants() {
        let hops = tail_hops(&*alloc, |round, tid| thread_size(1 ^ round, tid, 4, 4096));
        let per_malloc = hops as f64 / TAIL_MALLOCS as f64;
        assert!(per_malloc <= 4.0, "Reg-Eff-{variant}: {per_malloc:.2} hops per mixed-size malloc");
    }
}

#[test]
fn fixed_size_walks_are_no_longer_than_before_growth_on_claim() {
    // Every chunk of a fixed-size run fits the next request, so growth never
    // triggers and C/CF place exactly as they did: one hop per malloc. CM/CFM
    // took 69 hops more, walking back from offset 0 to their sub-heaps at the
    // start of a round; the home restart can only shorten that.
    for (variant, alloc) in variants() {
        let hops = tail_hops(&*alloc, |_, _| 512);
        if variant.ends_with('M') {
            assert!(hops <= TAIL_MALLOCS + 69, "Reg-Eff-{variant}: {hops} hops");
        } else {
            assert_eq!(hops, TAIL_MALLOCS, "Reg-Eff-{variant}");
        }
    }
}

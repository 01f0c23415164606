//! XMalloc's Memoryblock-list walk as an exact count (Fig. 9a/9g/9h's cost
//! driver for its large and coalesced paths).
//!
//! The walks run on the host in thread order, so `list_hops` is a function
//! of the algorithm alone — the same digits on any machine. A first-fit walk
//! from the list head crosses every allocated block below the first fit;
//! the walk that starts at its size bin's hint crosses only what could not
//! be ruled out. Placement is the same either way (`mblock.rs` pins that
//! against a from-head reference), so only the count may move.

use std::sync::Arc;

use gpumemsurvey::alloc_xmalloc::XMalloc;
use gpumemsurvey::core::metrics::Counted;
use gpumemsurvey::core::WARP_SIZE;
use gpumemsurvey::gpu_workloads::sizes::thread_size;
use gpumemsurvey::prelude::*;

const HEAP: u64 = 128 << 20;
const SMS: u32 = 80;
const ROUNDS: u64 = 52;
const THREADS: u32 = 2048;
const WARPS: u32 = 512;

/// Mallocs in the last ten of [`ROUNDS`] rounds, the stretch that is counted.
const TAIL_MALLOCS: u64 = 10 * THREADS as u64;

fn xmalloc() -> Counted<XMalloc> {
    Counted::new(XMalloc::new(Arc::new(DeviceHeap::new(HEAP))).with_metrics(Metrics::enabled(SMS)))
}

/// `list_hops` of the last ten of [`ROUNDS`] rounds of `round(alloc, index)`,
/// each of which makes `mallocs_per_round` allocations and frees them all.
fn tail_hops(mallocs_per_round: u64, round: impl Fn(&Counted<XMalloc>, u64)) -> u64 {
    let alloc = xmalloc();
    let mut tail_start = alloc.metrics().snapshot();
    for index in 0..ROUNDS {
        if index == ROUNDS - 10 {
            tail_start = alloc.metrics().snapshot();
        }
        round(&alloc, index);
    }
    let tail = alloc.metrics().snapshot().delta_since(&tail_start);
    assert_eq!(tail.malloc_calls(), 10 * mallocs_per_round);
    assert_eq!(tail.malloc_failures(), 0);
    tail.list_hops()
}

/// Thread-based rounds: alloc-all then free-all in thread order.
fn thread_tail_hops(size_of: impl Fn(u64, u32) -> u64) -> u64 {
    let ctxs: Vec<ThreadCtx> = (0..THREADS).map(|t| ThreadCtx::from_linear(t, 256, SMS)).collect();
    tail_hops(THREADS as u64, |alloc, round| {
        let ptrs: Vec<DevicePtr> = ctxs
            .iter()
            .map(|c| alloc.malloc(c, size_of(round, c.thread_id)).expect("heap is 30x a round"))
            .collect();
        for (c, p) in ctxs.iter().zip(ptrs) {
            alloc.free(c, p).expect("own pointer");
        }
    })
}

#[test]
fn mixed_size_walks_start_where_a_fit_can_be() {
    // From the list head: 309.04 hops per malloc — about a hundred 2-4 KiB
    // holes persist between the Superblocks and every large request crossed
    // all the allocated blocks before its fit.
    let hops = thread_tail_hops(|round, tid| thread_size(1 ^ round, tid, 4, 4096));
    let per_malloc = hops as f64 / TAIL_MALLOCS as f64;
    assert!(per_malloc <= 16.0, "{per_malloc:.2} hops per mixed-size malloc");
}

#[test]
fn fixed_large_size_is_one_hop_per_malloc() {
    // From the list head: 1 024.5 — the k-th malloc of a round crossed the
    // k - 1 before it.
    assert_eq!(thread_tail_hops(|_, _| 4096), TAIL_MALLOCS);
}

#[test]
fn small_sizes_never_reach_the_list_once_their_superblocks_exist() {
    assert_eq!(thread_tail_hops(|_, _| 512), 0);
}

#[test]
fn coalesced_warp_blocks_are_at_most_two_hops() {
    // From the list head: 256.5 hops per warp, which is why coalescing — the
    // manager's reason to exist — read slower here than lane-by-lane.
    let warps: Vec<WarpCtx> =
        (0..WARPS).map(|w| WarpCtx { warp: w, block: w / 8, sm: w % SMS }).collect();
    let hops = tail_hops((WARPS * WARP_SIZE) as u64, |alloc, _| {
        let mut ptrs = vec![[DevicePtr::NULL; WARP_SIZE as usize]; warps.len()];
        for (w, out) in warps.iter().zip(ptrs.iter_mut()) {
            alloc.malloc_warp(w, &[64; WARP_SIZE as usize], out).expect("heap is 100x a round");
        }
        for (w, out) in warps.iter().zip(&ptrs) {
            alloc.free_warp(w, out).expect("own pointers");
        }
    });
    assert!(hops <= 2 * 10 * WARPS as u64, "{hops} hops for {} warps", 10 * WARPS);
}

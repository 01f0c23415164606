//! Host allocations on the hot path, counted exactly.
//!
//! A simulated device kernel models a GPU-resident protocol, and a real
//! device thread cannot call the host allocator mid-protocol. This test
//! counts every host allocation made inside `malloc`, `free`, `malloc_warp`
//! and `free_warp` of every manager, bare and under each decorator stack,
//! and requires zero once the manager is warm. A counting global allocator
//! records only while a thread-local switch is on, and the switch is on
//! only around the manager call inside the kernel closure: launching,
//! bookkeeping and the test's own checks are not counted.
//!
//! The first round is a warm-up: lazily sized host structures that model
//! in-heap state (the CUDA-Allocator model's free stacks, FDGMalloc's
//! per-warp state) may grow there. The second round must not allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use gpumemsurvey::bench::registry::ALL_KINDS;
use gpumemsurvey::core::WARP_SIZE;
use gpumemsurvey::gpu_sim::PerThread;
use gpumemsurvey::prelude::*;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter adds no allocation of its own (a const-initialised thread local
// and a static atomic).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

// The default `alloc_zeroed` and `realloc` go through `alloc`, so a
// growing `Vec` counts once per reallocation.
#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with this thread's allocations counted.
fn counted<R>(f: impl FnOnce() -> R) -> R {
    COUNTING.set(true);
    let r = f();
    COUNTING.set(false);
    r
}

/// Allocations counted since the last call.
fn take() -> u64 {
    ALLOCS.swap(0, Ordering::Relaxed)
}

const THREADS: u32 = 2048;
const WARPS: u32 = 64;
const LANES: usize = WARP_SIZE as usize;

const ENTRY_POINTS: [&str; 4] = ["malloc", "free", "malloc_warp", "free_warp"];

/// One round: 2 048 threads × 16 B `malloc` + `free`, then 64 warps × 32
/// lanes × 64 B `malloc_warp` + `free_warp`. Returns the allocations made
/// inside each entry point, in [`ENTRY_POINTS`] order.
fn round(device: &Device, alloc: &dyn DeviceAllocator, label: &str) -> [u64; 4] {
    let ptrs = PerThread::<DevicePtr>::new(THREADS as usize);
    take();
    device.launch(THREADS, |ctx| {
        let p = counted(|| alloc.malloc(ctx, 16));
        ptrs.set(ctx.thread_id as usize, p.unwrap_or_else(|e| panic!("{label} malloc: {e}")));
    });
    let malloc = take();
    device.launch(THREADS, |ctx| {
        let p = *ptrs.get(ctx.thread_id as usize);
        // Managers without free support refuse; the refusal is counted too.
        let _ = counted(|| alloc.free(ctx, p));
    });
    let free = take();

    let lanes = PerThread::<DevicePtr>::new(WARPS as usize * LANES);
    device.launch_warps(WARPS, |warp| {
        let mut out = [DevicePtr::NULL; LANES];
        let r = counted(|| alloc.malloc_warp(warp, &[64; LANES], &mut out));
        r.unwrap_or_else(|e| panic!("{label} malloc_warp: {e}"));
        for (lane, p) in out.into_iter().enumerate() {
            lanes.set(warp.warp as usize * LANES + lane, p);
        }
    });
    let malloc_warp = take();
    device.launch_warps(WARPS, |warp| {
        let base = warp.warp as usize * LANES;
        let ptrs: [DevicePtr; LANES] = std::array::from_fn(|lane| *lanes.get(base + lane));
        let _ = counted(|| alloc.free_warp(warp, &ptrs));
    });
    [malloc, free, malloc_warp, take()]
}

#[test]
fn warm_entry_points_make_no_host_allocation() {
    let device = Device::with_workers(DeviceSpec::titan_v(), 1);
    let mut found = Vec::new();
    for kind in ALL_KINDS {
        for stack in ["plain", "metrics", "traced", "cached"] {
            let builder = kind.builder();
            let alloc = match stack {
                "metrics" => builder.metrics(true),
                "traced" => builder.trace(true),
                "cached" => builder.cached(true),
                _ => builder,
            }
            .build();
            let label = format!("{} {stack}", kind.label());
            round(&device, alloc.as_ref(), &label);
            let measured = round(&device, alloc.as_ref(), &label);
            for (entry, n) in ENTRY_POINTS.into_iter().zip(measured) {
                if n > 0 {
                    found.push(format!("{label} {entry}: {n} host allocations"));
                }
            }
        }
    }
    assert!(found.is_empty(), "host allocations on a warm hot path:\n{}", found.join("\n"));
}

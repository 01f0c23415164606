//! Quickstart: the survey framework's promise — "integrate a memory manager
//! into an existing project and simply swap out one declaration to change
//! between memory managers".
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- s        # ScatterAlloc only
//! cargo run --release --example quickstart -- o+s+h    # artifact selector
//! ```

use std::sync::Arc;

use gpumemsurvey::bench::registry::DEFAULT_KINDS;
use gpumemsurvey::prelude::*;

fn main() {
    // Pick managers with the artifact's selector syntax (default: all).
    let kinds = std::env::args()
        .nth(1)
        .map(|s| ManagerKind::parse_selector(&s).expect("bad selector"))
        .unwrap_or_else(|| DEFAULT_KINDS.to_vec());

    // A simulated TITAN V and a small kernel: every thread allocates 64 B,
    // writes to it and (if the manager supports it) frees it again.
    let device = Device::new(DeviceSpec::titan_v());
    const N: u32 = 10_000;

    println!("{:<16}{:>12}{:>12}{:>10}", "manager", "alloc_ms", "free_ms", "ok");
    for kind in kinds {
        // The one declaration you swap:
        let alloc: Arc<dyn DeviceAllocator> =
            kind.builder().heap(256 << 20).sms(device.spec().num_sms).build();

        let ptrs = gpumemsurvey::gpu_sim::PerThread::<DevicePtr>::new(N as usize);
        let heap = alloc.heap();
        let t_alloc = device.launch(N, |ctx| match alloc.malloc(ctx, 64) {
            Ok(p) => {
                heap.fill(p, 64, ctx.thread_id as u8 | 1);
                ptrs.set(ctx.thread_id as usize, p);
            }
            Err(_) => ptrs.set(ctx.thread_id as usize, DevicePtr::NULL),
        });
        let ptrs = ptrs.into_vec();
        let ok = ptrs.iter().filter(|p| !p.is_null()).count();

        let t_free = if alloc.info().supports_free {
            let d = device.launch(N, |ctx| {
                let p = ptrs[ctx.thread_id as usize];
                if !p.is_null() {
                    alloc.free(ctx, p).expect("valid pointer");
                }
            });
            format!("{:.4}", d.as_secs_f64() * 1e3)
        } else if alloc.info().warp_level_only {
            let d = device.launch_warps(N.div_ceil(32), |w| {
                let _ = alloc.free_warp_all(w);
            });
            format!("{:.4}*", d.as_secs_f64() * 1e3)
        } else {
            "n/a".to_string()
        };

        println!(
            "{:<16}{:>12.4}{:>12}{:>9}/{N}",
            kind.label(),
            t_alloc.as_secs_f64() * 1e3,
            t_free,
            ok,
        );
    }
    println!("(* = warp-collective tidy-up, FDGMalloc has no per-allocation free)");
}

//! Fragmentation and memory-utilization report (the paper's §4.3 test
//! cases): address-range expansion per manager and out-of-memory heap
//! utilization, printed as a table.
//!
//! ```text
//! cargo run --release --example fragmentation_report
//! ```

use gpumemsurvey::bench::registry::{ManagerKind, DEFAULT_KINDS};
use gpumemsurvey::bench::runners::{fragmentation, oom, Bench};
use gpumemsurvey::prelude::*;

fn main() {
    let bench = Bench::new(Device::new(DeviceSpec::titan_v()));
    let num = 5_000;

    println!("fragmentation: address range after {num} allocations (× packed baseline)");
    print!("{:<16}", "manager");
    let sizes = [16u64, 256, 4096];
    for s in sizes {
        print!("{s:>10} B");
    }
    println!("{:>14}", "OOM util %");

    for &kind in DEFAULT_KINDS.iter() {
        if kind == ManagerKind::Atomic {
            continue; // the baseline is the definition of 1.0×
        }
        print!("{:<16}", kind.label());
        for s in sizes {
            let cell = fragmentation(&bench, kind, num, s, 2);
            print!("{:>10.2}x", cell.initial.expansion_factor());
        }
        let o = oom(&bench, kind, 64 << 20, 1024);
        println!("{:>13.1}%{}", o.utilization * 100.0, if o.timed_out { " (timeout)" } else { "" });
    }
    println!(
        "\nReading: Ouroboros variants stay near 1x and >95% utilization; \
         the CUDA-Allocator model spans the whole heap (paper Fig. 11a/11b)."
    );
}

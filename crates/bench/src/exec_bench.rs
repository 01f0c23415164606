//! Launch-overhead microbenchmark (the matrix's `exec` scenario → `BENCH_exec.json`).
//!
//! Records the perf trajectory of the executor itself: empty-kernel launch
//! latency and warp throughput on the pooled executor, side by side with
//! the spawn-per-launch baseline it replaced. The committed anchor is the
//! schema-versioned `exec` scenario of `crate::matrix` (serialisation via
//! `crate::matrix::exec_metrics` + `crate::anchor`), so future executor
//! changes have a before/after baseline the gate enforces.

use std::time::{Duration, Instant};

use gpu_sim::Device;

/// Results of one microbenchmark run.
#[derive(Clone, Debug)]
pub struct ExecBenchResult {
    pub device: &'static str,
    pub workers: usize,
    /// Reported kernel time of an empty launch (one warp per worker),
    /// minimum over trials.
    pub empty_pooled: Duration,
    /// Same kernel through the spawn-per-launch baseline, which times
    /// spawn + drain + join together.
    pub empty_spawn: Duration,
    /// Wall-clock cost of the whole pooled `launch` call (dispatch + wait),
    /// minimum over trials.
    pub call_pooled: Duration,
    /// Wall-clock cost of the whole `spawn_launch` call.
    pub call_spawn: Duration,
    /// Warps in the throughput launch.
    pub throughput_warps: u32,
    /// Warps retired per second inside the pooled parallel section.
    pub pooled_warps_per_sec: f64,
    /// Warps per second of the spawn baseline (its clock includes
    /// spawn/join, which is the point).
    pub spawn_warps_per_sec: f64,
    /// Workers that executed at least one warp in a `workers`-warp launch —
    /// the small-launch spread the adaptive chunking buys (the fixed
    /// chunk-16 executor reported 1 here).
    pub small_launch_workers_used: usize,
}

impl ExecBenchResult {
    /// Reported-latency improvement of the pooled executor.
    pub fn latency_speedup(&self) -> f64 {
        let p = self.empty_pooled.as_secs_f64();
        if p == 0.0 {
            f64::INFINITY
        } else {
            self.empty_spawn.as_secs_f64() / p
        }
    }
}

/// Runs the microbenchmark on `device`. `trials` scales the repetition
/// count (latency minima get `8 × trials` pooled / `trials` spawn samples).
pub fn run(device: &Device, trials: u32) -> ExecBenchResult {
    let trials = trials.max(8);
    let workers = device.workers();
    let n_empty = workers as u32 * gpumem_core::WARP_SIZE;

    // Empty-kernel latency: reported time and call cost, min over trials.
    let mut empty_pooled = Duration::MAX;
    let mut call_pooled = Duration::MAX;
    for _ in 0..trials * 8 {
        let t = Instant::now();
        let rep = device.launch(n_empty, |_| {});
        call_pooled = call_pooled.min(t.elapsed());
        empty_pooled = empty_pooled.min(rep);
    }
    let mut empty_spawn = Duration::MAX;
    let mut call_spawn = Duration::MAX;
    for _ in 0..trials {
        let t = Instant::now();
        let rep = device.spawn_launch(n_empty, |_| {});
        call_spawn = call_spawn.min(t.elapsed());
        empty_spawn = empty_spawn.min(rep);
    }

    // Throughput: enough warps that chunking reaches its cap.
    let tp_warps = 16_384u32;
    let tp_threads = tp_warps * gpumem_core::WARP_SIZE;
    let body = |ctx: &gpumem_core::ThreadCtx| {
        std::hint::black_box(ctx.scatter_hash());
    };
    let mut tp_pooled = Duration::MAX;
    let mut tp_spawn = Duration::MAX;
    for _ in 0..trials.min(16) {
        tp_pooled = tp_pooled.min(device.launch(tp_threads, body));
        tp_spawn = tp_spawn.min(device.spawn_launch(tp_threads, body));
    }
    let per_sec = |d: Duration| {
        let s = d.as_secs_f64();
        if s == 0.0 {
            f64::INFINITY
        } else {
            f64::from(tp_warps) / s
        }
    };

    // Small-launch spread: one warp per worker, each busy long enough that
    // the whole pool claims before the queue drains.
    let mut small_used = 0usize;
    for _ in 0..trials.min(16) {
        let (_, sched) = device.launch_warps_with_stats(workers as u32, |_| {
            std::thread::sleep(Duration::from_micros(200));
        });
        small_used = small_used.max(sched.workers_used());
    }

    ExecBenchResult {
        device: device.spec().name,
        workers,
        empty_pooled,
        empty_spawn,
        call_pooled,
        call_spawn,
        throughput_warps: tp_warps,
        pooled_warps_per_sec: per_sec(tp_pooled),
        spawn_warps_per_sec: per_sec(tp_spawn),
        small_launch_workers_used: small_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    #[test]
    fn microbench_runs_and_serialises() {
        let d = Device::with_workers(DeviceSpec::titan_v(), 2);
        let r = run(&d, 8);
        assert_eq!(r.workers, 2);
        assert!(r.small_launch_workers_used >= 1);
        // The anchor serialisation lives in matrix::exec_metrics; here the
        // raw readings must at least be usable as gate bases.
        assert!(r.latency_speedup().is_finite() && r.latency_speedup() > 0.0);
        assert!(r.pooled_warps_per_sec > 0.0);
    }
}

//! The kernel executor: schedules logical GPU threads onto a persistent
//! pool of OS workers.
//!
//! # Timing protocol
//!
//! Every benchmark number the repro produces flows through
//! [`Device::launch`], so the executor must not charge host-side scheduling
//! cost to the kernel. The pool achieves that with a two-phase barrier:
//!
//! 1. **Dispatch** — the launcher installs the kernel body, bumps the launch
//!    generation and wakes the parked workers. Each worker *stages* at a
//!    release barrier. All of this (condvar wake-up, cache warm-up of the
//!    job state) is counted as [`SchedStats::dispatch`].
//! 2. **Parallel section** — once every worker is staged, the launcher reads
//!    the clock and releases the barrier. Workers drain the warp queue; the
//!    *last warp to retire* stamps the end time. `elapsed` is exactly
//!    `end − release`, the parallel section alone.
//!
//! The pre-pool executor spawned scoped OS threads per launch and timed
//! spawn + join along with the kernel — tens to hundreds of µs of overhead
//! that dominated short launches. Two tests hold the pool to the protocol:
//! `dispatch` and `elapsed` always fit inside the call's wall clock, and
//! in release an empty launch reports under a quarter of what the call
//! costs. The matrix's `exec` scenario anchors both numbers.

use gpumem_core::sync::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gpumem_core::{ThreadCtx, WarpCtx, WARP_SIZE};

use crate::spec::DeviceSpec;

/// A kernel-launch lifecycle notification, delivered to the callback
/// installed with [`Device::set_launch_hook`].
///
/// `Begin` fires once the launch gate is held and the grid is about to
/// dispatch; `End` fires after the last warp retires and carries the
/// parallel-section wall clock. `seq` is a per-device launch counter that
/// pairs the two phases. Every launch fires both, inline or pooled.
#[derive(Clone, Copy, Debug)]
pub enum LaunchPhase {
    /// The grid is about to dispatch onto the pool.
    Begin {
        /// Per-device launch sequence number.
        seq: u64,
        /// Warps in this grid.
        n_warps: u32,
    },
    /// The last warp of the grid retired.
    End {
        /// Per-device launch sequence number (matches the `Begin`).
        seq: u64,
        /// Warps in this grid.
        n_warps: u32,
        /// Parallel-section duration (the same clock [`Device::launch`]
        /// returns).
        elapsed: Duration,
    },
}

/// Callback type for [`Device::set_launch_hook`]. Runs on the launching
/// thread with the launch gate held, so it must not launch on the same
/// device (that would self-deadlock) and should be quick — its cost lands
/// between grids, not inside the timed parallel section, but it still
/// delays back-to-back launches.
pub type LaunchHook = Arc<dyn Fn(LaunchPhase) + Send + Sync>;

/// Scheduler observability for one launch.
#[derive(Clone, Debug, Default)]
pub struct SchedStats {
    /// Host-side dispatch overhead: launch entry until every worker is
    /// staged at the release barrier. *Not* part of the kernel time.
    pub dispatch: Duration,
    /// Size of the worker pool (1 = inline execution on the caller).
    pub workers: usize,
    /// Warp-claim chunk size the launch used (see [`chunk_for`]).
    pub chunk: u32,
    /// Warps each worker executed, indexed by worker id. An inline launch
    /// reports `[n_warps]`.
    pub warps_per_worker: Vec<u32>,
    /// Extra trips to the shared claim counter beyond each participating
    /// worker's first — how much rebalancing the launch needed.
    pub steals: u64,
}

impl SchedStats {
    /// Workers that executed at least one warp.
    pub fn workers_used(&self) -> usize {
        self.warps_per_worker.iter().filter(|&&w| w > 0).count()
    }
}

/// Upper bound on the warp-claim chunk: keeps the claim counter cold on
/// large launches.
const MAX_CLAIM_CHUNK: u32 = 16;

/// Lower bound on claim trips per worker the chunk size aims for: keeps
/// tail imbalance low and guarantees launches with `n_warps ≥ workers`
/// spread over the whole pool.
const TARGET_CLAIMS_PER_WORKER: u32 = 4;

/// Chunk size for a launch. The fixed chunk of 16 the executor used to
/// claim meant a 16-warp launch ran serially on one worker and a 128-warp
/// launch used at most 8; shrinking the chunk with the launch keeps every
/// worker fed.
fn chunk_for(n_warps: u32, workers: usize) -> u32 {
    (n_warps / (workers as u32 * TARGET_CLAIMS_PER_WORKER)).clamp(1, MAX_CLAIM_CHUNK)
}

/// Type-erased kernel body shared with the workers for one launch.
///
/// The pointee is borrowed from the launcher's stack; the launch protocol
/// bounds its use: a worker dereferences it only between the release
/// barrier and its `done` increment, and `run_pooled` does not return
/// before `done` reaches the pool size.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(u32) + Sync));

// SAFETY: the pointee is `Sync`, and the launch protocol (type docs) keeps
// it alive for every dereference.
unsafe impl Send for JobPtr {}

/// Mutex-guarded launch hand-off state.
struct PoolState {
    /// Launch generation; bumped once per launch to wake the workers.
    gen: u64,
    /// Kernel body of the in-flight launch.
    job: Option<JobPtr>,
    n_warps: u32,
    chunk: u32,
    /// First panic payload caught from a kernel body this launch; rethrown
    /// by the launcher.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

/// Per-worker launch statistics (reset by the launcher, written by the
/// owning worker after it drains).
struct WorkerSlot {
    warps: AtomicU32,
    claims: AtomicU32,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Wakes parked workers when `gen` advances or `shutdown` is set.
    start_cv: Condvar,
    /// Wakes the launcher when the last worker retires.
    done_cv: Condvar,
    /// Time base for the `end_nanos` stamp.
    epoch: Instant,
    /// Next warp id to claim.
    next: AtomicU32,
    /// Workers staged at the release barrier.
    staged: AtomicUsize,
    /// Generation the staged workers may start draining.
    release_gen: AtomicU64,
    /// Workers retired from the current launch.
    done: AtomicUsize,
    /// Retire time of the last warp (max over workers that executed at
    /// least one warp, nanos since `epoch`). Stamped *before* the `done`
    /// increment so the launcher never reads a stale value. Workers that
    /// found the queue already drained do not stamp: their late wake-up is
    /// scheduler churn, not kernel time.
    end_nanos: AtomicU64,
    /// Iterations to busy-spin in barrier waits before yielding. Tuned at
    /// pool construction: on hosts with fewer cores than pool threads,
    /// spinning only steals the core the awaited thread needs, so the
    /// limit drops to near zero.
    spin_limit: u32,
    slots: Vec<WorkerSlot>,
}

/// Locks a pool mutex, shrugging off poisoning: a kernel panic unwinds
/// through the launcher with the launch gate held (poisoning it), but every
/// guarded field is reset at the next launch, so the state stays valid.
fn lock_pool<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// As [`lock_pool`], for condvar waits.
fn wait_pool<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Spin until `limit`, then yield: the waits this backs (staging, release)
/// are bounded by a condvar wake-up, i.e. microseconds on an idle core —
/// but on an oversubscribed host the awaited thread needs *this* core, so
/// past the limit the waiter hands it over.
#[inline]
fn spin_or_yield(spins: &mut u32, limit: u32) {
    *spins += 1;
    if *spins > limit {
        std::thread::yield_now();
    } else {
        gpumem_core::sync::hint::spin_loop();
    }
}

fn worker_loop(shared: Arc<Shared>, idx: usize, workers: usize) {
    let mut seen = 0u64;
    loop {
        // Park until the launcher publishes a new generation.
        let (gen, job, n_warps, chunk) = {
            let mut st = lock_pool(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.gen != seen {
                    break;
                }
                st = wait_pool(&shared.start_cv, st);
            }
            seen = st.gen;
            (st.gen, st.job.expect("job installed before gen bump"), st.n_warps, st.chunk)
        };
        // Stage, then hold at the barrier until the launcher has read the
        // clock. Everything up to the release is dispatch overhead.
        shared.staged.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        while shared.release_gen.load(Ordering::Acquire) != gen {
            spin_or_yield(&mut spins, shared.spin_limit);
        }
        // SAFETY: launch protocol (JobPtr docs) — the body outlives every
        // dereference made before the `done` increment below.
        let body = unsafe { &*job.0 };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut warps = 0u32;
            let mut claims = 0u32;
            loop {
                let first = shared.next.fetch_add(chunk, Ordering::Relaxed);
                if first >= n_warps {
                    break;
                }
                let last = first.saturating_add(chunk).min(n_warps);
                claims += 1;
                for w in first..last {
                    body(w);
                }
                warps += last - first;
            }
            (warps, claims)
        }));
        let ran_warps = match outcome {
            Ok((warps, claims)) => {
                shared.slots[idx].warps.store(warps, Ordering::Relaxed);
                shared.slots[idx].claims.store(claims, Ordering::Relaxed);
                warps > 0
            }
            Err(payload) => {
                // Park the queue so peers stop claiming; keep the first
                // payload for the launcher to rethrow.
                shared.next.store(n_warps, Ordering::Relaxed);
                let mut st = lock_pool(&shared.state);
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
                true
            }
        };
        // Stamp before retiring: the launcher may observe the final `done`
        // the instant it lands. Only warp-executing workers stamp — a
        // worker that woke to an already-drained queue contributes
        // scheduler latency, not kernel work.
        if ran_warps {
            shared.end_nanos.fetch_max(shared.epoch.elapsed().as_nanos() as u64, Ordering::AcqRel);
        }
        if shared.done.fetch_add(1, Ordering::AcqRel) + 1 == workers {
            let _st = lock_pool(&shared.state);
            shared.done_cv.notify_all();
        }
    }
}

/// The persistent worker pool behind a [`Device`]: workers are spawned once
/// at device construction, park on a condvar between kernels, and are
/// released launch-by-launch through the staging barrier.
struct WorkerPool {
    workers: usize,
    shared: Arc<Shared>,
    /// Serialises concurrent launches on one device — the pool runs one
    /// kernel at a time, like a single CUDA stream.
    launch_gate: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(workers: usize) -> Self {
        assert!(workers >= 1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                gen: 0,
                job: None,
                n_warps: 0,
                chunk: 1,
                panic: None,
                shutdown: false,
            }),
            start_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            staged: AtomicUsize::new(0),
            release_gen: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            end_nanos: AtomicU64::new(0),
            // Spin only when the host can run launcher + workers at once;
            // otherwise the awaited thread needs this very core.
            spin_limit: if std::thread::available_parallelism().map_or(1, |n| n.get()) > workers {
                20_000
            } else {
                16
            },
            slots: (0..workers)
                .map(|_| WorkerSlot { warps: AtomicU32::new(0), claims: AtomicU32::new(0) })
                .collect(),
        });
        // A 1-worker device runs kernels inline on the calling thread (the
        // deterministic `GMS_WORKERS=1` mode) and needs no pool threads.
        let handles = if workers >= 2 {
            (0..workers)
                .map(|idx| {
                    let sh = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("gms-worker-{idx}"))
                        .spawn(move || worker_loop(sh, idx, workers))
                        .expect("spawn pool worker")
                })
                .collect()
        } else {
            Vec::new()
        };
        WorkerPool { workers, shared, launch_gate: Mutex::new(()), handles }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_pool(&self.shared.state);
            st.shutdown = true;
            self.shared.start_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A simulated device: a [`DeviceSpec`] plus a persistent SM worker pool.
///
/// Each [`Device::launch`] call runs one kernel on the pool. Workers park
/// between kernels; the reported time covers the parallel section alone
/// (see the module docs for the barrier timing protocol). Dispatch cost is
/// still observable — it is reported separately as
/// [`SchedStats::dispatch`].
pub struct Device {
    spec: DeviceSpec,
    pool: WorkerPool,
    hook: Option<LaunchHook>,
    launch_seq: AtomicU64,
}

impl Device {
    /// Hard ceiling on the pool size. More OS workers than warps in a
    /// typical launch only adds barrier traffic without adding contention
    /// realism, so `GMS_WORKERS` requests beyond this are clamped.
    pub const MAX_WORKERS: usize = 64;

    /// A device with the default worker count: `GMS_WORKERS` env var if set
    /// (clamped to `1..=MAX_WORKERS`, logged once per process), otherwise
    /// `max(available_parallelism, 4)` capped at 16. A floor of 4 keeps
    /// atomic interleavings real even on small hosts.
    pub fn new(spec: DeviceSpec) -> Self {
        check_block_size(&spec);
        let workers = Self::configured_workers();
        if let Ok(raw) = std::env::var("GMS_WORKERS") {
            static LOGGED: std::sync::Once = std::sync::Once::new();
            LOGGED.call_once(|| {
                let parsed = parse_worker_request(&raw);
                match parsed {
                    Some(req) if req != workers => eprintln!(
                        "gpu-sim: GMS_WORKERS={raw} clamped to {workers} workers \
                         (allowed range 1..={})",
                        Self::MAX_WORKERS
                    ),
                    Some(_) => eprintln!("gpu-sim: worker pool size {workers} (GMS_WORKERS)"),
                    None => eprintln!(
                        "gpu-sim: ignoring unparsable GMS_WORKERS={raw}; \
                         using {workers} workers"
                    ),
                }
            });
        }
        Device { spec, pool: WorkerPool::new(workers), hook: None, launch_seq: AtomicU64::new(0) }
    }

    /// The worker count [`Device::new`] would use right now — the effective
    /// `GMS_WORKERS` after clamping, or the host default. Lets report
    /// headers name the worker config without constructing a device.
    pub fn configured_workers() -> usize {
        std::env::var("GMS_WORKERS")
            .ok()
            .and_then(|v| parse_worker_request(&v))
            .map(|w| w.clamp(1, Self::MAX_WORKERS))
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(4, |n| n.get()).clamp(4, 16)
            })
    }

    /// A device with an explicit worker count (`1..=MAX_WORKERS`).
    pub fn with_workers(spec: DeviceSpec, workers: usize) -> Self {
        check_block_size(&spec);
        assert!((1..=Self::MAX_WORKERS).contains(&workers));
        Device { spec, pool: WorkerPool::new(workers), hook: None, launch_seq: AtomicU64::new(0) }
    }

    /// Installs a launch-lifecycle callback, replacing any previous one.
    /// The hook fires around every launch ([`LaunchPhase::Begin`] /
    /// [`LaunchPhase::End`]), which is how the telemetry sampler aligns its
    /// windows to kernel boundaries (`repro watch` cuts a window at each
    /// `End`). See [`LaunchHook`] for the re-entrancy rule.
    pub fn set_launch_hook(&mut self, hook: LaunchHook) {
        self.hook = Some(hook);
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Number of OS workers in the pool.
    pub fn workers(&self) -> usize {
        self.pool.workers
    }

    /// Launches `n_threads` logical threads running `kernel`, one call per
    /// thread. Returns the wall-clock time of the parallel section.
    ///
    /// A warp's threads share its block and SM, so the context is built
    /// once per warp ([`WarpCtx::from_linear`], as [`Device::launch_warps`]
    /// does) and each thread only steps `thread_id` and `lane`.
    pub fn launch<F>(&self, n_threads: u32, kernel: F) -> Duration
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        self.launch_with_stats(n_threads, kernel).0
    }

    /// As [`Device::launch`], additionally returning the scheduler stats of
    /// the launch (dispatch overhead, per-worker warp counts, steals).
    pub fn launch_with_stats<F>(&self, n_threads: u32, kernel: F) -> (Duration, SchedStats)
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        let n_warps = n_threads.div_ceil(WARP_SIZE);
        let block_size = self.spec.default_block_size;
        let num_sms = self.spec.num_sms;
        self.run_warps(n_warps, |warp_id| {
            let mut ctx = WarpCtx::from_linear(warp_id, block_size, num_sms).leader();
            let lanes = (n_threads - ctx.thread_id).min(WARP_SIZE);
            for lane in 0..lanes {
                ctx.lane = lane;
                kernel(&ctx);
                ctx.thread_id += 1;
            }
        })
    }

    /// Launches `n_warps` warps running a *warp-collective* kernel, one call
    /// per warp. This drives the warp-based test cases (Fig. 9g) and any
    /// allocator's `malloc_warp` path.
    pub fn launch_warps<F>(&self, n_warps: u32, kernel: F) -> Duration
    where
        F: Fn(&WarpCtx) + Sync,
    {
        self.launch_warps_with_stats(n_warps, kernel).0
    }

    /// As [`Device::launch_warps`], additionally returning scheduler stats.
    pub fn launch_warps_with_stats<F>(&self, n_warps: u32, kernel: F) -> (Duration, SchedStats)
    where
        F: Fn(&WarpCtx) + Sync,
    {
        let block_size = self.spec.default_block_size;
        let num_sms = self.spec.num_sms;
        self.run_warps(n_warps, |warp_id| {
            kernel(&WarpCtx::from_linear(warp_id, block_size, num_sms));
        })
    }

    /// Shared scheduling entry: takes the launch gate (launches on one
    /// device are serialised, pooled *and* inline — the gate is taken
    /// before any clock starts, so waiting launches are not charged), then
    /// dispatches via [`Device::run_warps_locked`].
    fn run_warps<F>(&self, n_warps: u32, body: F) -> (Duration, SchedStats)
    where
        F: Fn(u32) + Sync,
    {
        let _gate = lock_pool(&self.pool.launch_gate);
        self.run_warps_locked(n_warps, &body)
    }

    /// Dispatches `n_warps` warps onto the pool (or runs inline for a
    /// 1-worker device) and reports the parallel section's duration plus
    /// scheduler stats. Caller must hold the launch gate. Every pooled
    /// launch funnels through here, so this is also where the
    /// [`LaunchHook`] fires — `Begin` before dispatch, `End` after the
    /// grid retires, outside the timed section on both sides.
    fn run_warps_locked(
        &self,
        n_warps: u32,
        body: &(dyn Fn(u32) + Sync),
    ) -> (Duration, SchedStats) {
        let Some(hook) = &self.hook else {
            return self.dispatch_warps(n_warps, body);
        };
        let seq = self.launch_seq.fetch_add(1, Ordering::Relaxed);
        hook(LaunchPhase::Begin { seq, n_warps });
        let (elapsed, sched) = self.dispatch_warps(n_warps, body);
        hook(LaunchPhase::End { seq, n_warps, elapsed });
        (elapsed, sched)
    }

    /// The hook-free core of [`Device::run_warps_locked`].
    fn dispatch_warps(&self, n_warps: u32, body: &(dyn Fn(u32) + Sync)) -> (Duration, SchedStats) {
        let workers = self.pool.workers;
        if n_warps == 0 {
            return (Duration::ZERO, SchedStats { workers, ..SchedStats::default() });
        }
        if workers == 1 {
            // Inline: deterministic sequential order, no hand-off at all.
            let start = Instant::now();
            for w in 0..n_warps {
                body(w);
            }
            let elapsed = start.elapsed();
            let sched = SchedStats {
                dispatch: Duration::ZERO,
                workers: 1,
                chunk: n_warps,
                warps_per_worker: vec![n_warps],
                steals: 0,
            };
            return (elapsed, sched);
        }
        self.run_pooled(n_warps, body)
    }

    /// The pooled launch protocol (see module docs): reset per-launch
    /// state, publish the job, stage every worker, start the clock, release
    /// the barrier, and collect the end stamp the last retiring worker
    /// leaves behind.
    fn run_pooled(&self, n_warps: u32, body: &(dyn Fn(u32) + Sync)) -> (Duration, SchedStats) {
        let pool = &self.pool;
        let shared = &*pool.shared;
        let t0 = Instant::now();
        let chunk = chunk_for(n_warps, pool.workers);

        // Reset per-launch state. Safe relaxed: the gen bump below (under
        // the state mutex) orders these writes before any worker reads.
        shared.next.store(0, Ordering::Relaxed);
        shared.staged.store(0, Ordering::Relaxed);
        shared.done.store(0, Ordering::Relaxed);
        shared.end_nanos.store(0, Ordering::Relaxed);
        for slot in &shared.slots {
            slot.warps.store(0, Ordering::Relaxed);
            slot.claims.store(0, Ordering::Relaxed);
        }

        // SAFETY: lifetime erasure only — the launch protocol guarantees no
        // worker touches the pointer after `done` reaches the pool size,
        // and this function does not return before that (JobPtr docs).
        let erased = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(u32) + Sync), &'static (dyn Fn(u32) + Sync)>(body)
        });
        let gen = {
            let mut st = lock_pool(&shared.state);
            st.gen += 1;
            st.job = Some(erased);
            st.n_warps = n_warps;
            st.chunk = chunk;
            st.panic = None;
            shared.start_cv.notify_all();
            st.gen
        };

        // Stage: every worker must hold at the barrier before the clock
        // starts, so wake-up latency lands in `dispatch`, not kernel time.
        let mut spins = 0u32;
        while shared.staged.load(Ordering::Acquire) != pool.workers {
            spin_or_yield(&mut spins, shared.spin_limit);
        }
        let dispatch = t0.elapsed();
        let start_nanos = shared.epoch.elapsed().as_nanos() as u64;
        shared.release_gen.store(gen, Ordering::Release);

        // Wait until the last warp retires.
        let panic_payload = {
            let mut st = lock_pool(&shared.state);
            while shared.done.load(Ordering::Acquire) < pool.workers {
                st = wait_pool(&shared.done_cv, st);
            }
            st.job = None;
            st.panic.take()
        };
        let end_nanos = shared.end_nanos.load(Ordering::Acquire);
        if let Some(p) = panic_payload {
            panic::resume_unwind(p);
        }
        let warps_per_worker: Vec<u32> =
            shared.slots.iter().map(|s| s.warps.load(Ordering::Relaxed)).collect();
        let steals: u64 = shared
            .slots
            .iter()
            .map(|s| s.claims.load(Ordering::Relaxed))
            .filter(|&c| c > 0)
            .map(|c| u64::from(c - 1))
            .sum();
        let elapsed = Duration::from_nanos(end_nanos.saturating_sub(start_nanos));
        (elapsed, SchedStats { dispatch, workers: pool.workers, chunk, warps_per_worker, steals })
    }
}

/// Rejects a block size that is not a positive multiple of [`WARP_SIZE`]:
/// a warp never spans two blocks, and [`Device::launch`] and
/// [`Device::launch_warps`] place a warp by its block.
fn check_block_size(spec: &DeviceSpec) {
    let b = spec.default_block_size;
    assert!(
        b > 0 && b.is_multiple_of(WARP_SIZE) && spec.num_sms > 0,
        "{}: block size {b} is not a multiple of the {WARP_SIZE}-lane warp",
        spec.name
    );
}

/// Parses a `GMS_WORKERS` value: a positive integer, anything else is
/// ignored (the caller falls back to the host default).
fn parse_worker_request(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&w| w >= 1)
}

/// One output slot per logical thread, writable from inside a kernel.
///
/// Kernels frequently need "each thread stores its pointer": slot `i` may be
/// written only by the thread whose `thread_id == i` (or, for warp kernels,
/// by the warp that owns lane-range `i`). That exclusivity is the safety
/// contract; it mirrors how the CUDA test kernels write `ptrs[threadIdx]`.
pub struct PerThread<T> {
    slots: Box<[UnsafeCell<T>]>,
}

// SAFETY: distinct threads access distinct slots (type contract above),
// and the launcher reads only after the done-barrier's Acquire.
unsafe impl<T: Send> Sync for PerThread<T> {}

impl<T: Default> PerThread<T> {
    /// `n` default-initialised slots.
    pub fn new(n: usize) -> Self {
        let slots: Box<[UnsafeCell<T>]> = (0..n).map(|_| UnsafeCell::new(T::default())).collect();
        PerThread { slots }
    }
}

impl<T> PerThread<T> {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Writes slot `i`.
    ///
    /// Contract: during a launch, each slot is written by exactly one logical
    /// thread (the one it belongs to). Violations are a logic bug in the
    /// calling kernel, not detectable here.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        // SAFETY: unique writer per slot (type contract).
        unsafe { *self.slots[i].get() = v }
    }

    /// Reads slot `i` via a mutable borrow (host-side, after the launch).
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        self.slots[i].get_mut()
    }

    /// Reads slot `i` from inside a kernel. Only sound for slots the calling
    /// thread owns (e.g. reading back a pointer it stored earlier in the same
    /// or an earlier launch).
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        // SAFETY: slot is not being mutated concurrently (owner-only access).
        unsafe { &*self.slots[i].get() }
    }

    /// Consumes the buffer into a plain vector (host-side reduction).
    pub fn into_vec(self) -> Vec<T> {
        self.slots.into_vec().into_iter().map(UnsafeCell::into_inner).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_core::sync::AtomicU64;

    fn device() -> Device {
        Device::with_workers(DeviceSpec::titan_v(), 4)
    }

    #[test]
    fn launch_runs_every_thread_exactly_once() {
        let d = device();
        let n = 10_000u32;
        let hits = PerThread::<u32>::new(n as usize);
        d.launch(n, |ctx| {
            hits.set(ctx.thread_id as usize, hits.get(ctx.thread_id as usize) + 1);
        });
        let v = hits.into_vec();
        assert!(v.iter().all(|&h| h == 1), "some thread ran != 1 times");
    }

    #[test]
    fn launch_zero_threads_is_noop() {
        let d = device();
        assert_eq!(d.launch(0, |_| panic!("must not run")), Duration::ZERO);
    }

    #[test]
    fn partial_tail_warp() {
        let d = device();
        let n = 33u32; // one full warp + 1 lane
        let count = AtomicU64::new(0);
        d.launch(n, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 33);
    }

    #[test]
    fn thread_ctx_coordinates_are_consistent() {
        let d = device();
        d.launch(4096, |ctx| {
            assert_eq!(ctx.warp, ctx.thread_id / 32);
            assert_eq!(ctx.lane, ctx.thread_id % 32);
            assert_eq!(ctx.block, ctx.thread_id / 256);
            assert!(ctx.sm < 80);
        });
    }

    /// Both presets, on the inline and the pooled device, with a partial
    /// last warp: every thread gets the context `ThreadCtx::from_linear`
    /// builds, and `launch` and `launch_warps` put each warp on the same SM.
    #[test]
    fn per_warp_contexts_match_from_linear_and_launch_warps() {
        for spec in [DeviceSpec::titan_v(), DeviceSpec::rtx_2080ti()] {
            for workers in [1, 3] {
                let d = Device::with_workers(spec, workers);
                let n = spec.default_block_size * (spec.num_sms + 5) + 17;
                let threads = PerThread::<Option<ThreadCtx>>::new(n as usize);
                d.launch(n, |ctx| threads.set(ctx.thread_id as usize, Some(*ctx)));
                let n_warps = n.div_ceil(WARP_SIZE);
                let warps = PerThread::<Option<WarpCtx>>::new(n_warps as usize);
                d.launch_warps(n_warps, |w| warps.set(w.warp as usize, Some(*w)));
                let warps = warps.into_vec();
                let (b, sms) = (spec.default_block_size, spec.num_sms);
                for (tid, ctx) in threads.into_vec().into_iter().enumerate() {
                    let ctx =
                        ctx.unwrap_or_else(|| panic!("{}: thread {tid} never ran", spec.name));
                    assert_eq!(ctx, ThreadCtx::from_linear(tid as u32, b, sms), "{}", spec.name);
                    let warp = warps[ctx.warp as usize].expect("every warp ran");
                    assert_eq!((warp.block, warp.sm), (ctx.block, ctx.sm), "{}", spec.name);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple of the 32-lane warp")]
    fn block_size_off_the_warp_is_rejected() {
        let spec = DeviceSpec { default_block_size: 100, ..DeviceSpec::titan_v() };
        let _ = Device::with_workers(spec, 1);
    }

    #[test]
    #[should_panic(expected = "not a multiple of the 32-lane warp")]
    fn block_size_off_the_warp_is_rejected_by_new() {
        let spec = DeviceSpec { default_block_size: 48, ..DeviceSpec::titan_v() };
        let _ = Device::new(spec);
    }

    #[test]
    fn launch_warps_runs_each_warp_once() {
        let d = device();
        let n_warps = 500u32;
        let hits = PerThread::<u32>::new(n_warps as usize);
        d.launch_warps(n_warps, |w| {
            hits.set(w.warp as usize, hits.get(w.warp as usize) + 1);
        });
        assert!(hits.into_vec().iter().all(|&h| h == 1));
    }

    #[test]
    fn warp_sm_assignment_spreads_over_sms() {
        let d = device();
        let sms = std::sync::Mutex::new(std::collections::HashSet::new());
        d.launch_warps(8 * 100, |w| {
            sms.lock().unwrap().insert(w.sm);
        });
        // 800 warps in blocks of 8 warps → 100 blocks → 80 SMs all covered.
        assert_eq!(sms.into_inner().unwrap().len(), 80);
    }

    #[test]
    fn single_worker_device_runs_inline() {
        let d = Device::with_workers(DeviceSpec::rtx_2080ti(), 1);
        let count = AtomicU64::new(0);
        d.launch(1000, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn per_thread_into_vec_roundtrip() {
        let p = PerThread::<u64>::new(8);
        for i in 0..8 {
            p.set(i, (i * i) as u64);
        }
        assert_eq!(p.into_vec(), vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn timing_is_monotonically_positive() {
        let d = device();
        let t = d.launch(50_000, |ctx| {
            std::hint::black_box(ctx.scatter_hash());
        });
        assert!(t > Duration::ZERO);
    }

    #[test]
    fn adaptive_chunk_shrinks_with_launch() {
        // A 16-warp launch on 4 workers used to run serially on one worker
        // (fixed chunk 16); the adaptive chunk spreads it.
        assert_eq!(chunk_for(16, 4), 1);
        assert_eq!(chunk_for(128, 16), 2);
        assert_eq!(chunk_for(1 << 20, 4), MAX_CLAIM_CHUNK);
        assert_eq!(chunk_for(1, 16), 1);
        assert_eq!(chunk_for(4, 4), 1);
    }

    #[test]
    fn small_launch_spreads_across_workers() {
        // Regression for the small-launch serialization bug: n_warps ==
        // workers, every warp parks on a barrier sized to the launch. The
        // kernel completes only if each warp runs on its own worker; the
        // old fixed CLAIM_CHUNK=16 put all 4 warps on one worker and this
        // deadlocked.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let d = device();
            let barrier = std::sync::Barrier::new(4);
            let (_, sched) = d.launch_warps_with_stats(4, |_w| {
                barrier.wait();
            });
            tx.send(sched).unwrap();
        });
        let sched = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("launch of `workers` warps serialized on one worker (deadlock)");
        assert_eq!(sched.workers_used(), 4, "per-worker warps: {:?}", sched.warps_per_worker);
        assert_eq!(sched.warps_per_worker.iter().sum::<u32>(), 4);
        assert_eq!(sched.chunk, 1);
    }

    #[test]
    fn mid_launch_feeds_more_workers_than_old_chunking() {
        // 128 warps on 16 workers: the fixed chunk of 16 capped usage at 8
        // workers; adaptive chunking (chunk 2) feeds the whole pool. Each
        // warp works long enough that all workers claim before the queue
        // drains.
        let d = Device::with_workers(DeviceSpec::titan_v(), 16);
        let (_, sched) = d.launch_warps_with_stats(128, |_| {
            std::thread::sleep(Duration::from_micros(100));
        });
        assert!(
            sched.workers_used() > 8,
            "adaptive chunking should beat the old 8-worker cap: {:?}",
            sched.warps_per_worker
        );
    }

    #[test]
    fn sched_stats_account_every_warp() {
        let d = device();
        let (_, sched) = d.launch_with_stats(10_000, |_| {});
        assert_eq!(sched.workers, 4);
        assert_eq!(sched.warps_per_worker.len(), 4);
        assert_eq!(sched.warps_per_worker.iter().sum::<u32>(), 10_000u32.div_ceil(WARP_SIZE));
        // 313 warps / (4 workers × 4 target claims) → capped at the max.
        assert_eq!(sched.chunk, chunk_for(10_000u32.div_ceil(WARP_SIZE), 4));
    }

    #[test]
    fn kernel_panic_propagates_and_pool_survives() {
        let d = device();
        let boom = panic::catch_unwind(AssertUnwindSafe(|| {
            d.launch(64, |ctx| {
                assert!(ctx.thread_id != 63, "boom");
            });
        }));
        assert!(boom.is_err(), "kernel panic must reach the launcher");
        // The pool must stay usable for the next launch.
        let count = AtomicU64::new(0);
        d.launch(1000, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn miri_smoke_perthread_barrier_handoff() {
        // Small, allocation-light hand-off exercise intended to stay
        // miri-clean: repeated launches re-use the parked pool and write
        // disjoint PerThread slots across the barrier.
        let d = Device::with_workers(DeviceSpec::titan_v(), 2);
        let out = PerThread::<u32>::new(64);
        for round in 0..3u32 {
            d.launch(64, |ctx| out.set(ctx.thread_id as usize, ctx.thread_id * 2 + round));
        }
        let v = out.into_vec();
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x as usize, i * 2 + 2);
        }
    }

    #[test]
    fn worker_request_parsing_and_clamping() {
        assert_eq!(parse_worker_request("8"), Some(8));
        assert_eq!(parse_worker_request(" 12 "), Some(12));
        assert_eq!(parse_worker_request("0"), None);
        assert_eq!(parse_worker_request("lots"), None);
        // Oversized requests clamp to the ceiling instead of building a
        // 1000-thread pool that can never all be fed.
        assert_eq!(parse_worker_request("1000").unwrap().clamp(1, Device::MAX_WORKERS), 64);
    }

    #[test]
    fn dispatch_and_kernel_time_fit_inside_the_call() {
        // `dispatch` ends before the kernel clock starts and the kernel
        // clock stops before the call returns, so the two never overlap:
        // their sum is at most the call's wall clock, exactly, every time.
        let d = device();
        for _ in 0..200 {
            let t = Instant::now();
            let (elapsed, sched) = d.launch_with_stats(4 * WARP_SIZE, |_| {});
            let call = t.elapsed();
            assert!(
                elapsed + sched.dispatch <= call,
                "kernel {elapsed:?} + dispatch {:?} exceeds the call {call:?}",
                sched.dispatch
            );
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing ratio; release-only (scripts/check.sh)")]
    fn empty_launch_reports_under_a_quarter_of_its_call() {
        // Timing fidelity: an empty kernel's *reported* time must be a small
        // part of what the launch costs the caller, or the harness is
        // charging thread administration to kernel time again. Minima over
        // many trials filter scheduler noise.
        let d = device();
        let (mut reported, mut call) = (Duration::MAX, Duration::MAX);
        for _ in 0..400 {
            let t = Instant::now();
            reported = reported.min(d.launch(4 * WARP_SIZE, |_| {})); // one warp per worker
            call = call.min(t.elapsed());
        }
        assert!(reported * 4 <= call, "empty kernel reported {reported:?} of a {call:?} call");
    }
}

/// Model-checked interleaving suite (built with `RUSTFLAGS="--cfg loom"`).
///
/// The worker pool itself is persistent OS infrastructure (condvars, a
/// long-lived thread set), so the models check a *distilled* replica of the
/// launch handoff — the same atomics with the same orderings as
/// `run_pooled`/`worker_loop`: per-launch `next`/`staged`/`done` resets
/// (Relaxed), the generation publish (the state-mutex edge, distilled to a
/// Release store / Acquire spin), the stage barrier (`staged` AcqRel +
/// Acquire spin), the release (`release_gen` Release store / Acquire spin),
/// Relaxed warp claims on `next`, and retirement (`done` AcqRel + Acquire
/// spin). The invariant in every schedule: each warp of each generation
/// executes exactly once, even though the claim counter itself is Relaxed.
#[cfg(all(test, loom))]
mod loom_tests {
    use gpumem_core::sync::{hint, model, thread, AtomicU32, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    const WORKERS: usize = 2;
    const WARPS: u32 = 3;

    #[derive(Default)]
    struct Handoff {
        /// Stand-in for the state-mutex gen publish (`st.gen += 1`).
        published: AtomicU64,
        staged: AtomicUsize,
        release_gen: AtomicU64,
        next: AtomicU32,
        done: AtomicUsize,
        /// Execution counts, `[gen-1][warp]` flattened.
        executed: [AtomicU32; 2 * WARPS as usize],
    }

    fn worker(h: &Handoff, gens: u64) {
        for gen in 1..=gens {
            while h.published.load(Ordering::Acquire) < gen {
                hint::spin_loop();
            }
            h.staged.fetch_add(1, Ordering::AcqRel);
            while h.release_gen.load(Ordering::Acquire) != gen {
                hint::spin_loop();
            }
            loop {
                let first = h.next.fetch_add(1, Ordering::Relaxed);
                if first >= WARPS {
                    break;
                }
                h.executed[(gen as usize - 1) * WARPS as usize + first as usize]
                    .fetch_add(1, Ordering::Relaxed);
            }
            h.done.fetch_add(1, Ordering::AcqRel);
        }
    }

    fn launch(h: &Handoff, gen: u64) {
        // Per-launch resets are Relaxed on purpose: the publish below is
        // the ordering edge (exec.rs `run_pooled` does this under the
        // state mutex; the model uses the equivalent Release/Acquire pair).
        h.next.store(0, Ordering::Relaxed);
        h.staged.store(0, Ordering::Relaxed);
        h.done.store(0, Ordering::Relaxed);
        h.published.store(gen, Ordering::Release);
        while h.staged.load(Ordering::Acquire) != WORKERS {
            hint::spin_loop();
        }
        h.release_gen.store(gen, Ordering::Release);
        while h.done.load(Ordering::Acquire) < WORKERS {
            hint::spin_loop();
        }
    }

    fn check_gen(h: &Handoff, gen: u64) {
        for w in 0..WARPS as usize {
            let n = h.executed[(gen as usize - 1) * WARPS as usize + w].load(Ordering::Acquire);
            assert_eq!(n, 1, "gen {gen} warp {w} executed {n} times");
        }
    }

    /// One launch: the stage barrier + release fully hand 3 warps to 2
    /// workers, each executed exactly once despite the Relaxed claims.
    #[test]
    fn single_launch_executes_each_warp_once() {
        model(|| {
            let h = Arc::new(Handoff::default());
            let spawn_worker = || {
                let h = h.clone();
                thread::spawn(move || worker(&h, 1))
            };
            let w1 = spawn_worker();
            let w2 = spawn_worker();
            launch(&h, 1);
            check_gen(&h, 1);
            w1.join().unwrap();
            w2.join().unwrap();
        });
    }

    /// Two back-to-back launches over the same (persistent) workers: the
    /// Relaxed per-launch resets must never leak into a generation — no
    /// schedule lets a worker of generation 2 observe generation 1's spent
    /// `next` counter or vice versa.
    #[test]
    fn generation_reuse_never_leaks_state() {
        model(|| {
            let h = Arc::new(Handoff::default());
            let spawn_worker = || {
                let h = h.clone();
                thread::spawn(move || worker(&h, 2))
            };
            let w1 = spawn_worker();
            let w2 = spawn_worker();
            launch(&h, 1);
            check_gen(&h, 1);
            launch(&h, 2);
            check_gen(&h, 2);
            w1.join().unwrap();
            w2.join().unwrap();
        });
    }
}

//! Telemetry: the windowed sampler the benchmark's `observed` workload
//! runs over the metrics layer.
//!
//! A [`Telemetry`] sampler cuts **windows**. Each cut reads every manager
//! attached to its [`TelemetrySink`] and records the **delta** of their
//! [`Metrics`] counters against the previous cut as one [`Sample`]. A host
//! thread cuts one at a configurable cadence (default 10 ms);
//! [`Telemetry::sample_now`] and [`Telemetry::stop`] cut one on the thread
//! that calls them, and return once it is in the ring. Any cut restarts the
//! cadence. Samples land in a bounded ring (drop-oldest, with an eviction
//! count), so a long run does not grow host memory without limit.
//!
//! The sampler folds counters only. Every fold of trace events — op
//! counts, latency percentiles, live bytes, fragmentation — belongs to the
//! one per-run export ([`crate::trace::chrome_trace_json`]), which replays
//! the recorded trace once, offline.
//!
//! ## Why counter deltas, not absolutes
//!
//! The shared counter block only ever accumulates ([`CounterSnapshot`] is
//! monotone), so a window's delta is exact and the windows partition the
//! run: their deltas sum to the series' `totals`. It is also robust to
//! managers *joining* mid-run: a manager built while the sampler runs
//! registers with the [`TelemetrySink`] and its first ops appear as that
//! window's delta.
//!
//! ## Teardown ordering
//!
//! Decorators can hold frees back (the [`Cached`](crate::cache::Cached)
//! magazines park them until a flush). Callers that keep a manager alive
//! across [`Telemetry::stop`] must call
//! [`DeviceAllocator::drain`](crate::traits::DeviceAllocator::drain) first,
//! so the final sample's window sees the flushed frees instead of
//! under-reporting them (regression-tested in `tests/telemetry.rs`).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{CounterSnapshot, Metrics};

/// Default sampler cadence: one sample every 10 ms (100 Hz).
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(10);

/// Sample-ring capacity: at the default cadence this holds ~41 s of
/// history; a soak run keeps the newest windows and counts what it evicted.
pub const DEFAULT_CAPACITY: usize = 4096;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Sampler configuration: the cadence. Construct with
/// [`TelemetryConfig::new`], then set it with [`TelemetryConfig::hz`].
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Sampling interval (window length under no forced cuts).
    interval: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { interval: DEFAULT_INTERVAL }
    }
}

impl TelemetryConfig {
    /// Defaults: 10 ms interval.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cadence as a frequency. Clamped to [0.1 Hz, 10 kHz]; NaN
    /// and non-positive values are ignored.
    pub fn hz(mut self, hz: f64) -> Self {
        if hz.is_finite() && hz > 0.0 {
            self.interval = Duration::from_secs_f64(1.0 / hz.clamp(0.1, 10_000.0));
        }
        self
    }
}

// ---------------------------------------------------------------------------
// Sink: where watched managers register
// ---------------------------------------------------------------------------

/// A registry of telemetry sources (manager [`Metrics`] handles). The
/// sampler aggregates across every source, merging counter snapshots, so a
/// scenario that builds one manager per cell still produces a single
/// coherent stream.
///
/// Cloning shares the registry. Attach happens in the benchmark registry's
/// builder (`ManagerBuilder::telemetry`).
#[derive(Clone, Default)]
pub struct TelemetrySink {
    sources: Arc<Mutex<Vec<Metrics>>>,
}

impl TelemetrySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a manager's metrics handle. Disabled handles are ignored —
    /// they can never produce a reading. Every call adds a source: counter
    /// blocks are distinct per builder call.
    pub fn attach(&self, metrics: &Metrics) {
        if metrics.is_enabled() {
            self.sources.lock().unwrap().push(metrics.clone());
        }
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.lock().unwrap().len()
    }

    /// Whether no source has registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Sample and time series
// ---------------------------------------------------------------------------

/// One sampling window: the merged counter delta of every source between
/// two cuts. Rates follow from `counters` and `window_ms`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    /// Monotone sample index (survives ring eviction).
    pub seq: u64,
    /// Window end, milliseconds since the sampler started.
    pub t_ms: f64,
    /// Window length in milliseconds (cadence, unless a cut was forced).
    pub window_ms: f64,
    /// What every source counted in the window.
    pub counters: CounterSnapshot,
}

/// A snapshot of everything the sampler has collected.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    /// Retained samples, oldest first (the ring may have evicted earlier
    /// ones — see [`TimeSeries::evicted`]).
    pub samples: Vec<Sample>,
    /// Samples evicted from the ring.
    pub evicted: u64,
    /// Cumulative merged counters across all sources at the last cut: the
    /// sum of every window's `counters`, evicted ones included.
    pub totals: CounterSnapshot,
}

// ---------------------------------------------------------------------------
// The sampler
// ---------------------------------------------------------------------------

/// Why a window is cut: by the cadence, by [`Telemetry::sample_now`], or
/// by [`Telemetry::stop`] (the last one).
#[derive(Clone, Copy, PartialEq)]
enum Cut {
    Tick,
    Now,
    Final,
}

/// What the handle and the cadence thread share. Every window
/// is folded under the one `cursor` lock on the thread that asks for it;
/// the `stop` flag and `wake` only end the cadence thread's sleep. All
/// coordination is Mutex + Condvar — no lock-free cleverness is warranted
/// off the allocation hot path, and it keeps the module trivially clean
/// under the atomics-ordering lint.
struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
    cursor: Mutex<Cursor>,
    sink: TelemetrySink,
    epoch: Instant,
    interval: Duration,
}

impl Shared {
    /// Cuts one window on the calling thread and returns how long the
    /// cadence thread should sleep. A [`Cut::Tick`] cuts only once an
    /// interval has passed since the last cut of any kind, and otherwise
    /// returns what is left of it; after a cut the answer is a whole
    /// interval, so the cadence thread never takes the lock back to back
    /// ahead of a waiting caller. After the [`Cut::Final`] window every cut
    /// is a no-op.
    fn cut(&self, why: Cut) -> Duration {
        let mut cur = self.cursor.lock().unwrap();
        let now = self.epoch.elapsed();
        let due = cur.last_t + self.interval;
        if why == Cut::Tick && now < due {
            return due - now;
        }
        if !cur.stopped {
            cur.fold(&self.sink, now);
            cur.stopped = why == Cut::Final;
        }
        self.interval
    }
}

/// Everything the windows have folded so far, and the sample ring they
/// land in. It lives behind [`Shared`]'s one lock, and whichever thread
/// asks for a window — the cadence thread, a `sample_now` caller, or
/// `stop` — folds it there itself, so each request returns once its own
/// window is in the ring.
struct Cursor {
    /// Merged counters at the last cut: the next window's delta base, and
    /// the series' cumulative totals.
    prev: CounterSnapshot,
    /// Folded counters of retired sources: once a manager's last clone is
    /// dropped its block is frozen, so it is snapshotted one final time
    /// into this base and pruned from the sink — long runs churning many
    /// managers would otherwise re-read every dead shard every tick.
    retired: CounterSnapshot,
    /// End of the last window, since [`Shared::epoch`].
    last_t: Duration,
    ring: VecDeque<Sample>,
    evicted: u64,
    /// `stop` has cut the final window.
    stopped: bool,
}

/// Handle to a running sampler. Dropping (or [`Telemetry::stop`]) joins
/// the cadence thread, cuts a final window and returns the series.
pub struct Telemetry {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Telemetry {
    /// Starts the cadence thread over `sink`. Managers attached to the sink
    /// (now or later) are folded into every subsequent window.
    pub fn start(cfg: TelemetryConfig, sink: TelemetrySink) -> Telemetry {
        let shared = Arc::new(Shared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            cursor: Mutex::new(Cursor {
                prev: CounterSnapshot::default(),
                retired: CounterSnapshot::default(),
                last_t: Duration::ZERO,
                ring: VecDeque::new(),
                evicted: 0,
                stopped: false,
            }),
            sink,
            epoch: Instant::now(),
            interval: cfg.interval,
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gms-telemetry".to_string())
                .spawn(move || cadence_loop(&shared))
                .expect("spawn telemetry sampler thread")
        };
        Telemetry { shared, thread: Some(thread) }
    }

    /// The sink this sampler reads. Attach more managers at any time.
    pub fn sink(&self) -> &TelemetrySink {
        &self.shared.sink
    }

    /// Cuts a window on the calling thread; returns once it is in the ring.
    pub fn sample_now(&self) {
        self.shared.cut(Cut::Now);
    }

    /// Stops the sampler: joins the cadence thread, then cuts one final
    /// window (so trailing ops — e.g. magazine drains — are reported) and
    /// returns everything collected.
    ///
    /// Call [`DeviceAllocator::drain`](crate::traits::DeviceAllocator::drain)
    /// on any still-live managers *before* this, or the final window will
    /// under-report frees still parked in decorator caches.
    pub fn stop(mut self) -> TimeSeries {
        self.shutdown();
        let cur = self.shared.cursor.lock().unwrap();
        TimeSeries {
            samples: cur.ring.iter().copied().collect(),
            evicted: cur.evicted,
            totals: cur.prev,
        }
    }

    fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            *self.shared.stop.lock().unwrap() = true;
            self.shared.wake.notify_all();
            let _ = thread.join();
            self.shared.cut(Cut::Final);
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Cadence thread and the window fold
// ---------------------------------------------------------------------------

/// The cadence thread: sleeps until a tick is due, or `stop` wakes it.
fn cadence_loop(shared: &Shared) {
    let mut wait = shared.interval;
    loop {
        let stop = shared.stop.lock().unwrap();
        if *shared.wake.wait_timeout_while(stop, wait, |stop| !*stop).unwrap().0 {
            return;
        }
        wait = shared.cut(Cut::Tick);
    }
}

impl Cursor {
    /// Folds the counters counted since the last cut into one [`Sample`]
    /// ending at `now` and pushes it into the ring.
    fn fold(&mut self, sink: &TelemetrySink, now: Duration) {
        // Merge every source's counters. Sources whose last manager-side
        // handle is gone are frozen: fold their final snapshot into the
        // retired base and prune them, so a run churning through many
        // managers never re-reads dead shards. The sole-owner check
        // precedes the snapshot — frozen-at-check means the snapshot taken
        // after it is the complete final value.
        let mut merged = self.retired;
        sink.sources.lock().unwrap().retain(|src| {
            let dead = src.is_sole_owner();
            let snap = src.snapshot();
            merged = merged.merge(&snap);
            if dead {
                self.retired = self.retired.merge(&snap);
            }
            !dead
        });
        if self.ring.len() == DEFAULT_CAPACITY {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(Sample {
            seq: self.evicted + self.ring.len() as u64,
            t_ms: now.as_secs_f64() * 1e3,
            window_ms: now.saturating_sub(self.last_t).as_secs_f64() * 1e3,
            counters: merged.delta_since(&self.prev),
        });
        self.prev = merged;
        self.last_t = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ThreadCtx;
    use crate::heap::DeviceHeap;
    use crate::metrics::Counter;
    use crate::ptr::DevicePtr;
    use crate::traits::DeviceAllocator;

    #[test]
    fn config_hz_sets_interval() {
        let cfg = TelemetryConfig::new().hz(100.0);
        assert_eq!(cfg.interval, Duration::from_millis(10));
        let cfg = TelemetryConfig::new().hz(0.0);
        assert_eq!(cfg.interval, DEFAULT_INTERVAL, "non-positive hz ignored");
        let cfg = TelemetryConfig::new().hz(f64::NAN);
        assert_eq!(cfg.interval, DEFAULT_INTERVAL, "NaN hz ignored");
        let cfg = TelemetryConfig::new().hz(1_000_000.0);
        assert_eq!(cfg.interval, Duration::from_secs_f64(1.0 / 10_000.0), "clamped to 10 kHz");
    }

    /// A minimal enabled manager the sampler can watch end to end, once
    /// wrapped in `Counted`.
    struct Bump {
        heap: Arc<DeviceHeap>,
        next: Mutex<u64>,
        m: Metrics,
    }

    impl Bump {
        fn new(m: Metrics) -> Self {
            Bump { heap: Arc::new(DeviceHeap::new(1 << 20)), next: Mutex::new(0), m }
        }
    }

    impl DeviceAllocator for Bump {
        fn info(&self) -> crate::info::ManagerInfo {
            crate::info::ManagerInfo::builder("TelemetryBump").supports_free(true).build()
        }
        fn heap(&self) -> &DeviceHeap {
            &self.heap
        }
        fn malloc(&self, _ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, crate::AllocError> {
            let mut next = self.next.lock().unwrap();
            let off = *next;
            *next += size;
            Ok(DevicePtr::new(off))
        }
        fn free(&self, _ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), crate::AllocError> {
            Ok(())
        }
        fn register_footprint(&self) -> crate::RegisterFootprint {
            crate::RegisterFootprint { malloc: 1, free: 1 }
        }
        fn metrics(&self) -> Metrics {
            self.m.clone()
        }
    }

    /// The windows partition the run: a busy cadence cuts many windows
    /// while the calls land, and their deltas sum exactly to the totals.
    #[test]
    fn sampler_windows_carry_counter_deltas() {
        let sink = TelemetrySink::new();
        let m = Metrics::enabled(4);
        sink.attach(&m);
        let tele = Telemetry::start(TelemetryConfig::new().hz(10_000.0), sink);
        let bump = crate::metrics::Counted::new(Bump::new(m));
        let ctx = ThreadCtx::host();
        for _ in 0..100 {
            let p = bump.malloc(&ctx, 64).unwrap();
            bump.free(&ctx, p).unwrap();
        }
        tele.sample_now();
        let ts = tele.stop();
        assert_eq!(ts.evicted, 0);
        assert_eq!(ts.totals.malloc_calls(), 100);
        assert_eq!(ts.totals.free_calls(), 100);
        let windowed =
            ts.samples.iter().fold(CounterSnapshot::default(), |sum, s| sum.merge(&s.counters));
        assert_eq!(windowed, ts.totals, "window deltas sum exactly to the totals");
    }

    #[test]
    fn sample_ring_is_bounded_and_counts_evictions() {
        let tele = Telemetry::start(TelemetryConfig::new().hz(0.1), TelemetrySink::new());
        for _ in 0..DEFAULT_CAPACITY + 3 {
            tele.sample_now();
        }
        let ts = tele.stop();
        assert_eq!(ts.samples.len(), DEFAULT_CAPACITY, "capacity bound holds");
        assert!(ts.evicted >= 4, "evictions counted: {}", ts.evicted);
        let seqs: Vec<u64> = ts.samples.iter().map(|s| s.seq).collect();
        assert_eq!(seqs[0], ts.evicted, "the ring keeps the newest rows");
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "retained rows are dense");
    }

    /// Many wide sources: every window takes long enough that a busy
    /// 100 µs cadence is usually mid-cut when the test asks for one.
    fn busy_sampler() -> (Vec<Metrics>, Telemetry) {
        let sink = TelemetrySink::new();
        let sources: Vec<Metrics> = (0..64).map(|_| Metrics::enabled(128)).collect();
        for m in &sources {
            sink.attach(m);
        }
        (sources, Telemetry::start(TelemetryConfig::new().hz(10_000.0), sink))
    }

    #[test]
    fn dead_sources_are_retired_but_their_totals_survive() {
        let sink = TelemetrySink::new();
        let m = Metrics::enabled(2);
        sink.attach(&m);
        let tele = Telemetry::start(TelemetryConfig::new().hz(0.1), sink);
        m.add(0, Counter::MallocCalls, 7);
        tele.sample_now();
        assert_eq!(tele.sink().len(), 1, "live source stays registered");

        m.add(1, Counter::MallocCalls, 3);
        drop(m); // last manager-side handle: the block is frozen
        tele.sample_now();
        assert_eq!(tele.sink().len(), 0, "frozen source pruned after its final fold");

        let series = tele.stop();
        assert_eq!(series.totals.malloc_calls(), 10, "retired counts survive in totals");
        let windowed: Vec<u64> = series.samples.iter().map(|s| s.counters.malloc_calls()).collect();
        assert_eq!(windowed, [7, 3, 0], "each call lands in exactly one window");
    }

    /// `sample_now` returns after a window it cut itself: a source whose
    /// last handle is dropped before the call is always pruned by it, even
    /// when the cadence thread is in the middle of a window at the time.
    /// The doomed source is attached first, so a window that has checked it
    /// still has 64 wide sources to read when it is dropped.
    #[test]
    fn sample_now_prunes_a_source_dropped_before_it() {
        let wide: Vec<Metrics> = (0..64).map(|_| Metrics::enabled(256)).collect();
        for i in 0..300u64 {
            let sink = TelemetrySink::new();
            let doomed = Metrics::enabled(1);
            sink.attach(&doomed);
            for m in &wide {
                sink.attach(m);
            }
            let tele = Telemetry::start(TelemetryConfig::new().hz(10_000.0), sink);
            std::thread::sleep(Duration::from_micros(100 + i % 7 * 20));
            drop(doomed);
            tele.sample_now();
            assert_eq!(tele.sink().len(), 64, "iteration {i}: the next cut pruned the source");
        }
    }

    /// `stop` ends with a sample taken after it was called, even when it
    /// lands while the sampler is in the middle of one: a count recorded
    /// just before `stop` always reaches the totals.
    #[test]
    fn stop_during_a_sample_still_takes_a_final_one() {
        for _ in 0..50 {
            let (sources, tele) = busy_sampler();
            std::thread::sleep(Duration::from_micros(500));
            sources[0].add(0, Counter::MallocCalls, 1);
            assert_eq!(tele.stop().totals.malloc_calls(), 1, "the final sample saw the call");
        }
    }
}

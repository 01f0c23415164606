//! Telemetry: a time-series sampler over the metrics + trace layers.
//!
//! The paper's figures are end-of-run aggregates; this module adds the
//! *shape* of a run — throughput, latency percentiles, fragmentation drift
//! and OOM-fallback rates per window while kernels run. It turns the
//! snapshot-at-end layers ([`crate::metrics`], [`crate::trace`]) into a
//! series that is written out when the run ends:
//!
//! * A [`Telemetry`] sampler cuts **windows**. Each cut reads every manager
//!   attached to its [`TelemetrySink`], takes the **delta** of their
//!   [`Metrics`] counters against the previous cut, drains newly committed
//!   trace-ring events past a per-recorder cursor, and folds both into one
//!   [`Sample`] row. A host thread cuts one at a configurable cadence
//!   (default 10 ms); [`Telemetry::sample_now`], a [`BoundaryMarker`] at
//!   every kernel boundary and [`Telemetry::stop`] cut one on the thread
//!   that calls them, and return once it is in the ring. Any cut restarts
//!   the cadence.
//! * Samples land in a bounded fixed-capacity ring (drop-oldest, with an
//!   eviction count) — the same boundedness discipline as the trace ring:
//!   a long run must not grow host memory without limit.
//! * One exporter: a schema-versioned JSON time-series dump
//!   ([`TimeSeries::to_json`]), whose sample objects carry the same columns
//!   as the CSV rows ([`Sample::csv_row`]).
//!
//! ## Why counter deltas, not absolutes
//!
//! The shared counter block only ever accumulates ([`CounterSnapshot`] is
//! monotone), so a rate over a window is `(now − prev) / window` — exact,
//! and robust to managers *joining* mid-run: a manager built during the
//! watched scenario registers with the [`TelemetrySink`] and its first ops
//! appear as that window's delta. Absolute readings would instead need
//! every consumer to know each source's epoch. The same cursor logic
//! applies to the trace rings: only events past the last cut's drain are
//! folded into the new window's `malloc_ops` and, when timed, its latency
//! histogram, so one event is never counted twice even though ring
//! snapshots are non-destructive.
//!
//! ## Teardown ordering
//!
//! Decorators can hold frees back (the [`Cached`](crate::cache::Cached)
//! magazines park them until a flush). Callers that keep a manager alive
//! across [`Telemetry::stop`] must call
//! [`DeviceAllocator::drain`](crate::traits::DeviceAllocator::drain) first,
//! so the final sample's window sees the flushed frees instead of
//! under-reporting them (regression-tested in `tests/telemetry.rs`).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::frag::{AddressRange, FragmentationStats};
use crate::json::quote;
use crate::metrics::{CounterSnapshot, Metrics};
use crate::ptr::DevicePtr;
use crate::trace::{EventKind, LatencyHistogram, TraceRecorder};

/// Schema version stamped into every JSON time-series dump. Bump on any
/// field change so downstream consumers can reject what they cannot parse.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 2;

/// Default sampler cadence: one sample every 10 ms (100 Hz).
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(10);

/// Default sample-ring capacity: at the default cadence this holds ~41 s of
/// history in ~12 KiB; a soak run keeps the newest window and counts what
/// it evicted.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Per-SM trace-ring capacity forced onto managers built with a telemetry
/// sink and no explicit `.trace(..)`. Smaller than
/// [`crate::trace::DEFAULT_EVENTS_PER_SM`]: the sampler drains continuously,
/// so the ring only needs to cover one sampling interval, and a watched
/// matrix run builds many managers whose rings all stay alive.
pub const WATCH_EVENTS_PER_SM: usize = 2048;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Sampler configuration. Construct with [`TelemetryConfig::new`], then
/// chain the builder-style setters.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Sampling interval (window length under no forced cuts).
    pub interval: Duration,
    /// Sample-ring capacity; the oldest row is evicted (and counted) when
    /// full.
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { interval: DEFAULT_INTERVAL, capacity: DEFAULT_CAPACITY }
    }
}

impl TelemetryConfig {
    /// Defaults: 10 ms interval, 4096-row ring.
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

    /// Sets the sampling interval directly.
    pub fn interval(mut self, d: Duration) -> Self {
        self.interval = d.max(Duration::from_micros(100));
        self
    }

    /// Sets the sample-ring capacity (min 2: one live row plus headroom for
    /// the final cut).
    pub fn capacity(mut self, n: usize) -> Self {
        self.capacity = n.max(2);
        self
    }
}

// ---------------------------------------------------------------------------
// Sink: where watched managers register
// ---------------------------------------------------------------------------

/// A registry of telemetry sources (manager [`Metrics`] handles and their
/// attached trace recorders). The sampler aggregates across every source,
/// merging counter snapshots, so a scenario that builds one manager per
/// cell still produces a single coherent stream.
///
/// Cloning shares the registry. Attach happens in the benchmark registry's
/// builder (`ManagerBuilder::telemetry`); `repro watch` hands its sink to
/// the scenario's `Bench`, whose builder passes it to every manager the
/// scenario constructs.
#[derive(Clone, Default)]
pub struct TelemetrySink {
    sources: Arc<Mutex<Vec<Source>>>,
}

struct Source {
    metrics: Metrics,
    recorder: Option<Arc<TraceRecorder>>,
}

impl TelemetrySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a manager's metrics handle (and, when one is attached, its
    /// trace recorder). Disabled handles are ignored — they can never
    /// produce a reading.
    pub fn attach(&self, metrics: &Metrics) {
        if !metrics.is_enabled() {
            return;
        }
        let recorder = metrics.tracer().cloned();
        // Every call adds a source: counter blocks are distinct per builder
        // call. Recorders shared between sources are folded once, because
        // `take_sample` keeps one cursor per ring (`Arc::ptr_eq`).
        self.sources.lock().unwrap().push(Source { metrics: metrics.clone(), recorder });
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
// Sample
// ---------------------------------------------------------------------------

/// One sampling window's reading. Rates are per-window deltas divided by
/// the window length; `live_*`, `frag_percent` and `dropped_events` are
/// point-in-time readings at the window's end.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    /// Monotone sample index (survives ring eviction).
    pub seq: u64,
    /// Window end, milliseconds since the sampler started.
    pub t_ms: f64,
    /// Window length in milliseconds (cadence, unless a cut was forced).
    pub window_ms: f64,
    /// Successful-or-failed malloc calls per second in the window.
    pub allocs_per_sec: f64,
    /// Free calls per second in the window.
    pub frees_per_sec: f64,
    /// CAS retries per malloc/free call in the window.
    pub cas_retries_per_op: f64,
    /// Magazine hits / (hits + misses) in the window; 0 when uncached.
    pub magazine_hit_rate: f64,
    /// Live allocations by counter accounting (mallocs − frees, net of
    /// failures), across all sources, cumulative.
    pub live_allocs: u64,
    /// Live bytes by trace replay (0 without a trace ring; approximate if
    /// the ring dropped events).
    pub live_bytes: u64,
    /// Fragmentation of the live set via [`crate::frag`]: percent by which
    /// the spanned address range exceeds the packed footprint.
    pub frag_percent: f64,
    /// Malloc completions (`MallocEnd` events) in this window, timed or
    /// not.
    pub malloc_ops: u64,
    /// Windowed malloc latency percentiles from the log2 histogram of the
    /// window's timed completions (ns; 0 when none was timed).
    pub malloc_p50_ns: u64,
    /// 95th percentile (ns).
    pub malloc_p95_ns: u64,
    /// 99th percentile (ns).
    pub malloc_p99_ns: u64,
    /// OOM fallbacks per malloc call in the window.
    pub oom_fallback_rate: f64,
    /// Trace events dropped (ring full), cumulative across all recorders.
    pub dropped_events: u64,
    /// Kernel launches this window ends: 1 for a window cut by
    /// [`BoundaryMarker::mark`] in the executor's launch hook, else 0.
    pub launches: u64,
    /// Whether this window was cut at a kernel boundary (launch hook)
    /// rather than by the cadence or an explicit cut.
    pub boundary: bool,
}

impl Sample {
    /// The column order [`Sample::csv_row`] renders — shared with the CSV
    /// writers in the bench crate so headers never drift from rows.
    pub const CSV_HEADER: &'static [&'static str] = &[
        "seq",
        "t_ms",
        "window_ms",
        "allocs_per_sec",
        "frees_per_sec",
        "cas_retries_per_op",
        "magazine_hit_rate",
        "live_allocs",
        "live_bytes",
        "frag_percent",
        "malloc_ops",
        "malloc_p50_ns",
        "malloc_p95_ns",
        "malloc_p99_ns",
        "oom_fallback_rate",
        "dropped_events",
        "launches",
        "boundary",
    ];

    /// The row matching [`Sample::CSV_HEADER`]; the JSON dump's sample
    /// objects are built from the same pairs.
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            self.seq.to_string(),
            format!("{:.3}", fin(self.t_ms)),
            format!("{:.3}", fin(self.window_ms)),
            format!("{:.1}", fin(self.allocs_per_sec)),
            format!("{:.1}", fin(self.frees_per_sec)),
            format!("{:.4}", fin(self.cas_retries_per_op)),
            format!("{:.4}", fin(self.magazine_hit_rate)),
            self.live_allocs.to_string(),
            self.live_bytes.to_string(),
            format!("{:.2}", fin(self.frag_percent)),
            self.malloc_ops.to_string(),
            self.malloc_p50_ns.to_string(),
            self.malloc_p95_ns.to_string(),
            self.malloc_p99_ns.to_string(),
            format!("{:.6}", fin(self.oom_fallback_rate)),
            self.dropped_events.to_string(),
            self.launches.to_string(),
            (self.boundary as u8).to_string(),
        ]
    }
}

// ---------------------------------------------------------------------------
// Time series
// ---------------------------------------------------------------------------

/// A snapshot of everything the sampler has collected.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    /// Retained samples, oldest first (the ring may have evicted earlier
    /// ones — see [`TimeSeries::evicted`]).
    pub samples: Vec<Sample>,
    /// Samples evicted from the ring.
    pub evicted: u64,
    /// Ring capacity.
    pub capacity: usize,
    /// Configured cadence in milliseconds.
    pub interval_ms: f64,
    /// Cumulative merged counters across all sources at snapshot time.
    pub totals: CounterSnapshot,
    /// Cumulative dropped trace events across all recorders.
    pub dropped_events: u64,
    /// Cumulative observed kernel launches: one per boundary window.
    pub launches: u64,
}

/// Finite float for the exports: NaN/inf (impossible by construction,
/// but a poisoned value must not produce an unparsable export) render as 0.
fn fin(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl TimeSeries {
    /// The newest sample, if any.
    pub fn last(&self) -> Option<&Sample> {
        self.samples.last()
    }

    /// Schema-versioned JSON dump. `label` names the run (scenario name);
    /// `provenance` carries the standard stamps (`git`, `device`, seed…).
    /// Each sample object holds the [`Sample::CSV_HEADER`] keys with the
    /// [`Sample::csv_row`] values, so the dump and the CSV agree.
    pub fn to_json(&self, label: &str, provenance: &[(String, String)]) -> String {
        let mut out = String::with_capacity(256 + self.samples.len() * 256);
        out.push_str(&format!(
            "{{\n  \"schema\": {TELEMETRY_SCHEMA_VERSION},\n  \"kind\": \"gms-telemetry\",\n  \
             \"label\": {},\n",
            quote(label)
        ));
        let prov: Vec<String> =
            provenance.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
        out.push_str(&format!("  \"provenance\": {{{}}},\n", prov.join(", ")));
        out.push_str(&format!(
            "  \"interval_ms\": {}, \"capacity\": {}, \"evicted\": {},\n",
            fin(self.interval_ms),
            self.capacity,
            self.evicted
        ));
        out.push_str(&format!(
            "  \"totals\": {{\"malloc_calls\": {}, \"malloc_failures\": {}, \"free_calls\": {}, \
             \"free_failures\": {}, \"cas_retries\": {}, \"oom_fallbacks\": {}, \
             \"magazine_hits\": {}, \"magazine_misses\": {}, \"magazine_flushes\": {}}},\n",
            self.totals.malloc_calls(),
            self.totals.malloc_failures(),
            self.totals.free_calls(),
            self.totals.free_failures(),
            self.totals.cas_retries(),
            self.totals.oom_fallbacks(),
            self.totals.magazine_hits(),
            self.totals.magazine_misses(),
            self.totals.magazine_flushes(),
        ));
        out.push_str(&format!(
            "  \"dropped_events\": {}, \"launches\": {},\n",
            self.dropped_events, self.launches
        ));
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let fields: Vec<String> = Sample::CSV_HEADER
                .iter()
                .zip(s.csv_row())
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let sep = if i + 1 == self.samples.len() { "" } else { "," };
            out.push_str(&format!("    {{{}}}{sep}\n", fields.join(", ")));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// The sampler
// ---------------------------------------------------------------------------

/// Why a window is cut: by the cadence, by [`Telemetry::sample_now`], by a
/// [`BoundaryMarker::mark`], or by [`Telemetry::stop`] (the last one).
#[derive(Clone, Copy, PartialEq)]
enum Cut {
    Tick,
    Now,
    Boundary,
    Final,
}

/// What the handle, the markers and the cadence thread share. Every window
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
    /// is a no-op, so a late mark cannot follow `stop`'s window.
    fn cut(&self, why: Cut) -> Duration {
        let mut cur = self.cursor.lock().unwrap();
        let now = self.epoch.elapsed();
        let due = cur.last_t + self.interval;
        if why == Cut::Tick && now < due {
            return due - now;
        }
        if !cur.stopped {
            cur.fold(&self.sink, now, why == Cut::Boundary);
            cur.stopped = why == Cut::Final;
        }
        self.interval
    }
}

/// Per-recorder replay cursor: how far into a ring's event stream the
/// sampler has folded, keyed by ring identity.
struct RecorderCursor {
    recorder: Arc<TraceRecorder>,
    /// Per-shard consumed-prefix indices for
    /// [`TraceRecorder::snapshot_since`] — each committed event is folded
    /// into exactly one window, with no per-tick full-ring re-decode.
    shard_cursors: Vec<u64>,
    /// Events folded so far. `recorded()` counts a slot from its claim, so
    /// equal means nothing is left to drain and the fold skips it; a slot
    /// caught between claim and publication keeps the two apart until a
    /// later window folds it.
    seen: u64,
}

/// Everything the windows have folded so far, and the sample ring they
/// land in. It lives behind [`Shared`]'s one lock, and whichever thread
/// asks for a window — the cadence thread, a `sample_now` caller, a
/// launching thread's boundary mark, or `stop` — folds it there itself, so
/// each request returns once its own window is in the ring.
struct Cursor {
    /// Merged counters at the last cut: the next window's delta base, and
    /// the series' cumulative totals.
    prev: CounterSnapshot,
    recorders: Vec<RecorderCursor>,
    /// Live allocation replay: offset → size, fed by MallocEnd/FreeEnd.
    live: HashMap<u64, u64>,
    /// Cached `(live_bytes, frag_percent)` of `live` — rebuilding the
    /// range is O(live set), so it only happens on windows whose event
    /// fold actually changed the set; idle ticks reuse the cache.
    occupancy: (u64, f64),
    /// Folded counters of retired sources: once a manager's last clone is
    /// dropped its block is frozen, so it is snapshotted one final time
    /// into this base and pruned from the sink — long runs churning many
    /// managers would otherwise re-read every dead shard every tick.
    retired: CounterSnapshot,
    /// `dropped()` totals of retired trace recorders, same idea.
    retired_dropped: u64,
    /// End of the last window, since [`Shared::epoch`].
    last_t: Duration,
    ring: VecDeque<Sample>,
    capacity: usize,
    evicted: u64,
    seq: u64,
    /// Boundary windows cut so far (one per launch; survives eviction).
    launches: u64,
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
                recorders: Vec::new(),
                live: HashMap::new(),
                occupancy: (0, 0.0),
                retired: CounterSnapshot::default(),
                retired_dropped: 0,
                last_t: Duration::ZERO,
                ring: VecDeque::with_capacity(cfg.capacity.min(65_536)),
                capacity: cfg.capacity,
                evicted: 0,
                seq: 0,
                launches: 0,
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

    /// A cheap cloneable handle that cuts boundary windows without owning
    /// the sampler — what a `'static` executor launch hook captures (the
    /// hook outlives no one, the `Telemetry` value stays with the caller).
    /// Marks become no-ops once the sampler has stopped.
    pub fn boundary_marker(&self) -> BoundaryMarker {
        BoundaryMarker { shared: Arc::clone(&self.shared) }
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
            capacity: cur.capacity,
            interval_ms: self.shared.interval.as_secs_f64() * 1e3,
            totals: cur.prev,
            dropped_events: cur.ring.back().map_or(0, |s| s.dropped_events),
            launches: cur.launches,
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

/// Detached kernel-boundary trigger; see [`Telemetry::boundary_marker`].
#[derive(Clone)]
pub struct BoundaryMarker {
    shared: Arc<Shared>,
}

impl BoundaryMarker {
    /// Cuts one window flagged [`Sample::boundary`], with `launches == 1`,
    /// on the calling thread. The executor's launch hook calls it after the
    /// launch has been measured, so the cut lengthens a watched run without
    /// entering any reported time. A no-op after the sampler stopped.
    pub fn mark(&self) {
        self.shared.cut(Cut::Boundary);
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
    /// Folds everything since the last cut into one [`Sample`] ending at
    /// `now` and pushes it into the ring.
    fn fold(&mut self, sink: &TelemetrySink, now: Duration, boundary: bool) {
        // Merge every source's counters; pick up recorders we have not seen.
        // Sources whose last manager-side handle is gone are frozen: fold
        // their final snapshot into the retired base and prune them, so a
        // run churning through many managers never re-reads dead shards.
        // The sole-owner check precedes the snapshot — frozen-at-check means
        // the snapshot taken after it is the complete final value.
        let mut merged = self.retired;
        {
            let mut sources = sink.sources.lock().unwrap();
            sources.retain(|src| {
                let dead = src.metrics.is_sole_owner();
                let snap = src.metrics.snapshot();
                merged = merged.merge(&snap);
                if let Some(rec) = &src.recorder {
                    if !self.recorders.iter().any(|c| Arc::ptr_eq(&c.recorder, rec)) {
                        self.recorders.push(RecorderCursor {
                            recorder: Arc::clone(rec),
                            shard_cursors: Vec::new(),
                            seen: 0,
                        });
                    }
                }
                if dead {
                    self.retired = self.retired.merge(&snap);
                }
                !dead
            });
        }
        let delta = merged.delta_since(&self.prev);

        // Fold newly committed trace events into this window, then retire
        // recorders nobody else holds: the drain just taken was their last
        // (no handle left to emit), so only the dropped total survives.
        let mut hist = LatencyHistogram::new();
        let mut malloc_ops = 0u64;
        let mut live_changed = false;
        let mut dropped = self.retired_dropped;
        let mut retired_dropped = 0u64;
        let (recorders, live) = (&mut self.recorders, &mut self.live);
        recorders.retain_mut(|rc| {
            // Sole ownership checked *before* the drain: frozen-at-check
            // means this drain sees every event the recorder will ever hold.
            let sole = Arc::strong_count(&rc.recorder) == 1;
            if rc.recorder.recorded() != rc.seen {
                let trace = rc.recorder.snapshot_since(&mut rc.shard_cursors);
                rc.seen += trace.events.len() as u64;
                for ev in &trace.events {
                    if ev.kind == EventKind::MallocEnd {
                        malloc_ops += 1;
                        if let Some(ns) = ev.latency() {
                            hist.record(ns);
                        }
                    }
                    if let Some((ptr, size)) = ev.grant() {
                        live.insert(ptr, size);
                        live_changed = true;
                    } else if let Some(ptr) = ev.release() {
                        live.remove(&ptr);
                        live_changed = true;
                    }
                }
            }
            dropped += rc.recorder.dropped();
            if sole {
                retired_dropped += rc.recorder.dropped();
            }
            !sole
        });
        self.retired_dropped += retired_dropped;

        // Fragmentation of the live set, via the paper's frag machinery.
        // Rebuilding the range walks the whole live map, so only windows
        // whose events changed the set pay it; idle ticks (the common case
        // at kHz cadences) reuse the cached pair.
        if live_changed {
            let mut range = AddressRange::new();
            let mut live_bytes = 0u64;
            for (&off, &size) in &self.live {
                range.record(DevicePtr::new(off), size);
                live_bytes += size;
            }
            let frag_percent = if range.count() > 0 {
                FragmentationStats::from_range(&range).percent_over_baseline()
            } else {
                0.0
            };
            self.occupancy = (live_bytes, frag_percent);
        }
        let (live_bytes, frag_percent) = self.occupancy;

        let window = now.saturating_sub(self.last_t);
        let win_s = window.as_secs_f64().max(1e-9);
        let ops = delta.malloc_calls() + delta.free_calls();
        let mag_traffic = delta.magazine_hits() + delta.magazine_misses();
        let launches = u64::from(boundary);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(Sample {
            seq: self.seq,
            t_ms: now.as_secs_f64() * 1e3,
            window_ms: window.as_secs_f64() * 1e3,
            allocs_per_sec: delta.malloc_calls() as f64 / win_s,
            frees_per_sec: delta.free_calls() as f64 / win_s,
            cas_retries_per_op: delta.cas_retries() as f64 / ops.max(1) as f64,
            magazine_hit_rate: delta.magazine_hits() as f64 / mag_traffic.max(1) as f64,
            live_allocs: merged.live(),
            live_bytes,
            frag_percent,
            malloc_ops,
            malloc_p50_ns: hist.p50(),
            malloc_p95_ns: hist.p95(),
            malloc_p99_ns: hist.p99(),
            oom_fallback_rate: delta.oom_fallbacks() as f64 / delta.malloc_calls().max(1) as f64,
            dropped_events: dropped,
            launches,
            boundary,
        });
        self.seq += 1;
        self.launches += launches;
        self.prev = merged;
        self.last_t = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ThreadCtx;
    use crate::heap::DeviceHeap;
    use crate::json::Json;
    use crate::metrics::Counter;
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

    fn series_fixture() -> TimeSeries {
        let mut samples = Vec::new();
        for i in 0..5u64 {
            samples.push(Sample {
                seq: i,
                t_ms: (i + 1) as f64 * 10.0,
                window_ms: 10.0,
                allocs_per_sec: 1000.0 + i as f64,
                frees_per_sec: 900.0,
                cas_retries_per_op: 0.25,
                magazine_hit_rate: 0.5,
                live_allocs: 10,
                live_bytes: 640,
                frag_percent: 12.5,
                malloc_ops: 100,
                malloc_p50_ns: 128,
                malloc_p95_ns: 512,
                malloc_p99_ns: 1024,
                oom_fallback_rate: 0.0,
                dropped_events: 0,
                launches: 1,
                boundary: i == 4,
            });
        }
        TimeSeries {
            samples,
            evicted: 2,
            capacity: 8,
            interval_ms: 10.0,
            totals: CounterSnapshot::default(),
            dropped_events: 3,
            launches: 5,
        }
    }

    #[test]
    fn json_dump_is_schema_versioned_and_balanced() {
        let prov =
            vec![("git".to_string(), "abc123".to_string()), ("seed".to_string(), "0x5eed".into())];
        let series = series_fixture();
        let doc = Json::parse(&series.to_json("mixed", &prov)).expect("dump is strict JSON");
        let top = doc.as_object().expect("dump is an object");
        let get = |obj: &[(String, Json)], key: &str| {
            obj.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        };
        assert_eq!(get(top, "schema").and_then(|v| v.as_number()), Some(2.0));
        assert_eq!(get(top, "kind"), Some(Json::String("gms-telemetry".into())));
        assert_eq!(get(top, "label"), Some(Json::String("mixed".into())));
        let prov = get(top, "provenance").expect("provenance");
        assert_eq!(get(prov.as_object().unwrap(), "git"), Some(Json::String("abc123".into())));
        assert!(get(top, "slo").is_none(), "schema 2 has no slo key");
        let samples = get(top, "samples").expect("samples");
        let samples = samples.as_array().unwrap();
        assert_eq!(samples.len(), series.samples.len());
        for (obj, s) in samples.iter().zip(&series.samples) {
            let obj = obj.as_object().expect("sample is an object");
            let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, Sample::CSV_HEADER, "sample keys are the CSV columns");
            assert!(obj.iter().all(|(_, v)| v.as_number().is_some_and(f64::is_finite)));
            let boundary = get(obj, "boundary").and_then(|v| v.as_number());
            assert_eq!(boundary, Some(f64::from(u8::from(s.boundary))));
        }
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

    #[test]
    fn sampler_windows_carry_counter_deltas() {
        let sink = TelemetrySink::new();
        let m = Metrics::enabled(4);
        sink.attach(&m);
        let tele =
            Telemetry::start(TelemetryConfig::new().interval(Duration::from_millis(2)), sink);
        let bump = crate::metrics::Counted::new(Bump::new(m));
        let ctx = ThreadCtx::host();
        for _ in 0..100 {
            let p = bump.malloc(&ctx, 64).unwrap();
            bump.free(&ctx, p).unwrap();
        }
        tele.sample_now();
        let ts = tele.stop();
        assert!(!ts.samples.is_empty());
        assert_eq!(ts.totals.malloc_calls(), 100);
        assert_eq!(ts.totals.free_calls(), 100);
        let windowed: f64 = ts.samples.iter().map(|s| s.allocs_per_sec * s.window_ms / 1e3).sum();
        assert!(
            (windowed - 100.0).abs() < 1.0,
            "window deltas must sum to the cumulative count, got {windowed}"
        );
    }

    #[test]
    fn sampler_folds_trace_latencies_and_live_bytes() {
        let rec = Arc::new(TraceRecorder::new(2, 64));
        let m = Metrics::enabled(2).with_tracer(Arc::clone(&rec));
        let sink = TelemetrySink::new();
        sink.attach(&m);
        let tele = Telemetry::start(TelemetryConfig::new().interval(Duration::from_secs(60)), sink);
        // Two allocations, one freed: 128 live bytes at offsets 0 and 4096
        // (range 4224 vs packed 256 → heavy fragmentation).
        rec.emit(0, EventKind::MallocEnd, [0, 128, 500, 0]);
        rec.emit(0, EventKind::MallocEnd, [4096, 128, 1500, 2]);
        rec.emit(1, EventKind::MallocEnd, [8192, 64, 900, 0]);
        rec.emit(1, EventKind::FreeEnd, [8192, 100, 0, 1]);
        // Two refusals `Traced` did not time: counted, not in the histogram.
        rec.emit(1, EventKind::MallocEnd, [u64::MAX, 64, 0, 0]);
        rec.emit(1, EventKind::MallocEnd, [u64::MAX, 64, 0, 0]);
        tele.boundary_marker().mark();
        tele.sample_now();
        let ts = tele.stop();
        let s = ts.samples.iter().find(|s| s.malloc_ops > 0).expect("a window saw the events");
        assert_eq!(s.malloc_ops, 5);
        // The median of 500, 900 and 1 500 ns; with the two zeros it would
        // be 500's bucket.
        assert!(s.malloc_p50_ns >= 900, "{s:?}");
        assert!(s.malloc_p99_ns >= 1500, "p99 covers the slowest op: {s:?}");
        assert_eq!(s.live_bytes, 256);
        assert!(s.frag_percent > 100.0, "sparse live set must report fragmentation: {s:?}");
        // Launches come from the boundary mark alone, in whichever window
        // the mark landed.
        assert_eq!(ts.samples.iter().map(|s| s.launches).sum::<u64>(), 1);
        assert_eq!(ts.launches, 1);
    }

    #[test]
    fn sampler_never_double_counts_ring_events() {
        let rec = Arc::new(TraceRecorder::new(1, 64));
        let m = Metrics::enabled(1).with_tracer(Arc::clone(&rec));
        let sink = TelemetrySink::new();
        sink.attach(&m);
        let tele = Telemetry::start(TelemetryConfig::new().interval(Duration::from_secs(60)), sink);
        rec.emit(0, EventKind::MallocEnd, [0, 64, 100, 0]);
        tele.sample_now();
        tele.sample_now(); // snapshot is non-destructive; watermark must gate
        rec.emit(0, EventKind::MallocEnd, [64, 64, 100, 0]);
        tele.sample_now();
        let ts = tele.stop();
        let total: u64 = ts.samples.iter().map(|s| s.malloc_ops).sum();
        assert_eq!(total, 2, "each MallocEnd folds into exactly one window");
    }

    #[test]
    fn sample_ring_is_bounded_and_counts_evictions() {
        let sink = TelemetrySink::new();
        let tele = Telemetry::start(
            TelemetryConfig::new().interval(Duration::from_secs(60)).capacity(2),
            sink,
        );
        for _ in 0..5 {
            tele.sample_now();
        }
        let ts = tele.stop();
        assert!(ts.samples.len() <= 2, "capacity bound holds: {}", ts.samples.len());
        assert!(ts.evicted >= 3, "evictions counted: {}", ts.evicted);
        let seqs: Vec<u64> = ts.samples.iter().map(|s| s.seq).collect();
        let newest = *seqs.last().unwrap();
        assert!(seqs.iter().all(|&s| s + 2 > newest), "ring keeps the newest rows: {seqs:?}");
    }

    /// Many wide sources: every window takes long enough that a busy
    /// 100 µs cadence is usually mid-cut when the test asks for one.
    fn busy_sampler() -> (Vec<Metrics>, Telemetry) {
        let sink = TelemetrySink::new();
        let sources: Vec<Metrics> = (0..64).map(|_| Metrics::enabled(128)).collect();
        for m in &sources {
            sink.attach(m);
        }
        let cfg = TelemetryConfig::new().interval(Duration::from_micros(100));
        (sources, Telemetry::start(cfg, sink))
    }

    /// Each mark is its own window, however the cadence interleaves: no two
    /// launches share a boundary window and none is folded into a tick.
    #[test]
    fn every_boundary_mark_cuts_its_own_window() {
        let (_sources, tele) = busy_sampler();
        let marker = tele.boundary_marker();
        for _ in 0..64 {
            marker.mark();
        }
        let ts = tele.stop();
        assert_eq!(ts.evicted, 0);
        let boundary: Vec<&Sample> = ts.samples.iter().filter(|s| s.boundary).collect();
        assert_eq!(boundary.len(), 64, "one window per mark");
        assert!(boundary.iter().all(|s| s.launches == 1), "each boundary window is one launch");
        assert_eq!(ts.samples.iter().map(|s| s.launches).sum::<u64>(), 64);
        assert_eq!(ts.launches, 64);
        marker.mark();
        assert_eq!(
            marker.shared.cursor.lock().unwrap().seq,
            ts.samples.len() as u64,
            "no cut after stop"
        );
    }

    #[test]
    fn dead_sources_are_retired_but_their_totals_survive() {
        let sink = TelemetrySink::new();
        let m = Metrics::enabled(2);
        sink.attach(&m);
        let tele = Telemetry::start(TelemetryConfig::new().interval(Duration::from_secs(60)), sink);
        m.add(0, Counter::MallocCalls, 7);
        tele.sample_now();
        assert_eq!(tele.sink().len(), 1, "live source stays registered");

        m.add(1, Counter::MallocCalls, 3);
        drop(m); // last manager-side handle: the block is frozen
        tele.sample_now();
        assert_eq!(tele.sink().len(), 0, "frozen source pruned after its final fold");

        let series = tele.stop();
        assert_eq!(series.totals.malloc_calls(), 10, "retired counts survive in totals");
        let windowed: u64 =
            series.samples.iter().map(|s| s.allocs_per_sec * s.window_ms / 1e3).sum::<f64>() as u64;
        assert!(windowed >= 9, "windows saw (almost exactly) all ten calls: {windowed}");
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
            let cfg = TelemetryConfig::new().interval(Duration::from_micros(100));
            let tele = Telemetry::start(cfg, sink);
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

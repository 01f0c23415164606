//! Telemetry: a time-series sampler over the metrics + trace layers.
//!
//! The paper's figures are end-of-run aggregates; this module adds the
//! *shape* of a run — throughput, latency percentiles, fragmentation drift
//! and OOM-fallback rates per window while kernels run. It turns the
//! snapshot-at-end layers ([`crate::metrics`], [`crate::trace`]) into a
//! series that is written out when the run ends:
//!
//! * [`Telemetry`] runs a dedicated host thread at a configurable cadence
//!   (default 10 ms). Each tick it reads every manager attached to its
//!   [`TelemetrySink`], takes the **delta** of their [`Metrics`] counters
//!   against the previous tick, drains newly committed trace-ring events
//!   past a per-recorder cursor, and folds both into one [`Sample`] row.
//!   A [`BoundaryMarker`] also cuts a window at every kernel boundary.
//! * Samples land in a bounded fixed-capacity ring (drop-oldest, with an
//!   eviction count) — the same boundedness discipline as the trace ring:
//!   a long run must not grow host memory without limit.
//! * Two exporters: an OpenMetrics text renderer (validated by
//!   [`validate_openmetrics`], the `validate_chrome_json` counterpart) and a
//!   schema-versioned JSON time-series dump ([`TimeSeries::to_json`]). Both
//!   quote strings with [`crate::json::quote`].
//!
//! ## Why counter deltas, not absolutes
//!
//! The shared counter block only ever accumulates ([`CounterSnapshot`] is
//! monotone), so a rate over a window is `(now − prev) / window` — exact,
//! and robust to managers *joining* mid-run: a manager built during the
//! watched scenario registers with the [`TelemetrySink`] and its first ops
//! appear as that window's delta. Absolute readings would instead need
//! every consumer to know each source's epoch. The same cursor logic
//! applies to the trace rings: only events past the last tick's drain are
//! folded into the new window's latency histogram, so one event is never
//! counted twice even though ring snapshots are non-destructive.
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

/// Metric prefix used by the OpenMetrics exporter.
const OM_PREFIX: &str = "gms";

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
    /// Malloc completions folded into this window's latency histogram.
    pub malloc_ops: u64,
    /// Windowed malloc latency percentiles from the log2 histogram (ns).
    pub malloc_p50_ns: u64,
    /// 95th percentile (ns).
    pub malloc_p95_ns: u64,
    /// 99th percentile (ns).
    pub malloc_p99_ns: u64,
    /// OOM fallbacks per malloc call in the window.
    pub oom_fallback_rate: f64,
    /// Trace events dropped (ring full), cumulative across all recorders.
    pub dropped_events: u64,
    /// Kernel launches completing in this window: the boundary marks
    /// ([`BoundaryMarker::mark`]) the executor's launch hook made in it.
    pub launches: u64,
    /// Whether this window was cut at a kernel boundary (launch hook)
    /// rather than by the cadence timer.
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
    /// Cumulative observed kernel launches.
    pub launches: u64,
}

/// Finite float for JSON/OpenMetrics: NaN/inf (impossible by construction,
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

    /// OpenMetrics text exposition: latest-window gauges plus cumulative
    /// counters, every series labelled `run="<label>"`. Ends with `# EOF`
    /// as the format requires; validated by [`validate_openmetrics`].
    pub fn render_openmetrics(&self, label: &str) -> String {
        let mut out = String::with_capacity(4096);
        let lbl = format!("{{run={}}}", quote(label));
        let last = self.samples.last().copied().unwrap_or_default();
        let mut gauge = |name: &str, help: &str, v: f64| {
            out.push_str(&format!(
                "# HELP {OM_PREFIX}_{name} {help}\n# TYPE {OM_PREFIX}_{name} \
                 gauge\n{OM_PREFIX}_{name}{lbl} {}\n",
                fin(v)
            ));
        };
        gauge(
            "allocs_per_second",
            "Malloc calls per second over the last window.",
            last.allocs_per_sec,
        );
        gauge(
            "frees_per_second",
            "Free calls per second over the last window.",
            last.frees_per_sec,
        );
        gauge(
            "cas_retries_per_op",
            "CAS retries per malloc/free call over the last window.",
            last.cas_retries_per_op,
        );
        gauge(
            "magazine_hit_ratio",
            "Magazine cache hit ratio over the last window.",
            last.magazine_hit_rate,
        );
        gauge(
            "live_allocations",
            "Live allocations by counter accounting.",
            last.live_allocs as f64,
        );
        gauge("live_bytes", "Live bytes by trace replay.", last.live_bytes as f64);
        gauge(
            "fragmentation_percent",
            "Live address range percent over packed footprint.",
            last.frag_percent,
        );
        gauge(
            "oom_fallbacks_per_malloc",
            "OOM fallbacks per malloc call over the last window.",
            last.oom_fallback_rate,
        );
        gauge("sample_window_ms", "Length of the last sample window in ms.", last.window_ms);
        // Latency percentiles as one gauge family with a quantile label —
        // the summary-typed exposition would require _count/_sum series the
        // log2 histogram cannot provide losslessly per window.
        out.push_str(&format!(
            "# HELP {OM_PREFIX}_malloc_latency_ns Windowed malloc latency percentile.\n# TYPE \
             {OM_PREFIX}_malloc_latency_ns gauge\n"
        ));
        for (q, v) in [
            ("0.5", last.malloc_p50_ns),
            ("0.95", last.malloc_p95_ns),
            ("0.99", last.malloc_p99_ns),
        ] {
            out.push_str(&format!(
                "{OM_PREFIX}_malloc_latency_ns{{run={},quantile=\"{q}\"}} {v}\n",
                quote(label)
            ));
        }
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {OM_PREFIX}_{name} {help}\n# TYPE {OM_PREFIX}_{name} \
                 counter\n{OM_PREFIX}_{name}_total{lbl} {v}\n"
            ));
        };
        counter(
            "malloc_calls",
            "Malloc calls across all watched managers.",
            self.totals.malloc_calls(),
        );
        counter("malloc_failures", "Failed malloc calls.", self.totals.malloc_failures());
        counter("free_calls", "Free calls across all watched managers.", self.totals.free_calls());
        counter(
            "cas_retries",
            "CAS retries across all watched managers.",
            self.totals.cas_retries(),
        );
        counter("oom_fallbacks", "OOM fallback events.", self.totals.oom_fallbacks());
        counter("magazine_hits", "Magazine cache hits.", self.totals.magazine_hits());
        counter(
            "magazine_flushes",
            "Blocks flushed from magazines.",
            self.totals.magazine_flushes(),
        );
        counter("dropped_trace_events", "Trace events dropped ring-full.", self.dropped_events);
        counter("launches", "Observed kernel launches.", self.launches);
        counter("samples", "Telemetry samples taken.", self.evicted + self.samples.len() as u64);
        out.push_str("# EOF\n");
        out
    }
}

// ---------------------------------------------------------------------------
// OpenMetrics validator
// ---------------------------------------------------------------------------

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().next().is_some_and(|b| b.is_ascii_alphabetic() || b == b'_' || b == b':')
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// Validates an OpenMetrics text exposition the way `validate_chrome_json`
/// validates a Chrome trace: structural checks strong enough that a scrape
/// endpoint (Prometheus in OpenMetrics mode) would accept the payload.
/// Returns the number of sample lines.
///
/// Checks: every sample's metric family has a preceding `# TYPE`; counter
/// samples use the `_total` (or `_created`) suffix; metric names and label
/// syntax are well-formed; values parse as finite floats; the exposition
/// ends with `# EOF`.
pub fn validate_openmetrics(s: &str) -> Result<usize, String> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples = 0usize;
    let mut saw_eof = false;
    for (ln, line) in s.lines().enumerate() {
        let ln = ln + 1;
        if saw_eof {
            return Err(format!("line {ln}: content after # EOF"));
        }
        if line.is_empty() {
            return Err(format!("line {ln}: blank line (not allowed in OpenMetrics)"));
        }
        if let Some(meta) = line.strip_prefix("# ") {
            if meta == "EOF" {
                saw_eof = true;
                continue;
            }
            let mut parts = meta.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            match keyword {
                "TYPE" => {
                    let name = parts.next().ok_or(format!("line {ln}: TYPE missing name"))?;
                    let ty = parts.next().ok_or(format!("line {ln}: TYPE missing type"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {ln}: bad metric name {name:?}"));
                    }
                    if !["gauge", "counter", "summary", "histogram", "info", "unknown"]
                        .contains(&ty)
                    {
                        return Err(format!("line {ln}: unknown metric type {ty:?}"));
                    }
                    types.insert(name.to_string(), ty.to_string());
                }
                "HELP" | "UNIT" => {
                    let name = parts.next().ok_or(format!("line {ln}: {keyword} missing name"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {ln}: bad metric name {name:?}"));
                    }
                }
                _ => return Err(format!("line {ln}: unknown metadata keyword {keyword:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {ln}: comment must be '# ' metadata"));
        }
        // Sample line: name[{labels}] value [timestamp]
        let (series, rest) = match line.find('{') {
            Some(open) => {
                let close = line[open..]
                    .find('}')
                    .map(|i| open + i)
                    .ok_or(format!("line {ln}: unterminated label set"))?;
                let labels = &line[open + 1..close];
                if !labels.is_empty() {
                    for pair in labels.split(',') {
                        let (k, v) =
                            pair.split_once('=').ok_or(format!("line {ln}: bad label {pair:?}"))?;
                        if !valid_metric_name(k) {
                            return Err(format!("line {ln}: bad label name {k:?}"));
                        }
                        if !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                            return Err(format!("line {ln}: label value not quoted: {v:?}"));
                        }
                    }
                }
                (&line[..open], line[close + 1..].trim_start())
            }
            None => {
                let sp = line.find(' ').ok_or(format!("line {ln}: sample missing value"))?;
                (&line[..sp], line[sp + 1..].trim_start())
            }
        };
        if !valid_metric_name(series) {
            return Err(format!("line {ln}: bad metric name {series:?}"));
        }
        let value = rest.split(' ').next().unwrap_or("");
        let v: f64 = value.parse().map_err(|_| format!("line {ln}: bad value {value:?}"))?;
        if !v.is_finite() {
            return Err(format!("line {ln}: non-finite value {value:?}"));
        }
        // Family resolution: a counter's samples carry _total/_created.
        let family = series
            .strip_suffix("_total")
            .or_else(|| series.strip_suffix("_created"))
            .filter(|f| types.get(*f).is_some_and(|t| t == "counter"))
            .unwrap_or(series);
        match types.get(family) {
            None => return Err(format!("line {ln}: sample {series:?} has no preceding # TYPE")),
            Some(t) if t == "counter" && family == series => {
                return Err(format!(
                    "line {ln}: counter sample {series:?} must use the _total suffix"
                ));
            }
            Some(_) => {}
        }
        samples += 1;
    }
    if !saw_eof {
        return Err("missing terminal # EOF".to_string());
    }
    Ok(samples)
}

// ---------------------------------------------------------------------------
// The sampler
// ---------------------------------------------------------------------------

/// Control block shared between the handle and the sampler thread. All
/// coordination is Mutex + Condvar — no lock-free cleverness is warranted
/// off the allocation hot path, and it keeps the module trivially clean
/// under the atomics-ordering lint.
struct Ctl {
    stop: bool,
    /// Forced-cut request generation; the thread acks by copying into
    /// `taken`.
    force: u64,
    taken: u64,
    /// The pending forced cut is a kernel-boundary cut.
    boundary: bool,
}

struct State {
    ring: VecDeque<Sample>,
    capacity: usize,
    evicted: u64,
    totals: CounterSnapshot,
    dropped: u64,
    launches: u64,
    /// Cumulative kernel-boundary marks ([`BoundaryMarker::mark`]).
    marks: u64,
    /// Marks already attributed to a finished window.
    folded_marks: u64,
    seq: u64,
}

struct Shared {
    ctl: Mutex<Ctl>,
    /// Wakes the sampler (forced cut, stop).
    wake: Condvar,
    /// Wakes `sample_now` waiters (cut acknowledged).
    acked: Condvar,
    state: Mutex<State>,
    interval: Duration,
}

impl Shared {
    fn series(&self) -> TimeSeries {
        let st = self.state.lock().unwrap();
        TimeSeries {
            samples: st.ring.iter().copied().collect(),
            evicted: st.evicted,
            capacity: st.capacity,
            interval_ms: self.interval.as_secs_f64() * 1e3,
            totals: st.totals,
            dropped_events: st.dropped,
            launches: st.launches,
        }
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
    /// equal means nothing is left to drain and the tick skips it; a slot
    /// caught between claim and publication keeps the two apart until a
    /// later tick folds it.
    seen: u64,
}

/// Sampler-thread working set (never locked; owned by the thread).
struct Cursor {
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
    last_t: Duration,
}

/// Handle to a running sampler thread. Dropping (or [`Telemetry::stop`])
/// takes a final sample, joins the thread and returns the series.
pub struct Telemetry {
    shared: Arc<Shared>,
    sink: TelemetrySink,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Telemetry {
    /// Starts the sampler thread over `sink`. Managers attached to the sink
    /// (now or later) are folded into every subsequent window.
    pub fn start(cfg: TelemetryConfig, sink: TelemetrySink) -> Telemetry {
        let shared = Arc::new(Shared {
            ctl: Mutex::new(Ctl { stop: false, force: 0, taken: 0, boundary: false }),
            wake: Condvar::new(),
            acked: Condvar::new(),
            state: Mutex::new(State {
                ring: VecDeque::with_capacity(cfg.capacity.min(65_536)),
                capacity: cfg.capacity,
                evicted: 0,
                totals: CounterSnapshot::default(),
                dropped: 0,
                launches: 0,
                marks: 0,
                folded_marks: 0,
                seq: 0,
            }),
            interval: cfg.interval,
        });
        let thread = {
            let shared = Arc::clone(&shared);
            let sink = sink.clone();
            std::thread::Builder::new()
                .name("gms-telemetry".to_string())
                .spawn(move || sampler_loop(&shared, &sink))
                .expect("spawn telemetry sampler thread")
        };
        Telemetry { shared, sink, thread: Some(thread) }
    }

    /// The sink this sampler reads. Attach more managers at any time.
    pub fn sink(&self) -> &TelemetrySink {
        &self.sink
    }

    /// Forces an immediate window cut and blocks until the sample is taken.
    pub fn sample_now(&self) {
        let mut ctl = self.shared.ctl.lock().unwrap();
        ctl.force += 1;
        let gen = ctl.force;
        self.shared.wake.notify_all();
        while ctl.taken < gen && !ctl.stop {
            ctl = self.shared.acked.wait(ctl).unwrap();
        }
    }

    /// A cheap cloneable handle that cuts boundary windows without owning
    /// the sampler — what a `'static` executor launch hook captures (the
    /// hook outlives no one, the `Telemetry` value stays with the caller).
    /// Marks become no-ops once the sampler has stopped.
    pub fn boundary_marker(&self) -> BoundaryMarker {
        BoundaryMarker { shared: Arc::clone(&self.shared) }
    }

    /// Stops the sampler: takes one final sample (cutting the in-progress
    /// window so trailing ops — e.g. magazine drains — are reported), joins
    /// the thread, and returns everything collected.
    ///
    /// Call [`DeviceAllocator::drain`](crate::traits::DeviceAllocator::drain)
    /// on any still-live managers *before* this, or the final window will
    /// under-report frees still parked in decorator caches.
    pub fn stop(mut self) -> TimeSeries {
        self.shutdown();
        self.shared.series()
    }

    fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            {
                let mut ctl = self.shared.ctl.lock().unwrap();
                ctl.stop = true;
                self.shared.wake.notify_all();
            }
            let _ = thread.join();
            // Unblock any sample_now caller racing the shutdown.
            self.shared.acked.notify_all();
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
    /// Forces a window cut flagged [`Sample::boundary`] without blocking
    /// the caller (the launch path must not stall on the sampler); a no-op
    /// after the sampler stopped.
    pub fn mark(&self) {
        {
            let mut ctl = self.shared.ctl.lock().unwrap();
            if ctl.stop {
                return;
            }
            ctl.force += 1;
            ctl.boundary = true;
            self.shared.wake.notify_all();
        }
        // Marks also count launches: `take_sample` reports each window's
        // mark delta as its launches.
        self.shared.state.lock().unwrap().marks += 1;
    }
}

// ---------------------------------------------------------------------------
// Sampler thread body
// ---------------------------------------------------------------------------

fn sampler_loop(shared: &Shared, sink: &TelemetrySink) {
    let epoch = Instant::now();
    let mut cursor = Cursor {
        prev: CounterSnapshot::default(),
        recorders: Vec::new(),
        live: HashMap::new(),
        occupancy: (0, 0.0),
        retired: CounterSnapshot::default(),
        retired_dropped: 0,
        last_t: Duration::ZERO,
    };
    loop {
        // Wait until the cadence deadline, a forced cut, or stop.
        let deadline = cursor.last_t + shared.interval;
        let (stop, boundary) = {
            let mut ctl = shared.ctl.lock().unwrap();
            loop {
                if ctl.stop || ctl.force > ctl.taken {
                    break;
                }
                let now = epoch.elapsed();
                if now >= deadline {
                    break;
                }
                let (guard, _) = shared.wake.wait_timeout(ctl, deadline - now).unwrap();
                ctl = guard;
            }
            let boundary = ctl.boundary;
            ctl.boundary = false;
            (ctl.stop, boundary)
        };
        take_sample(shared, sink, &mut cursor, epoch, boundary);
        {
            let mut ctl = shared.ctl.lock().unwrap();
            ctl.taken = ctl.force;
            shared.acked.notify_all();
            // Only a sample that began after `stop` was requested is final:
            // one already running may have read a source before its last
            // ops, so a stop that lands mid-sample loops once more.
            if stop {
                return;
            }
        }
    }
}

fn take_sample(
    shared: &Shared,
    sink: &TelemetrySink,
    cursor: &mut Cursor,
    epoch: Instant,
    boundary: bool,
) {
    let now = epoch.elapsed();
    // Merge every source's counters; pick up recorders we have not seen.
    // Sources whose last manager-side handle is gone are frozen: fold
    // their final snapshot into the retired base and prune them, so a run
    // churning through many managers never re-reads dead shards. The
    // sole-owner check precedes the snapshot — frozen-at-check means the
    // snapshot taken after it is the complete final value.
    let mut merged = cursor.retired;
    {
        let mut sources = sink.sources.lock().unwrap();
        sources.retain(|src| {
            let dead = src.metrics.is_sole_owner();
            let snap = src.metrics.snapshot();
            merged = merged.merge(&snap);
            if let Some(rec) = &src.recorder {
                if !cursor.recorders.iter().any(|c| Arc::ptr_eq(&c.recorder, rec)) {
                    cursor.recorders.push(RecorderCursor {
                        recorder: Arc::clone(rec),
                        shard_cursors: Vec::new(),
                        seen: 0,
                    });
                }
            }
            if dead {
                cursor.retired = cursor.retired.merge(&snap);
            }
            !dead
        });
    }
    let delta = merged.delta_since(&cursor.prev);

    // Fold newly committed trace events into this window, then retire
    // recorders nobody else holds: the drain just taken was their last
    // (no handle left to emit), so only the dropped total survives.
    let mut hist = LatencyHistogram::new();
    let mut live_changed = false;
    let mut dropped = cursor.retired_dropped;
    let mut retired_dropped = 0u64;
    let (recorders, live) = (&mut cursor.recorders, &mut cursor.live);
    recorders.retain_mut(|rc| {
        // Sole ownership checked *before* the drain: frozen-at-check means
        // this drain sees every event the recorder will ever hold.
        let sole = Arc::strong_count(&rc.recorder) == 1;
        if rc.recorder.recorded() != rc.seen {
            let trace = rc.recorder.snapshot_since(&mut rc.shard_cursors);
            rc.seen += trace.events.len() as u64;
            for ev in &trace.events {
                if ev.kind == EventKind::MallocEnd {
                    hist.record(ev.args[2]);
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
    cursor.retired_dropped += retired_dropped;

    // Fragmentation of the live set, via the paper's frag machinery.
    // Rebuilding the range walks the whole live map, so only windows whose
    // events changed the set pay it; idle ticks (the common case at kHz
    // cadences) reuse the cached pair.
    if live_changed {
        let mut range = AddressRange::new();
        let mut live_bytes = 0u64;
        for (&off, &size) in &cursor.live {
            range.record(DevicePtr::new(off), size);
            live_bytes += size;
        }
        let frag_percent = if range.count() > 0 {
            FragmentationStats::from_range(&range).percent_over_baseline()
        } else {
            0.0
        };
        cursor.occupancy = (live_bytes, frag_percent);
    }
    let (live_bytes, frag_percent) = cursor.occupancy;

    let window = now.saturating_sub(cursor.last_t);
    let win_s = window.as_secs_f64().max(1e-9);
    let ops = delta.malloc_calls() + delta.free_calls();
    let mag_traffic = delta.magazine_hits() + delta.magazine_misses();
    let sample = Sample {
        seq: 0, // assigned under the state lock
        t_ms: now.as_secs_f64() * 1e3,
        window_ms: window.as_secs_f64() * 1e3,
        allocs_per_sec: delta.malloc_calls() as f64 / win_s,
        frees_per_sec: delta.free_calls() as f64 / win_s,
        cas_retries_per_op: delta.cas_retries() as f64 / ops.max(1) as f64,
        magazine_hit_rate: delta.magazine_hits() as f64 / mag_traffic.max(1) as f64,
        live_allocs: merged.live(),
        live_bytes,
        frag_percent,
        malloc_ops: hist.count(),
        malloc_p50_ns: hist.p50(),
        malloc_p95_ns: hist.p95(),
        malloc_p99_ns: hist.p99(),
        oom_fallback_rate: delta.oom_fallbacks() as f64 / delta.malloc_calls().max(1) as f64,
        dropped_events: dropped,
        launches: 0, // the window's marks, counted under the state lock
        boundary,
    };

    cursor.prev = merged;
    cursor.last_t = now;

    let mut st = shared.state.lock().unwrap();
    let mut sample = sample;
    sample.seq = st.seq;
    st.seq += 1;
    st.totals = merged;
    st.dropped = dropped;
    sample.launches = st.marks - st.folded_marks;
    st.folded_marks = st.marks;
    st.launches += sample.launches;
    if st.ring.len() == st.capacity {
        st.ring.pop_front();
        st.evicted += 1;
    }
    st.ring.push_back(sample);
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
    fn openmetrics_export_validates() {
        let om = series_fixture().render_openmetrics("mixed");
        let n = validate_openmetrics(&om).expect("exporter output must validate");
        assert!(n >= 20, "expected a full metric set, got {n} samples:\n{om}");
        assert!(om.contains("gms_malloc_calls_total{run=\"mixed\"}"));
        assert!(om.contains("quantile=\"0.99\""));
        assert!(om.ends_with("# EOF\n"));
    }

    #[test]
    fn openmetrics_empty_series_validates() {
        let ts = TimeSeries {
            samples: Vec::new(),
            evicted: 0,
            capacity: 4,
            interval_ms: 10.0,
            totals: CounterSnapshot::default(),
            dropped_events: 0,
            launches: 0,
        };
        validate_openmetrics(&ts.render_openmetrics("empty")).unwrap();
    }

    #[test]
    fn openmetrics_validator_rejects_structural_damage() {
        let good = series_fixture().render_openmetrics("m");
        // No EOF.
        let cut = good.trim_end_matches("# EOF\n");
        assert!(validate_openmetrics(cut).is_err(), "missing EOF must fail");
        // Counter without _total.
        let bad = "# TYPE x counter\nx 5\n# EOF\n";
        assert!(validate_openmetrics(bad).unwrap_err().contains("_total"));
        // Sample without TYPE.
        let bad = "y{a=\"b\"} 5\n# EOF\n";
        assert!(validate_openmetrics(bad).unwrap_err().contains("TYPE"));
        // Non-finite value.
        let bad = "# TYPE z gauge\nz NaN\n# EOF\n";
        assert!(validate_openmetrics(bad).is_err());
        // Unquoted label value.
        let bad = "# TYPE z gauge\nz{l=v} 5\n# EOF\n";
        assert!(validate_openmetrics(bad).is_err());
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

    /// A minimal enabled manager the sampler can watch end to end.
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
        fn malloc(&self, ctx: &ThreadCtx, size: u64) -> Result<DevicePtr, crate::AllocError> {
            self.m.tick(ctx.sm, Counter::MallocCalls);
            let mut next = self.next.lock().unwrap();
            let off = *next;
            *next += size;
            Ok(DevicePtr::new(off))
        }
        fn free(&self, ctx: &ThreadCtx, _ptr: DevicePtr) -> Result<(), crate::AllocError> {
            self.m.tick(ctx.sm, Counter::FreeCalls);
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
        let bump = Bump::new(m);
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
        tele.boundary_marker().mark();
        tele.sample_now();
        let ts = tele.stop();
        let s = ts.samples.iter().find(|s| s.malloc_ops > 0).expect("a window saw the events");
        assert_eq!(s.malloc_ops, 3);
        assert!(s.malloc_p50_ns >= 500, "{s:?}");
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

    #[test]
    fn boundary_marker_flags_a_window() {
        let sink = TelemetrySink::new();
        let tele = Telemetry::start(TelemetryConfig::new().interval(Duration::from_secs(60)), sink);
        tele.boundary_marker().mark();
        tele.sample_now(); // serializes behind the boundary cut
        let ts = tele.stop();
        assert!(ts.samples.iter().any(|s| s.boundary), "boundary cut must be flagged");
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

    /// `stop` ends with a sample taken after it was called, even when it
    /// lands while the sampler is in the middle of one: a count recorded
    /// just before `stop` always reaches the totals.
    #[test]
    fn stop_during_a_sample_still_takes_a_final_one() {
        for _ in 0..50 {
            let sink = TelemetrySink::new();
            // Many wide sources make every sample long, so `stop` usually
            // lands inside one at this cadence.
            let sources: Vec<Metrics> = (0..64).map(|_| Metrics::enabled(128)).collect();
            for m in &sources {
                sink.attach(m);
            }
            let cfg = TelemetryConfig::new().interval(Duration::from_micros(100));
            let tele = Telemetry::start(cfg, sink);
            std::thread::sleep(Duration::from_micros(500));
            sources[0].add(0, Counter::MallocCalls, 1);
            assert_eq!(tele.stop().totals.malloc_calls(), 1, "the final sample saw the call");
        }
    }
}

//! `repro watch` — run one matrix scenario under the telemetry sampler and
//! export the resulting time-series.
//!
//! Matrix scenario bodies construct their managers internally, so the
//! watch reaches them through the scenario's configuration:
//! [`MatrixCfg::watch`] carries the sampler's [`TelemetrySink`] and
//! [`BoundaryMarker`](gpumem_core::BoundaryMarker). Every `Bench` the
//! scenario takes from [`MatrixCfg::bench`] builds its managers with that
//! sink (which forces the observability stack on), and its device's launch
//! hook cuts one boundary window on the launching thread at the end of every
//! launch, after the launch has been timed. A watch therefore sees exactly
//! the managers its own scenario builds, two watches in one process do not
//! mix, and the series has one boundary window per launch.
//!
//! Outputs, both under the `--out` directory:
//!
//! * `telemetry_<scenario>.json` — the schema-versioned time-series dump
//!   ([`TimeSeries::to_json`]) with the anchor's provenance stamps.
//! * `telemetry_<scenario>.csv` — one row per sample window
//!   ([`Sample::CSV_HEADER`]), for `scripts/summarize_results.py`.

use std::fs;
use std::path::{Path, PathBuf};

use gpumem_core::telemetry::{Telemetry, TelemetryConfig, TelemetrySink};
use gpumem_core::{Sample, TimeSeries};

use crate::anchor::Anchor;
use crate::csv::Csv;
use crate::matrix::{self, MatrixCfg};

/// Everything a finished watch run produced.
pub struct WatchOutcome {
    /// The scenario's ordinary anchor (same metrics an unwatched run
    /// yields, modulo any `-m` restriction).
    pub anchor: Anchor,
    /// The sampled time-series.
    pub series: TimeSeries,
    /// Path of the JSON time-series dump.
    pub json_path: PathBuf,
    /// Path of the per-window CSV.
    pub csv_path: PathBuf,
}

/// Runs `scenario` under the sampler and writes the two exports.
pub fn watch(
    mut cfg: MatrixCfg,
    scenario: &str,
    tcfg: TelemetryConfig,
    out: &Path,
) -> Result<WatchOutcome, String> {
    let spec = matrix::scenario(scenario)
        .ok_or_else(|| matrix::MatrixError::UnknownScenario(scenario.to_string()).to_string())?;
    let sink = TelemetrySink::new();
    let tel = Telemetry::start(tcfg, sink.clone());
    cfg.watch = Some((sink, tel.boundary_marker()));

    let result = matrix::run_scenario(&cfg, spec);
    // Managers are dropped inside the scenario body, which flushes any
    // magazine-parked frees into the counters (`Cached`'s drop-drain), so
    // the final window `stop()` cuts sees complete free accounting. The
    // attached counter blocks and rings outlive the managers via the
    // sink's `Arc`s.
    let series = tel.stop();
    let anchor = result.map_err(|e| e.to_string())?;
    let [json_path, csv_path] = export(&series, scenario, &anchor.provenance, out)?;
    Ok(WatchOutcome { anchor, series, json_path, csv_path })
}

/// Writes the two telemetry exports (`telemetry_<label>.{json,csv}`) into
/// `out`, returning the paths in that order.
pub fn export(
    series: &TimeSeries,
    label: &str,
    provenance: &[(String, String)],
    out: &Path,
) -> Result<[PathBuf; 2], String> {
    fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let json_path = out.join(format!("telemetry_{label}.json"));
    fs::write(&json_path, series.to_json(label, provenance))
        .map_err(|e| format!("write {}: {e}", json_path.display()))?;

    let mut csv = Csv::new(Sample::CSV_HEADER.iter().copied());
    let prov: Vec<String> = provenance.iter().map(|(k, v)| format!("{k}={v}")).collect();
    csv.comment(format!("label={label} {}", prov.join(" ")));
    for s in &series.samples {
        csv.row(s.csv_row());
    }
    let csv_path = out.join(format!("telemetry_{label}.csv"));
    csv.write(&csv_path).map_err(|e| format!("write {}: {e}", csv_path.display()))?;

    Ok([json_path, csv_path])
}

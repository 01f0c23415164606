//! `repro watch` — run one matrix scenario under the telemetry sampler and
//! export the resulting time-series.
//!
//! Matrix scenario bodies construct their managers internally, so the
//! watch reaches them through the scenario's configuration:
//! [`MatrixCfg::watch`] carries the sampler's [`TelemetrySink`] and
//! [`BoundaryMarker`](gpumem_core::BoundaryMarker). Every `Bench` the
//! scenario takes from [`MatrixCfg::bench`] builds its managers with that
//! sink (which forces the observability stack on) and cuts a sample window
//! at the end of every launch. A watch therefore sees exactly the managers
//! its own scenario builds, and two watches in one process do not mix.
//!
//! Outputs, all under the `--out` directory:
//!
//! * `telemetry_<scenario>.json` — the schema-versioned time-series dump
//!   ([`TimeSeries::to_json`]) with the anchor's provenance stamps.
//! * `telemetry_<scenario>.csv` — one row per sample window
//!   ([`Sample::CSV_HEADER`]), for `scripts/summarize_results.py`.
//! * `telemetry_<scenario>.prom` — the OpenMetrics exposition, validated
//!   with [`gpumem_core::validate_openmetrics`] before it is written.

use std::fs;
use std::path::{Path, PathBuf};

use gpumem_core::telemetry::{self, Telemetry, TelemetryConfig, TelemetrySink};
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
    /// Path of the OpenMetrics exposition.
    pub om_path: PathBuf,
}

/// Runs `scenario` under the sampler and writes the three exports.
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
    let [json_path, csv_path, om_path] = export(&series, scenario, &anchor.provenance, out)?;
    Ok(WatchOutcome { anchor, series, json_path, csv_path, om_path })
}

/// Writes the three telemetry exports (`telemetry_<label>.{json,csv,prom}`)
/// into `out`, returning the paths in that order. The OpenMetrics text is
/// parse-validated before it lands — an unscrapable export should fail the
/// run, not the consumer.
pub fn export(
    series: &TimeSeries,
    label: &str,
    provenance: &[(String, String)],
    out: &Path,
) -> Result<[PathBuf; 3], String> {
    fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let write = |path: &Path, body: &str| -> Result<(), String> {
        fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
    };

    let json_path = out.join(format!("telemetry_{label}.json"));
    write(&json_path, &series.to_json(label, provenance))?;

    let om = series.render_openmetrics(label);
    telemetry::validate_openmetrics(&om).map_err(|e| format!("openmetrics render: {e}"))?;
    let om_path = out.join(format!("telemetry_{label}.prom"));
    write(&om_path, &om)?;

    let mut csv = Csv::new(Sample::CSV_HEADER.iter().copied());
    let prov: Vec<String> = provenance.iter().map(|(k, v)| format!("{k}={v}")).collect();
    csv.comment(format!("label={label} {}", prov.join(" ")));
    for s in &series.samples {
        csv.row(s.csv_row());
    }
    let csv_path = out.join(format!("telemetry_{label}.csv"));
    csv.write(&csv_path).map_err(|e| format!("write {}: {e}", csv_path.display()))?;

    Ok([json_path, csv_path, om_path])
}

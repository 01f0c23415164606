//! `compare A B` and `spread`: the bounds applied to results files.
//!
//! `A` and `B` are results files or directories of them (`spread` leaves
//! such a directory). Runs are grouped by workload; with several runs on a
//! side the medians are compared and the quartile spread decides whether a
//! difference can be resolved at all. End-to-end metrics are read from
//! `--trace 0` runs only and per-layer metrics from `--trace 1` runs only.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics;
use crate::stats::{median, spread as quartile_spread};
use crate::workloads::NAMES;

/// `spread` runs this many seeds: the bounds and the "a third of the bound"
/// rule are defined on the quartiles of ten values.
const SPREAD_SEEDS: u32 = 10;

struct Run {
    file: String,
    doc: Json,
}

impl Run {
    fn text(&self, path: &[&str]) -> String {
        self.doc.at(path).map_or_else(String::new, Json::render)
    }

    fn traced(&self) -> bool {
        self.doc.at(&["provenance", "trace"]).and_then(Json::as_bool) == Some(true)
    }

    /// A metric of this run. A traced run also writes an `end_to_end`
    /// section, from a quarter of the rounds: it is not read.
    fn value(&self, def: &metrics::Def) -> Option<f64> {
        let (section, traced) =
            if def.bound.is_some() { ("end_to_end", false) } else { ("per_layer", true) };
        if self.traced() != traced {
            return None;
        }
        self.doc.at(&[section, &def.name, "value"]).and_then(Json::as_f64)
    }

    /// Two runs with the same key did the same work.
    fn key(&self) -> String {
        ["seed", "seconds", "trace", "scale"].map(|k| self.text(&["provenance", k])).join("/")
    }
}

/// The results files at `path`, by workload.
fn load(path: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| format!("{}: {e}", path.display()))?.path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".json") && !name.ends_with("-spans.json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some("gms-benchmark-results-v1") {
            return Err(format!("{}: not a gms-benchmark results file", file.display()));
        }
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?").to_string();
        runs.entry(workload).or_default().push(Run { file: file.display().to_string(), doc });
    }
    if runs.is_empty() {
        return Err(format!("{}: no results files", path.display()));
    }
    Ok(runs)
}

/// `--seconds` and scale decide the round counts: runs that differ in them
/// measured different work and have no common median.
fn same_work(workload: &str, runs: &[&[Run]]) -> Result<(), String> {
    let work = |r: &Run| ["seconds", "scale"].map(|k| r.text(&["provenance", k])).join("/");
    let mut all = runs.iter().flat_map(|side| side.iter());
    let first = all.next().map(work);
    match all.find(|r| Some(work(r)) != first) {
        Some(r) => Err(format!(
            "{workload}: {} ran seconds/scale {}, other runs {}: compare runs of equal --seconds",
            r.file,
            work(r),
            first.unwrap_or_default()
        )),
        None => Ok(()),
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Regression,
    Unresolved,
    Improved,
    Unchanged,
}

/// Judges one metric: `a` are the parent's runs, `b` the change's.
/// `worse` is the change of the median in the metric's bad direction, as a
/// share of the parent's median.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    // Equal medians (two zero counts, say) are no change, not 0/0.
    let worse = if ma == mb { 0.0 } else { sign * (mb - ma) / ma.abs() };
    let spread =
        if a.len() >= 2 && b.len() >= 2 { quartile_spread(a).max(quartile_spread(b)) } else { 0.0 };
    // Every run of the change reads better (worse) than every run of the parent.
    let clean_win = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    let clean_loss = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) > 0.0));
    let verdict = if spread > bound {
        // The runs of one side differ by more than the bound: a difference
        // of the medians within it means nothing, unless the two sides do
        // not even overlap.
        if clean_win {
            Verdict::Improved
        } else if clean_loss && worse > bound {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regression
    } else if clean_win && a.len() >= 2 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, spread, verdict)
}

/// Fields that must be bit-equal between two runs that did the same work.
fn exact_fields(run: &Run) -> Vec<(String, String)> {
    let mut fields = vec![(
        "heap_span_ratio".to_string(),
        run.text(&["end_to_end", "heap_span_ratio", "value"]),
    )];
    for (name, entry) in run.doc.get("per_layer").map_or(&[][..], Json::members) {
        if name.ends_with(".retries_op") || name.ends_with(".oom_util") {
            fields.push((name.clone(), entry.get("value").map_or_else(String::new, Json::render)));
        }
    }
    for cell in run.doc.get("detail").map_or(&[][..], Json::items) {
        let name = cell.get("cell").and_then(Json::as_str).unwrap_or("?");
        let role = cell.get("role").and_then(Json::as_str).unwrap_or("?");
        let hash = cell.get("ptr_hash").and_then(Json::as_str).unwrap_or("?");
        fields.push((format!("ptr_hash[{role} {name}]"), hash.to_string()));
    }
    fields
}

pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let mut ok = true;
    let defs: Vec<metrics::Def> =
        metrics::end_to_end().into_iter().chain(metrics::per_layer()).collect();
    for workload in NAMES {
        let (Some(ra), Some(rb)) = (runs_a.get(workload), runs_b.get(workload)) else {
            continue;
        };
        same_work(workload, &[ra.as_slice(), rb.as_slice()])?;
        let untraced = |runs: &[Run]| runs.iter().filter(|r| !r.traced()).count();
        println!(
            "{workload}: A has {} untraced and {} traced run(s), B {} and {}",
            untraced(ra),
            ra.len() - untraced(ra),
            untraced(rb),
            rb.len() - untraced(rb)
        );
        println!(
            "  {:<32} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
            "metric", "A median", "B median", "worse", "spread", "bound"
        );
        for def in &defs {
            let values =
                |runs: &[Run]| runs.iter().filter_map(|r| r.value(def)).collect::<Vec<_>>();
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = def.bound.unwrap_or(f64::INFINITY);
            let (worse, spread, verdict) = judge(&va, &vb, def.better == "lower", bound);
            let word = match (def.bound, &verdict) {
                (None, _) => "(not gated)".to_string(),
                (_, Verdict::Regression) => {
                    ok = false;
                    "REGRESSION".to_string()
                }
                (_, Verdict::Unresolved) => "unresolved: spread exceeds the bound".to_string(),
                (_, Verdict::Improved) => "improved".to_string(),
                (_, Verdict::Unchanged) if va.len() < 2 || vb.len() < 2 => {
                    "within bound (single run: spread unknown)".to_string()
                }
                (_, Verdict::Unchanged) => "unchanged".to_string(),
            };
            println!(
                "  {:<32} {:>14.6} {:>14.6} {:>+7.2}% {:>6.2}% {:>7}  {word}",
                def.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                spread * 100.0,
                def.bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
        // Runs that did the same work must agree exactly where the work
        // decides the value.
        for run_a in ra {
            for run_b in rb.iter().filter(|r| r.key() == run_a.key()) {
                let (fa, fb) = (exact_fields(run_a), exact_fields(run_b));
                let differing: Vec<&String> =
                    fa.iter().zip(&fb).filter(|(x, y)| x != y).map(|(x, _)| &x.0).collect();
                if fa.len() != fb.len() || !differing.is_empty() {
                    ok = false;
                    println!("  EXACT MISMATCH {} vs {}: {differing:?}", run_a.file, run_b.file);
                } else {
                    println!(
                        "  exact: {} fields equal (heap_span_ratio, retries_op, oom_util, pointer-stream hashes) at seed/seconds/trace/scale {}",
                        fa.len(),
                        run_a.key()
                    );
                }
            }
        }
    }
    Ok(ok)
}

/// Runs ten seeds of every workload, or of `only` (each in a process of its
/// own, as the driver does) and prints each end-to-end metric's quartile
/// spread as a share of its bound. True when every spread is within a third
/// of its bound.
pub fn spread(seconds: u32, only: Option<&str>, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out.join("spread");
    let defs = metrics::end_to_end();
    let mut ok = true;
    for workload in NAMES.into_iter().filter(|w| only.is_none_or(|o| o == *w)) {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for seed in 1..=SPREAD_SEEDS {
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&dir)
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let doc = json::parse(line)
                .map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
            if !output.status.success() || doc.get("correct").and_then(Json::as_bool) != Some(true)
            {
                return Err(format!("{workload} seed {seed}: the run was not correct: {line}"));
            }
            for (name, entry) in doc.get("metrics").map_or(&[][..], Json::members) {
                let v = entry.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                values.entry(name.clone()).or_default().push(v);
            }
        }
        println!("{workload}: {SPREAD_SEEDS} seeds, --seconds {seconds}");
        println!(
            "  {:<20} {:>14} {:>8} {:>7} {:>13}",
            "metric", "median", "spread", "bound", "spread/bound"
        );
        for def in &defs {
            let v = values.get(&def.name).ok_or_else(|| format!("{workload}: no {}", def.name))?;
            let (s, bound) =
                (quartile_spread(v), def.bound.expect("end-to-end metrics are bounded"));
            // The driver exempts `setup_s` from the spread rule.
            let wide = s > bound / 3.0 && def.name != "setup_s";
            ok &= !wide;
            println!(
                "  {:<20} {:>14.6} {:>7.2}% {:>6.0}% {:>13.2}{}",
                def.name,
                median(v),
                s * 100.0,
                bound * 100.0,
                s / bound,
                if wide { "  <- wider than a third of the bound" } else { "" }
            );
        }
    }
    println!("results files under {}", dir.display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shift_beyond_the_bound_is_a_regression() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b: Vec<f64> = a.iter().map(|x| x * 1.15).collect();
        let (worse, _, verdict) = judge(&a, &b, true, 0.10);
        assert!((worse - 0.15).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regression);
        // The same shift is an improvement for a higher-is-better metric.
        assert_eq!(judge(&a, &b, false, 0.10).2, Verdict::Improved);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_not_unchanged() {
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let b = [82.0, 101.0, 119.0, 93.0, 108.0];
        let (_, spread, verdict) = judge(&a, &b, true, 0.10);
        assert!(spread > 0.10);
        assert_eq!(verdict, Verdict::Unresolved);
        // … unless every run of the change beats every run of the parent,
        let b = [60.0, 70.0, 75.0, 65.0, 72.0];
        assert_eq!(judge(&a, &b, true, 0.10).2, Verdict::Improved);
        // or every run of the change loses to every run of the parent.
        let b = [130.0, 150.0, 170.0, 140.0, 160.0];
        let (worse, spread, verdict) = judge(&a, &b, true, 0.10);
        assert!(worse > 0.10 && spread > 0.10);
        assert_eq!(verdict, Verdict::Regression);
        assert_eq!(judge(&b, &a, false, 0.10).2, Verdict::Regression);
    }

    /// A bare `run.sh` leaves a trace-0 and a trace-1 file of each workload
    /// in one directory; both have an `end_to_end` section.
    #[test]
    fn end_to_end_comes_from_untraced_runs_and_per_layer_from_traced() {
        let dir = std::env::temp_dir().join(format!("gmsbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |trace: bool, seconds: u32, malloc: f64| {
            format!(
                r#"{{"schema": "gms-benchmark-results-v1", "workload": "thread_fixed",
                "provenance": {{"seed": 1, "seconds": {seconds}, "trace": {trace}, "scale": "full"}},
                "end_to_end": {{"malloc_ns_op": {{"value": {malloc}, "unit": "ns"}}}},
                "per_layer": {{"bench.timer_ns": {{"value": 25.0, "unit": "ns"}}}}}}"#
            )
        };
        std::fs::write(dir.join("thread_fixed-seed1-trace0.json"), file(false, 8, 40.0)).unwrap();
        std::fs::write(dir.join("thread_fixed-seed1-trace1.json"), file(true, 8, 55.0)).unwrap();
        std::fs::write(dir.join("thread_fixed-seed1-trace1-spans.json"), "[]").unwrap();
        let runs = load(&dir).unwrap().remove("thread_fixed").unwrap();
        assert_eq!(runs.len(), 2);
        let values =
            |def: &metrics::Def| runs.iter().filter_map(|r| r.value(def)).collect::<Vec<_>>();
        let find = |defs: Vec<metrics::Def>, name: &str| {
            defs.into_iter().find(|d| d.name == name).unwrap()
        };
        assert_eq!(values(&find(metrics::end_to_end(), "malloc_ns_op")), [40.0]);
        assert_eq!(values(&find(metrics::per_layer(), "bench.timer_ns")), [25.0]);
        assert!(same_work("thread_fixed", &[&runs]).is_ok());

        // Runs of another --seconds did other work: no common median.
        std::fs::write(dir.join("thread_fixed-seed2-trace0.json"), file(false, 4, 41.0)).unwrap();
        let runs = load(&dir).unwrap().remove("thread_fixed").unwrap();
        assert!(same_work("thread_fixed", &[&runs]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_differences_are_unchanged_and_single_runs_have_no_spread() {
        let a = [100.0, 101.0, 99.0];
        let b = [101.0, 100.0, 102.0];
        assert_eq!(judge(&a, &b, true, 0.10).2, Verdict::Unchanged);
        let (worse, spread, verdict) = judge(&[100.0], &[104.0], true, 0.10);
        assert!((worse - 0.04).abs() < 1e-12);
        assert_eq!(spread, 0.0);
        assert_eq!(verdict, Verdict::Unchanged);
        assert_eq!(judge(&[100.0], &[120.0], true, 0.10).2, Verdict::Regression);
    }
}

//! The names the benchmark reports: seven end-to-end metrics every workload
//! prints with `--trace 0`, and the per-layer metrics of a `--trace 1` run.
//! `BENCHMARK.json` lists the same names; a unit test holds the two together.

use crate::sut;

pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> Def {
    Def { name: name.to_string(), unit, better, bound }
}

/// The end-to-end metrics and their bounds. Three times the ten-seed spread
/// of a quiet sandbox would allow 0.10–0.15 for the medians; the sandbox's
/// minute-long slow episodes (README, "Bounds") push every timing to the
/// contract's cap of 0.25.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", "lower", Some(0.25)),
        def("malloc_ns_op", "ns", "lower", Some(0.25)),
        def("free_ns_op", "ns", "lower", Some(0.25)),
        def("malloc_ns_op_p90", "ns", "lower", Some(0.25)),
        def("free_ns_op_p90", "ns", "lower", Some(0.25)),
        def("panel_mops", "Mops", "higher", Some(0.25)),
        def("heap_span_ratio", "ratio", "lower", Some(0.05)),
    ]
}

/// The per-layer metrics, layer by layer.
pub fn per_layer() -> Vec<Def> {
    let mut v = Vec::new();
    let mut add = |name: &str, unit, better| v.push(def(name, unit, better, None));
    // gpu-sim::exec
    add("exec.inline_launch_ns", "ns", "lower");
    add("exec.thread_overhead_ns", "ns", "lower");
    add("exec.warp_overhead_ns", "ns", "lower");
    add("exec.pooled_launch_ns", "ns", "lower");
    add("exec.pooled_dispatch_ns", "ns", "lower");
    // core::traits
    add("traits.concrete_ns_op", "ns", "lower");
    add("traits.dyn_ns_op", "ns", "lower");
    // core::metrics
    add("metrics.off_ns_op", "ns", "lower");
    add("metrics.on_ns_op", "ns", "lower");
    // core::trace
    add("trace.null_traced_ns_op", "ns", "lower");
    add("trace.drop_path_ns_op", "ns", "lower");
    add("trace.events_recorded", "count", "higher");
    add("trace.events_dropped", "count", "lower");
    // core::telemetry
    add("telemetry.sampler_off_ns_op", "ns", "lower");
    add("telemetry.sampler_on_ns_op", "ns", "lower");
    add("telemetry.windows", "count", "higher");
    // core::cache
    add("cache.hit_ns", "ns", "lower");
    add("cache.park_ns", "ns", "lower");
    add("cache.miss_ns", "ns", "lower");
    add("cache.hit_ratio", "ratio", "higher");
    add("cache.flushes_op", "1/op", "lower");
    add("cache.speedup_geomean", "ratio", "higher");
    // core::sanitize
    add("sanitize.null_ns_op", "ns", "lower");
    add("sanitize.violations", "count", "lower");
    // core::heap + backend
    add("heap.atomic_view_ns", "ns", "lower");
    add("heap.reserve_ms", "ms", "lower");
    add("heap.pretouch_ms_gib", "ms", "lower");
    // the allocator crates
    for krate in sut::CRATES {
        add(&format!("{krate}.malloc_ns"), "ns", "lower");
        add(&format!("{krate}.free_ns"), "ns", "lower");
        add(&format!("{krate}.op_p99_ns"), "ns", "lower");
        add(&format!("{krate}.init_ms"), "ms", "lower");
        add(&format!("{krate}.retries_op"), "1/op", "lower");
        add(&format!("{krate}.oom_util"), "ratio", "higher");
    }
    // gpu-workloads
    add("gpu-workloads.size_gen_ns", "ns", "lower");
    // the benchmark itself
    add("bench.trace_overhead_ns_op", "ns", "lower");
    add("bench.timer_ns", "ns", "lower");
    add("bench.wall_over_cpu", "ratio", "lower");
    add("bench.peak_rss_mb", "MB", "lower");
    add("bench.verify_s", "s", "lower");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads::{Scale, Workload, NAMES};

    #[test]
    fn eighty_one_per_layer_names_used_once() {
        let names: Vec<String> = per_layer().into_iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 81);
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for d in per_layer().iter().chain(end_to_end().iter()) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.better == "lower" || d.better == "higher");
        }
    }

    /// `BENCHMARK.json` at the repo root names exactly what the code reports.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let listed = |key: &str| -> Vec<Json> { doc.get(key).unwrap().items().to_vec() };
        let str_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = listed("workloads");
        assert_eq!(workloads.iter().map(|w| str_of(w, "name")).collect::<Vec<_>>(), NAMES);
        for w in &workloads {
            let ours = Workload::by_name(&str_of(w, "name"), Scale::Full).unwrap();
            assert_eq!(str_of(w, "why"), ours.why);
        }

        for (key, ours) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let theirs = listed(key);
            assert_eq!(theirs.len(), ours.len(), "{key}");
            for (t, o) in theirs.iter().zip(&ours) {
                assert_eq!(str_of(t, "name"), o.name);
                assert_eq!(str_of(t, "unit"), o.unit, "{}", o.name);
                assert_eq!(str_of(t, "better"), o.better, "{}", o.name);
                assert_eq!(t.get("bound").and_then(Json::as_f64), o.bound, "{}", o.name);
            }
        }
        assert_eq!(doc.get("paths").unwrap().items(), [Json::from("benchmark")]);
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(f64::from(crate::DEFAULT_SECONDS)));
    }
}

#!/usr/bin/env bash
# Repo-wide quality gate. Offline-safe: every cargo invocation passes
# --offline so the gate works without network access (the workspace has no
# crates.io dependencies; shims/ vendors the test scaffolding).
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --offline --release

echo "==> cargo test -q"
cargo test --offline -q --workspace

# Most paper-shape assertions compare timing ratios and are ignored in debug
# builds (cfg_attr(debug_assertions, ignore)); without this release run they
# would never execute anywhere.
echo "==> cargo test --release --test paper_shapes"
cargo test --offline --release -q --test paper_shapes

# Shadow-heap sanitizer battery: broken-mock detection plus a clean churn
# run of every evaluated manager, in release so the full set stays fast.
echo "==> cargo test --release --test sanitizer"
cargo test --offline --release -q --test sanitizer

# Trace-layer conformance in release: its two per-op timing guards (the
# disabled record path; a traced op within two clock reads plus one ring
# record) are ignored in debug builds and would otherwise run nowhere.
echo "==> cargo test --release --test trace_conformance"
cargo test --offline --release -q --test trace_conformance

# Magazine-cache cost guard, likewise ignored in debug builds: one hit plus
# one park over a no-op manager within three RMWs (measured in the test)
# plus 25 ns.
echo "==> cargo test --release -p gpumem-core --test decorator_conformance magazine_hit_plus_park"
cargo test --offline --release -q -p gpumem-core --test decorator_conformance \
    magazine_hit_plus_park_costs_three_rmws

# Reg-Eff every-byte stress at its release length: 4 OS threads x 200 000
# mixed-size ops per variant (the debug run above does 20 000), every payload
# byte read back, no Contention / OutOfMemory on a nearly empty heap.
echo "==> cargo test --release -p alloc-regeff --test stress"
cargo test --offline --release -q -p alloc-regeff --test stress

# The two exact, host-independent walk lengths: Reg-Eff's chunk list and
# XMalloc's Memoryblock list, hops per malloc after 42 rounds of a manager's
# life (128 MiB heaps; release keeps them at a second).
echo "==> cargo test --release --test regeff_hops --test xmalloc_hops"
cargo test --offline --release -q --test regeff_hops --test xmalloc_hops

# Executor suite in release: includes the timing-fidelity test asserting an
# empty one-warp-per-worker launch reports under a quarter of the call's wall
# clock (ignored in debug builds where the ratio is meaningless).
echo "==> cargo test --release -p gpu-sim"
cargo test --offline --release -q -p gpu-sim

# Single-worker determinism: the conformance battery must also hold when the
# pool is forced to one worker (inline sequential execution, no interleaving).
echo "==> GMS_WORKERS=1 cargo test --release --test conformance"
GMS_WORKERS=1 cargo test --offline --release -q --test conformance

# Heap-backend conformance: the cross-backend battery (RAM/mmap heap
# contract, per-manager runs, ram-vs-mmap byte identity, commit/lazy/full
# residency and reserve/drop cycles read from /proc/self) plus the env-gated
# 8 GiB MAP_NORESERVE smoke, then the full allocator conformance battery
# re-run with every heap swapped to the mmap backend via GMS_HEAP_BACKEND.
echo "==> HUGE_HEAP=1 cargo test --release --test heap_backends"
HUGE_HEAP=1 cargo test --offline --release -q --test heap_backends
echo "==> GMS_HEAP_BACKEND=mmap cargo test --release --test conformance"
GMS_HEAP_BACKEND=mmap cargo test --offline --release -q --test conformance

# End-to-end full-scale smoke: a Fig. 9 scenario at the paper's 8 GiB heap
# over the mmap backend, trimmed to one manager at the tiny tier so the gate
# stays fast. The anchor's provenance must say what was asked for.
echo "==> repro matrix --heap-backend mmap --heap-mb 8192 (8 GiB smoke)"
rm -rf target/perf-smoke
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    matrix --tier tiny --scenario perf_thread -t s --heap-backend mmap --heap-mb 8192 \
    --anchors target/perf-smoke
grep -q '"heap_backend": "mmap"' target/perf-smoke/BENCH_perf_thread.json
grep -q '"heap_mb": "8192"' target/perf-smoke/BENCH_perf_thread.json

# Repro-matrix smoke gate: regenerate every smoke-tier scenario into a
# scratch dir, then compare against the committed BENCH_*.json anchors with
# the per-scenario tolerances in gates.toml. Exits nonzero on regression,
# exact-metric drift, or a missing/damaged anchor. GMS_WORKERS is pinned so
# throughput anchors are comparable across machines; re-baseline with
# `repro matrix --smoke` (see gates.toml header) after intentional changes.
echo "==> repro matrix --smoke + gate"
rm -rf target/matrix-smoke
GMS_WORKERS="${GMS_WORKERS:-4}" cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    matrix --smoke --anchors target/matrix-smoke
GMS_WORKERS="${GMS_WORKERS:-4}" cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    gate --smoke --candidate target/matrix-smoke

# Magazine-cache smoke: regenerate just the cached twin scenarios and gate
# them against their committed anchors. Redundant with the full matrix run
# above by construction, but isolates a cache regression in its own stage
# (and exercises the --scenario selection + @cached plumbing end to end).
echo "==> repro matrix --smoke (cached scenarios) + gate"
rm -rf target/matrix-cached
GMS_WORKERS="${GMS_WORKERS:-4}" cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    matrix --smoke --scenario perf_thread_cached --scenario mixed_cached \
    --anchors target/matrix-cached
GMS_WORKERS="${GMS_WORKERS:-4}" cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    gate --smoke --scenario perf_thread_cached --scenario mixed_cached \
    --candidate target/matrix-cached

# Event-tracing smoke: a traced run must produce a Perfetto-loadable Chrome
# trace (the binary validates it before writing) plus a latency-percentile
# CSV with data rows. Cheap end-to-end coverage of recorder → exporters.
echo "==> repro trace smoke"
rm -rf target/trace-smoke
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    trace -m scatter --num 2048 --out target/trace-smoke
test -s target/trace-smoke/trace_scatter.json
grep -q '"ph"' target/trace-smoke/trace_scatter.json
grep -q '^ScatterAlloc,malloc,' target/trace-smoke/trace_latency_2048_TITANV.csv

# Live-telemetry smoke: a watched run must produce a schema-versioned JSON
# time-series with at least 10 sample windows, a parse-validated OpenMetrics
# exposition, and a per-window CSV the summarizer can read (DESIGN.md §15).
echo "==> repro watch smoke"
rm -rf target/watch-smoke
GMS_WORKERS="${GMS_WORKERS:-4}" cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    watch -m scatter --scenario mixed --out target/watch-smoke
grep -q '"schema": 1' target/watch-smoke/telemetry_mixed.json
grep -q '"kind": "gms-telemetry"' target/watch-smoke/telemetry_mixed.json
grep -q '# EOF' target/watch-smoke/telemetry_mixed.prom
grep -q '^seq,' target/watch-smoke/telemetry_mixed.csv
test "$(($(wc -l < target/watch-smoke/telemetry_mixed.csv) - 2))" -ge 10

# Heap-safety static analysis: the full pass set (atomics ordering, offset
# arithmetic, hot-path panics/allocation, lock ordering) over the
# workspace. Decorator forwarding needs no pass: `Layer`'s blanket impl
# forwards by construction. Any non-allowlisted finding fails the gate;
# every allowlist entry must carry a written reason.
echo "==> memlint --deny (all passes)"
cargo run --offline -q -p memlint -- --deny .

# The audit CLI consumes the same report: per-pass rollup table plus an
# audit.csv with a pass column, exit 2 on standing findings.
echo "==> repro audit smoke"
rm -rf target/audit-smoke
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    audit --out target/audit-smoke > /dev/null
head -2 target/audit-smoke/audit.csv | grep -q '^crate,pass,rule,standing,allowlisted'

# Diagnostic-table smoke: each subcommand prints its table and writes the
# same columns as CSV. The printed layout may change; the CSV header lines
# below may not, since whatever reads results/ keys on them.
echo "==> repro tables smoke"
rm -rf target/table-smoke
repro() { cargo run --offline --release -q -p gpumem-bench --bin repro -- "$@" > /dev/null; }
repro table1 --out target/table-smoke
repro contention --num 512 -t a+s --out target/table-smoke
repro sanitize --num 512 -t a+s --out target/table-smoke
header() { sed -n 2p "target/table-smoke/$1"; }
test "$(header table1.csv)" = \
    "ref,name,year,availability,build,variants,needs_cuda_alloc,general_purpose,results,stable,evaluated_here"
test "$(header contention_512_TITANV.csv)" = \
    "manager,threads,size,workers,observed_ms,baseline_ms,overhead,dispatch_us,workers_used,steals,malloc_calls,malloc_failures,free_calls,free_failures,cas_retries,probe_steps,queue_spins,list_hops,oom_fallbacks,warp_coalesced,dropped_events"
test "$(header sanitize_512_TITANV.csv)" = \
    "manager,threads,cycles,alloc_failures,overlap,out_of_heap,misaligned,double_free,unknown_free,redzone_corrupt,total,live_after,clean"

# Loom model checking: the same allocator protocols, compiled against the
# cooperative-scheduling shim (--cfg loom) and exhaustively interleaved at
# small bounds. Separate target dir so the flag flip doesn't thrash the
# main incremental cache.
echo "==> loom model checks (--cfg loom)"
for crate in loom gpumem-core alloc-atomic alloc-scatter alloc-ouroboros \
    alloc-xmalloc alloc-regeff alloc-halloc gpu-sim; do
    echo "    -> $crate"
    RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
        cargo test --offline --release -q -p "$crate" --lib loom_
done

# Miri smoke (opt-in: MIRI=1). Interprets the ouroboros queue + regeff
# header units under the UB checker; skipped gracefully where the miri
# component isn't installed (e.g. offline containers).
if [[ "${MIRI:-0}" == "1" ]]; then
    if cargo miri --version >/dev/null 2>&1; then
        echo "==> cargo miri test (smoke)"
        cargo miri test --offline -q -p alloc-ouroboros --lib queues
        cargo miri test --offline -q -p alloc-regeff --lib header
    else
        echo "==> MIRI=1 set but 'cargo miri' is unavailable; skipping"
    fi
fi

# The repo benchmark (BENCHMARK.json): its own package outside the
# workspace, so the workspace test run above never sees it. Unit tests, then
# every workload at tiny sizes with every output check on.
echo "==> benchmark: cargo test + run.sh --selftest"
(cd benchmark && cargo test --offline -q)
bash benchmark/run.sh --selftest

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."

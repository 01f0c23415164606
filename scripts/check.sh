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

# No integer division on an operation of ScatterAlloc or Halloc: page and
# probe cursors are masked or stepped, and every divisor an operation needs
# is a reciprocal computed when the manager is built. Only constructors
# (`new`, `with_*`) and `grow` may divide. An operation's body may be
# inlined into generic code whose name does not say so (the `Counted`,
# `Cached` and `Traced` layers demangle as `<L as …>`), so each instruction
# is attributed by the release profile's line tables: it is the two crates'
# code when any frame of its inline chain is in their sources.
echo "==> no div in alloc-scatter / alloc-halloc operations (objdump)"
cargo build --offline --release -q -p gpumem-bench --bin repro
scan=$(objdump -d -C -l --inlines --no-show-raw-insn target/release/repro | awk '
    /^[0-9a-f]+ <.*>:$/ { sym = $0; sub(/^[0-9a-f]+ </, "", sym); sub(/>:$/, "", sym)
                          files = ""; names = ""; fn = ""; next }
    /^\// { files = $0; names = ""; next }
    /^inlined by / { files = files " " $3; names = names " " $4; next }
    /^[^ \t].*:$/ { fn = $0; next }
    /^ +[0-9a-f]+:\t/ {
        if (files !~ /crates\/alloc-(scatter|halloc)\/src\// && sym !~ /^<?alloc_(scatter|halloc)::/) next
        seen++
        if ($2 !~ /^i?div[bwlq]?$/) next
        if ((sym " " fn " " names) ~ /(^|[^a-z_])(new|with_[a-z_]+|grow)([^a-z_]|$)/) next
        print sym " [" files "]: " $2 " " $3
    }
    END { print "seen " seen + 0 }')
if grep -v '^seen ' <<<"$scan"; then
    exit 1
fi
if [[ "$scan" == "seen 0" ]]; then
    echo "no instruction of alloc-scatter / alloc-halloc found: no line tables?"
    exit 1
fi

# Call accounting has one home, `gpumem_core::metrics::Counted`: a manager
# records only the contention counters it alone can see, and retries reach
# the trace through `Metrics::add(_, CasRetries, n)`.
echo "==> no call accounting in crates/alloc-*"
if grep -nE 'Counter::(MallocCalls|MallocFailures|FreeCalls|FreeFailures)|record_retries' \
    crates/alloc-*/src -r; then
    exit 1
fi

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

# Trace-layer conformance in release: its three per-op timing guards (the
# disabled record path; a traced op on one repeated lane within 1 + 1/8
# clock reads plus one ring record; a traced op over full 32-lane warp
# passes within 9/32 of a clock read plus the same constant) are ignored in
# debug builds and would otherwise run nowhere.
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

# Ouroboros stress in release, where the threads overlap most: all six
# variants, 4 OS threads x 2 000 mixed-size ops each, every block's fill
# pattern read back before it is freed and no two live blocks overlapping.
# The chunk-based variants allocate from the chunk at the front of a
# lock-free queue without dequeuing it, so this is their concurrency check.
echo "==> cargo test --release -p alloc-ouroboros concurrent_stress"
cargo test --offline --release -q -p alloc-ouroboros concurrent_stress

# The near-max request battery in release, where a wrapped size passes
# silently instead of trapping: there, the check that every grant lies in
# the heap is what catches it.
echo "==> cargo test --release --test near_max"
cargo test --offline --release -q --test near_max

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

# OOM utilization is a share of the heap the manager got: under --heap-mb
# that is the override, so no `utilization` of the anchor may exceed 1.
echo "==> repro matrix --scenario oom --heap-mb 128 (utilization <= 1)"
rm -rf target/oom-override
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    matrix --tier tiny --scenario oom -t s --heap-mb 128 --anchors target/oom-override \
    > /dev/null
awk -F'"value": ' '/\/utilization"/ { n++; if ($2 + 0 > 1) { print "over 1: " $0; bad = 1 } }
    END { exit n == 0 || bad }' target/oom-override/BENCH_oom.json

# Repro-matrix smoke gate: rerun every smoke-tier scenario and compare it
# against the committed BENCH_*.json anchors. The smoke tier runs on the
# inline one-worker device whatever GMS_WORKERS says, and an anchor holds
# only counts and model outputs, no clock reading, so every metric must be
# bit-equal. Exits nonzero on a mismatch or a missing/damaged anchor.
# Re-baseline with `repro matrix --smoke` after intentional changes.
echo "==> repro gate --smoke"
cargo run --offline --release -q -p gpumem-bench --bin repro -- gate --smoke
# A gate restricted to one manager compares that manager's keys of each
# anchor, and passes: the other managers' keys are not missing from it.
echo "==> repro gate --smoke -m scatter --scenario perf_thread"
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    gate --smoke -m scatter --scenario perf_thread > /dev/null

# Event-tracing smoke: a traced run must produce a Perfetto-loadable Chrome
# trace (the binary validates it before writing) plus a latency-percentile
# CSV with data rows. Cheap end-to-end coverage of recorder → exporters.
# The trace is the one per-run export: it holds exactly one `launch window`
# counter sample per launch slice (the malloc round and the free round,
# folded from the trace's own launch events, so the count does not depend
# on the host), and its process metadata carries the recorder's drops and
# the cost of one read of its clock.
echo "==> repro trace smoke"
rm -rf target/trace-smoke
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    trace -m scatter --num 2048 --out target/trace-smoke
trace_json=target/trace-smoke/trace_scatter.json
test -s "$trace_json"
grep -q '"ph"' "$trace_json"
test "$(grep -c '"cat":"launch"' "$trace_json")" -eq 2
test "$(grep -c '"name":"launch window"' "$trace_json")" -eq 2
grep -q '"name":"process_name","args":{"name":"[^"]*","dropped":[0-9][0-9]*,"clock_read_ns":[0-9][0-9]*}' "$trace_json"
# `events` counts every operation, timed or not, and the percentiles come
# from the timed sample of them: both rows read 2 048 events and a nonzero
# p50, so a sample count leaking into `events` fails here.
awk -F, '$1 == "ScatterAlloc" && ($2 == "malloc" || $2 == "free") {
        rows++; if ($3 != 2048 || $5 <= 0) bad = 1
    } END { exit !(rows == 2 && !bad) }' target/trace-smoke/trace_latency_2048_TITANV.csv
# A selector names managers only: the retired `@backend`/`@cached` suffix is
# a usage error (exit 2), not a run that quietly resets the heap backend.
status=0
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    trace -m scatter -t s@cached --out target/trace-smoke 2> /dev/null || status=$?
test "$status" -eq 2
# So is the retired `watch` subcommand: an unknown command.
status=0
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    watch --scenario mixed --out target/trace-smoke > /dev/null 2>&1 || status=$?
test "$status" -eq 2
# So is a heap backend nobody knows, named by the environment: one line on
# stderr and exit 2, not a panic.
status=0
GMS_HEAP_BACKEND=bogus cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    table1 --out target/trace-smoke > /dev/null 2> target/trace-smoke/bad-env.err || status=$?
test "$status" -eq 2
test "$(wc -l < target/trace-smoke/bad-env.err)" -eq 1
if grep -q panicked target/trace-smoke/bad-env.err; then
    exit 1
fi

# Table smoke: `table1` prints its table and writes the same columns as
# CSV. The printed layout may change; the CSV header line below may not,
# since whatever reads results/ keys on it. Contention counters and sanitizer
# violations are anchor metrics, checked exactly by `repro gate --smoke`
# above (the `sanitize` scenario runs every free-round branch: none for
# Atomic, per-thread free, and free_warp_all for FDGMalloc).
echo "==> repro table1 smoke"
rm -rf target/table-smoke
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    table1 --out target/table-smoke > /dev/null
test "$(sed -n 2p target/table-smoke/table1.csv)" = \
    "ref,name,year,availability,build,variants,needs_cuda_alloc,general_purpose,results,stable,evaluated_here"
# A reader that stops early (`| head -1`) closes stdout: the CSV is still
# written and nothing lands on stderr.
rm -rf target/table-smoke
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    table1 --out target/table-smoke 2> target/table-pipe.err | head -1 > /dev/null
test -s target/table-smoke/table1.csv
test ! -s target/table-pipe.err

# Loom model checking: the same allocator protocols, compiled against the
# cooperative-scheduling shim (--cfg loom) and exhaustively interleaved at
# small bounds. Separate target dir so the flag flip doesn't thrash the
# main incremental cache. `-D warnings`: code the loom build leaves dead is
# gated to the cfg that reads it, so a new warning fails the stage.
echo "==> loom model checks (--cfg loom)"
for crate in loom gpumem-core alloc-atomic alloc-scatter alloc-ouroboros \
    alloc-xmalloc alloc-regeff alloc-halloc gpu-sim; do
    echo "    -> $crate"
    RUSTFLAGS="--cfg loom -D warnings" CARGO_TARGET_DIR=target/loom \
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

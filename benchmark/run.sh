#!/usr/bin/env bash
# The one command of the repo benchmark: builds `gmsbench` (offline, release)
# and runs it with the arguments given.
#
#   benchmark/run.sh                       every workload, every end-to-end metric
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --selftest            tiny sizes, every check, 12-14 s
#   benchmark/run.sh spread                ten seeds per workload, spread / bound
#   benchmark/run.sh compare A B           results files or directories of them
#
# Run it from the root of a checkout: results go to ./benchmark/results unless
# --out says otherwise. The build goes to $CARGO_TARGET_DIR, or to
# benchmark/target. Where the repo's crates are missing the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/gmsbench" "$@"

#!/usr/bin/env bash
# Builds lineup-perf (release, offline) and runs it with the given arguments.
#
#   benchmark/run.sh                  every workload, one table, out/results.json
#   benchmark/run.sh --trace          ... plus the traced pass and per-layer metrics
#   benchmark/run.sh --smoke          ... at 1/20 size in a few seconds, all gates on
#   benchmark/run.sh --selfcheck      two whole sets must agree within the bounds
#   benchmark/run.sh --check-counts   exact counters must repeat for one seed
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one workload; last output line is the JSON result
#
# Build output goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/lineup-perf" "$@"

#!/usr/bin/env bash
# Builds the benchmark and runs it pinned to one CPU, passing its
# arguments through:
#
#   bash mwbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Why pinned: with its threads free to move across CPUs, a routed call
# wakes a thread on the other CPU or on its own depending on where the
# scheduler placed them, and each run's RPC latency lands on one of two
# modes (for example a 0.062 or a 0.094 ms call median on a two-core host).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path mwbench/Cargo.toml
# The first CPU this process may run on, e.g. "0" from "...: 0,1" or "4-7".
cpu=$(taskset -pc $$ | sed -e 's/.*: //' -e 's/[,-].*//')
exec taskset -c "$cpu" "${CARGO_TARGET_DIR:-mwbench/target}/release/mwbench" "$@"

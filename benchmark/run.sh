#!/usr/bin/env bash
# The benchmark's one command: builds the benchmark crate (a no-op after
# the first time) and runs the binary that serves the requested mode.
#
#   bash benchmark/run.sh --workload <name> --seed <u64> --seconds <n> --trace <0|1>
#
# --trace 0 (default) runs `ezbft-benchmark` (end-to-end metrics, tracing
# off); --trace 1 runs `ezbft-benchmark-trace` (per-layer metrics; spans go
# to benchmark/out/). Anything else (`--selfcheck`, `--quick`, no
# `--workload` = all four) is passed through.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

bin=ezbft-benchmark
previous=""
for arg in "$@"; do
    if [[ "$previous" == "--trace" && "$arg" == "1" ]]; then
        bin=ezbft-benchmark-trace
    fi
    previous="$arg"
done
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/$bin" "$@"

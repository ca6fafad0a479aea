#!/usr/bin/env bash
# Driver entry point of BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache, temp files and binary all under
# .bench_build/) and runs it with the driver's arguments.
#
#   bash bench/perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go build -C "$here" -o "$build/fleet-perf" .
exec "$build/fleet-perf" -tmp "$build/tmp" "$@"

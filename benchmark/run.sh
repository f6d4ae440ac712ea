#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from source into
# .bench_build/ inside the checkout (build cache included, so nothing is
# written outside it) and runs it with the driver's arguments.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/cmd/planetd/main.go" ]; then
	echo "benchmark: run from the root of the repository (no go.mod or cmd/planetd here)" >&2
	exit 2
fi
mkdir -p "$root/.bench_build/gotmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/gotmp"
go build -C "$root/benchmark" -o "$root/.bench_build/planet-benchmark" .
exec "$root/.bench_build/planet-benchmark" "$@"

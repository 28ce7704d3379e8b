#!/usr/bin/env bash
# Builds amnesiaperf from source and runs it with the arguments given.
# Run from the root of a checkout:
#
#   bash benchmarks/run.sh --workload scan_stream --seed 1 --seconds 20 --trace 0
#
# Everything the build writes — binary, Go build cache, module cache,
# scratch space, the toolchain's own config directory — goes under
# .bench_build/ in the checkout, so nothing outside it is touched.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/gotmp"
# Build output goes to stderr: standard output belongs to the benchmark.
GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/gotmp XDG_CONFIG_HOME=$build/config \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	go build -C "$here" -o "$build/amnesiaperf" ./amnesiaperf >&2
exec "$build/amnesiaperf" "$@"

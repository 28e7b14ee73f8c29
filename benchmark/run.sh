#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# binary. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload day.hybrid --seed 7 --seconds 20 --trace 0
#
# Build output and the Go build cache stay inside the checkout, under
# .bench_build/, so a run reads and writes nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOFLAGS="-mod=mod"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/pem-benchmark" .) >&2
exec "$build/pem-benchmark" "$@"

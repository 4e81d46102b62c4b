#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it from the
# root of the checkout:
#
#   bash benchmark/run.sh --workload study --seed 1 --seconds 15 --trace 0
#
# The Go build cache lives in .bench_build too, so that a run reads and
# writes nothing outside the checkout; the first run in a checkout compiles
# the standard library into it and takes about a minute.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" -workdir "$out" "$@"

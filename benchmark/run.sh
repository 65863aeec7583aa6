#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The
# driver's arguments (--workload, --seed, --seconds, --trace) pass through.
# Everything written — the Go build cache, the binary, the trace files — goes
# to .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off

(cd "$here" && go build -o "$out/pimzd-benchmark" .)
cd "$root"
exec "$out/pimzd-benchmark" -out "$out" "$@"

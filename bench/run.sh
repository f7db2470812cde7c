#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness inside the
# checkout (Go build cache included, so nothing outside the checkout is
# written) and hands it the driver's arguments unchanged. Run it from the
# repository root: `bash bench/run.sh --workload hot-singles --seed 1
# --seconds 10 --trace 0`. Without --workload it runs the whole suite.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# Keep the go command's cache, scratch space and telemetry counters inside
# the checkout, and never let it fetch another toolchain.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/bin/zsdb-bench" .
cd "$root"
exec "$build/bin/zsdb-bench" "$@"

#!/usr/bin/env bash
# Builds the scadaver benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload campaign-cold-ieee57 --seed 0 --seconds 20 --trace 0
#   bash bench/run.sh -compare before.jsonl after.jsonl
#
# Run it from the repository root. The Go build cache, module cache,
# configuration (telemetry included) and the binary live in .bench_build/
# so nothing is written outside the checkout, and the module proxy is off:
# the benchmark needs nothing beyond the standard library.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$build/scadaver-bench" .)
exec "$build/scadaver-bench" "$@"

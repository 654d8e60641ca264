#!/bin/bash
# Entry point named by BENCHMARK.json: build the benchmark from source inside
# the checkout (build cache and temporaries included, so nothing is read or
# written outside it), then run it. Arguments go to the benchmark unchanged:
#   bash bench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
# The go command keeps its env file and telemetry counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME=$build/config
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/condorg-bench" .)
exec "$build/condorg-bench" -root "$root" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload battery --seed 1999 --seconds 30 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# generated inputs all live under .bench_build, so the checkout is the
# only place written. The benchmark is its own module that resolves the
# simulator from the parent directory; without it the build fails and
# the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
bin="$out/perfbench"
mkdir -p "$out"
# Keep the go command's cache, module cache, config and telemetry
# counters inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$bin" .)
exec "$bin" "$@"

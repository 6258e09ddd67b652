#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Everything the build and the run write stays
# under .bench_build in the current directory; no toolchain or module is
# fetched over the network.
set -euo pipefail
root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp TMPDIR=$out/tmp
export GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

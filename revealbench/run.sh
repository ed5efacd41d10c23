#!/usr/bin/env bash
# Builds the reveal benchmark from the checkout's sources and runs it.
#
#   bash revealbench/run.sh --workload corpus-oneshot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (Go build cache, the
# benchmark binary, trace files) stays under .bench_build in that root.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly
export GOPROXY=off

(cd "$root/revealbench" && go build -o "$build/revealbench" .)
exec "$build/revealbench" -trace-dir "$build" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload fig4-step --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# (default .bench_build): the Go build cache, the binary and the span files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME=$build/config

go build -C bench -o "$build/bench" .
exec "$build/bench" -outdir "$build/out" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sim-handoff --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, traces) lands in the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise, relative to the
# current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" -out "$build" "$@"

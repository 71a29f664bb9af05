#!/usr/bin/env bash
# Builds the mcperf benchmark from this checkout and runs it from the
# repository root with the given arguments, e.g.
#
#   bash mcperf/run.sh --workload copy-ladder --seed 1 --seconds 28 --trace 0
#
# The Go build and module caches, the go command's configuration and
# telemetry, and temporary files all live under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build in the current directory),
# so a run writes nothing outside it and the checkout. The Go toolchain on
# PATH is used as it is; nothing is downloaded.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path \
	GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
mkdir -p "$GOCACHE" "$GOMODCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME"

cd "$repo/mcperf"
go build -o "$build/mcperf" .
cd "$repo"
exec "$build/mcperf" "$@"

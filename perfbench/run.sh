#!/usr/bin/env bash
# Builds the benchmark and the lazyetld daemon from the checkout's sources,
# then runs one workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload archive-cold --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays inside the checkout: the Go caches, the
# binaries and the scratch repositories live under .bench_build/, span dumps
# under .bench_out/.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/home" "$build/tmp" "$build/gocache" "$build/gopath"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off GOWORK=off CGO_ENABLED=0

go build -o "$build/lazyetld" ./cmd/lazyetld >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" -daemon "$build/lazyetld" -work "$build/work" "$@"

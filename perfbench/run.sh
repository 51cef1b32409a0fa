#!/usr/bin/env bash
# Builds the benchmark from source into the build directory and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload memint --seed 1 --seconds 50 --trace 0
#
# The Go build cache, temp files and the binary stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build), so a run reads and
# writes nothing outside the checkout apart from the Go toolchain itself.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# XDG_CONFIG_HOME keeps the toolchain's local telemetry counters in the
# build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"

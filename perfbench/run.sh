#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash perfbench/run.sh --workload single-group --seed 1 --seconds 15 --trace 0
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, CPU profile, span log) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
  exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The checkout may sit inside some other git tree, or be no repository at
# all: build without version-control stamping and without a go.work file.
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-out" "$@"

#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it:
#
#   bash pipelinebench/run.sh --workload mix-import --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build writes (compiled
# packages, the binary, temporary files) stays under $CARGO_TARGET_DIR,
# default .bench_build, so the benchmark touches nothing outside the
# checkout. The build needs no network: the module's only dependency is
# the repository itself, wired in by a replace directive, so the
# benchmark fails to build (and prints no result) anywhere the
# repository sources are missing.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

# XDG_CONFIG_HOME keeps the go command's telemetry counters here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

go -C pipelinebench build -o "$out/pipelinebench" .
exec "$out/pipelinebench" -outdir "$out" "$@"

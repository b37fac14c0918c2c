#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload fleet-move --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/spans" "$@"

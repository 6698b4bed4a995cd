#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build cache, the binary and every
# file a run writes stay under .bench_build/ (or $CARGO_TARGET_DIR when
# set), inside the checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/work" "$@"

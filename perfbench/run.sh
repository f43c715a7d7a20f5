#!/usr/bin/env bash
# Builds qcecd and the benchmark from the checkout in the current directory,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ci-verify --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run files stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/qcecd" ./cmd/qcecd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -qcecd "$out/qcecd" -work "$out" "$@"

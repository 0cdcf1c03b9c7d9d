#!/usr/bin/env bash
# Builds the benchmark program from source inside the checkout and runs it.
# Every argument is passed through, e.g.
#
#	bash perfbench/run.sh --workload spreader-kd --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ so the benchmark writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

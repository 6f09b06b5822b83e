#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run it from the root of the checkout:
#
#	bash perfbench/run.sh --workload fig4 --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache and binary all live under .bench_build
# in the checkout, so nothing outside it is written.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

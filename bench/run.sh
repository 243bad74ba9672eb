#!/usr/bin/env bash
# Builds masbench from source and runs it with the arguments given, e.g.
#
#   bash bench/run.sh                                    # the whole suite
#   bash bench/run.sh -workload sort_file -seed 3 -seconds 15 -trace 0
#
# Everything it writes stays inside the checkout: the binary, Go's build
# cache and the stores' run files under .bench_build/, results and traces
# under bench/out/.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$bench" -o "$build/masbench" ./masbench

exec "$build/masbench" -out "$bench/out" -tmp "$build/tmp" "$@"

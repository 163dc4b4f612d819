#!/usr/bin/env bash
# Builds mrcbench from the checkout it is run in and runs it with the given
# flags. Run it from the repository root:
#
#   bash cmd/mrcbench/run.sh --workload online_zoo --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (the binary, the Go build cache) stays under
# .bench_build in the repository root. The Go build cache makes every build
# after the first one take about a second.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=readonly

mkdir -p "$out"
(cd "$root/cmd/mrcbench" && go build -o "$out/mrcbench" .)
exec "$out/mrcbench" "$@"

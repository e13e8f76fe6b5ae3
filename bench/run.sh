#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build and the run write (Go build cache, binary, scratch stores,
# trace files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $root is not a checkout of the repository (no go.mod, no internal/)" >&2
	exit 2
fi
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
first_build=0
[ -x .bench_build/bench ] || first_build=1
go build -C bench -o ../.bench_build/bench .
if [ "$first_build" = 1 ]; then
	# A cold build leaves hundreds of MB of dirty cache pages; write them
	# back now rather than during the measured window.
	sync
fi
exec .bench_build/bench "$@"

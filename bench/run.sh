#!/usr/bin/env bash
# Builds bench/avgperf from source and runs it with the given flags. Run it
# from the repository root, for example:
#
#   bash bench/run.sh --workload sampled-atlas --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1 -out .bench_build/run.json
#
# The build cache, the binary and every file a run writes (lease stores,
# temporary files) stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# The commit is recorded in full runs' environment block; outside a git
# checkout it is unknown.
commit=unknown
if [ -e .git ]; then
	commit=$(git describe --always --dirty 2>/dev/null || echo unknown)
fi
go build -C bench -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/avgperf" ./avgperf
exec "$out/avgperf" "$@"

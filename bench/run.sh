#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash bench/run.sh -workload all -seed 1 -o result.json      # end-to-end
#   bash bench/run.sh -workload e2-wavelet -seed 1 -trace 1     # per-layer
#   bash bench/run.sh diff -a 'base/*.json' -b 'new/*.json'    # compare runs
#
# The Go build cache, the binaries and every file a run writes stay under
# bench/.bench_build/; nothing is fetched over the network.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry counters here;
# TMPDIR holds essbench's scratch directories.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -o "$out/essbench" ./essbench && go build -o "$out/benchdiff" ./benchdiff)
if [ "${1-}" = diff ]; then
	shift
	exec "$out/benchdiff" "$@"
fi
exec "$out/essbench" "$@"

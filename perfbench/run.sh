#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload replay|build|daemon --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/work" "$@"

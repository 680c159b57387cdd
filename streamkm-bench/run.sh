#!/usr/bin/env bash
# Builds cmd/streamkmd and the benchmark from the checkout's sources into
# .bench_build/, then runs the benchmark with the given arguments. Run it
# from the root of a checkout:
#
#   bash streamkm-bench/run.sh --workload ingest16 --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/streamkmd" ]]; then
	echo "run.sh: run from the root of a streamkm checkout (no go.mod or cmd/streamkmd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/streamkmd" ./cmd/streamkmd
(cd "$root/streamkm-bench" && go build -o "$out/streamkm-bench" .)
# The benchmark finds the daemon at .bench_build/streamkmd by default.
exec "$out/streamkm-bench" "$@"

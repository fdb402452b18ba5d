#!/usr/bin/env bash
# Builds the slx benchmark from the sources of this checkout and runs it
# with the given arguments, from the repository root:
#
#   bash slxbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go/cache" GOPATH="$out/go/path" XDG_CONFIG_HOME="$out/go/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/slxbench" && go build -o "$out/slxbench" .)
exec "$out/slxbench" --spec "$root/BENCHMARK.json" --trace-dir "$out/trace" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-websearch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, span files) stays under .bench_build in the
# current directory. The build needs the repository's root module; in a
# directory holding only the benchmark it fails and the script exits
# non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# run.sh is BENCHMARK.json's command. It builds the benchmark from the
# checkout's own source and runs it, keeping everything it writes — the
# Go build cache, the binary, the WAL temp dirs, the trace file — inside
# the checkout, under .bench_build/. Arguments go to the benchmark
# unchanged: --workload W --seed N --seconds S --trace 0|1.
#
# Outside a checkout of the module (no go.mod, no internal/) the build
# fails and so does this script, before any result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/roambench" ./bench
exec "$build/roambench" "$@"

#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload resv-stream --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, its own settings) stays under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C perfbench -buildvcs=false -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"

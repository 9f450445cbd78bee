#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-history --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and any temporary files go under
# .bench_build/ in the current directory; nothing else is written.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

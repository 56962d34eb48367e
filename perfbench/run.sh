#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload crowd-packet --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build writes (compiler
# cache, toolchain telemetry) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOENV="${GOENV:-${XDG_CONFIG_HOME:-${HOME:-/nonexistent}/.config}/go/env}"
export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -refs "$root/perfbench/refs" "$@"

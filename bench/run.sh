#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark from its own module
# and run it, from wherever the caller stands. Everything the build
# leaves behind — the Go build cache, temporary files, the go command's
# own counter files (it keeps them in the user's config directory), the
# binary — goes under .bench_build at the root of the checkout, so a run
# reads and writes nothing outside it; the first build in a fresh
# checkout therefore compiles the standard library too. Arguments pass
# through (see README.md).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
cd "$root/bench"
go build -o "$build/bench" .
exec "$build/bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. Everything the build writes (Go's build cache included)
# stays under .bench_build/, everything a run writes under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# GOTMPDIR and XDG_CONFIG_HOME keep the toolchain's work directories and
# telemetry counters in the checkout too.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"

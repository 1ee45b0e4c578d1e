#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from the checkout root. Everything go writes (build cache, temp files,
# the binary) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/wgbenchmark" .)
cd "$root"
exec "$build/wgbenchmark" "$@"

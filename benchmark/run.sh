#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the runner with a Go build cache
# inside the checkout (so nothing is written outside it) and execs it; every
# argument is passed through. Developers can equally `go run -C benchmark . …`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# The module needs nothing from the network or from a module cache; pinning
# these keeps the toolchain from touching $HOME at all.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
go build -C "$here" -o "$build/bench-runner" .
cd "$root"
exec "$build/bench-runner" "$@"

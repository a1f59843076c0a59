#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, from the root of
# the checkout. The binary, Go's build cache and its temporary files all
# stay in .bench_build/ inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/aqe-bench" .
exec "$build/aqe-bench" "$@"

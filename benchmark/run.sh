#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. It builds the benchmark from the
# sources of the checkout it sits in and runs it with the arguments it
# was given. Everything the build writes (binary, Go build cache) stays
# under .bench_build in that checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"

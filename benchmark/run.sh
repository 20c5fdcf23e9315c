#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Everything the build writes (binary, Go build cache, the go
# command's telemetry counters, which follow XDG_CONFIG_HOME) stays under
# .bench_build/ in the checkout root; the driver itself writes only under
# benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ygm-benchmark" .)
cd "$root"
exec "$build/ygm-benchmark" "$@"

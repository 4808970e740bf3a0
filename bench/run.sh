#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark into
# .bench_build/ under the checkout root (binary, Go build cache and the
# runs' scratch files all stay inside the checkout) and runs it there.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"

#!/usr/bin/env bash
# run.sh — build the harness inside the checkout and run it.
#
# This is BENCHMARK.json's command. Everything the Go toolchain writes (the
# build cache and the binary) lands under .bench_build/ in the current
# directory, and the harness keeps its own scratch files there too, so a run
# touches nothing outside its checkout. Arguments pass through to the
# harness; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/smappic-benchmark" .)
exec "$out/smappic-benchmark" "$@"

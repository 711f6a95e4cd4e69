#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout it is started from, then runs it with the caller's arguments.
# The Go build cache and temp files stay inside that directory, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bench" ./cmd/bench)
exec "$out/bench" "$@"

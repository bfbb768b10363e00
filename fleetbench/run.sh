#!/usr/bin/env bash
# Builds the fleet benchmark from the checkout's sources and runs it with
# the given arguments (see fleetbench/README.md). Every build artifact,
# including the Go build cache, stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
cd "$root"
exec "$out/fleetbench" "$@"

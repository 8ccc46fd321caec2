#!/usr/bin/env bash
# Builds the wadcbench command from source and runs it with the given
# arguments, e.g.
#
#   bash wadcbench/run.sh --workload paper-sweep --seed 1 --seconds 35 --trace 0
#
# Run it from the root of a checkout of the module. Everything the build
# writes (Go build cache, temporary files, the binary) and the traced run's
# spans and CPU profiles stay in .bench_build/ at the root. The module has no
# dependencies, so the build needs no network.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
  echo "wadcbench/run.sh: no go.mod in $(pwd); run it from a checkout of the module" >&2
  exit 1
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/wadcbench" ./wadcbench
exec "$out/wadcbench" "$@"

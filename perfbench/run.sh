#!/usr/bin/env bash
# Builds the benchmark harness and the wheelsd daemon from the source tree
# this script sits in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload route|crowd|service --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/wheelsd" ]; then
  echo "perfbench: run from the cellwheels repository root (no go.mod or cmd/wheelsd here)" >&2
  exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go build -o "$build/bin/wheelsd" ./cmd/wheelsd
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -wheelsd "$build/bin/wheelsd" "$@"

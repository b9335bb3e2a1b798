#!/usr/bin/env bash
# Builds cmd/topoestd and the perfbench harness from the checkout this
# script lives in, then runs the harness:
#
#   bash perfbench/run.sh --workload star-bin-wide --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, daemon logs, checkpoints and traces
# all stay under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/topoestd || ! -d internal ]]; then
	echo "perfbench: $root is not a checkout of the repository (no go.mod, cmd/topoestd or internal/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -o "$out/topoestd" ./cmd/topoestd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/topoestd" -workdir "$out" "$@"

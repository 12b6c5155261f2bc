#!/usr/bin/env bash
# Builds relperfd and the benchmark from this checkout, then runs one
# benchmark invocation from the checkout root:
#
#   bash perfbench/run.sh --workload warm-read --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file lands under .bench_build/ in
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/relperfd" ./cmd/relperfd
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -relperfd "$out/bin/relperfd" -workdir "$out/work" "$@"

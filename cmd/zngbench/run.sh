#!/usr/bin/env bash
# Builds zngbench and the zngd daemon from the checkout's sources, then
# runs the benchmark with this script's arguments, for example
#
#   bash cmd/zngbench/run.sh --workload zng-read --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Builds, the Go build cache and every
# run file stay under .bench_build/ there; nothing is downloaded.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp" "$out/work" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$here" && go build -o "$out/bin/zngbench" . && go build -o "$out/bin/zngd" zng/cmd/zngd)
cd "$root"
exec "$out/bin/zngbench" -zngd "$out/bin/zngd" -work "$out/work" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload venue --seed 1 --seconds 25 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout
# (or $CARGO_TARGET_DIR when set): the Go build cache, the module cache
# and the binary. The build never touches the network.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTELEMETRY=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in and
# runs it. Start it from the root of the checkout:
#
#	bash perfbench/run.sh --workload multisite-read-16isl --seed 42 --seconds 20 --trace 0
#	bash perfbench/run.sh --workload all
#	bash perfbench/run.sh compare OLD.json NEW.json
#
# Every build and run output stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"

#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments. Run it from the repository root:
#
#   sh perfbench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
#
# The build and every file it leaves behind (Go build cache, binary) go
# under .bench_build in the current directory; nothing else is written.
set -eu
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

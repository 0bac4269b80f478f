#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from the
# root of a checkout, for example:
#
#	bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (build cache, binary,
# profiles) goes to .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"

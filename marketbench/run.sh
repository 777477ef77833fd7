#!/usr/bin/env bash
# Builds the market benchmark from the checkout it is run in and runs it.
# Run from the root of the checkout; every argument passes through:
#
#   bash marketbench/run.sh --workload join-build --seed 1 --seconds 33 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL files,
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/marketbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOENV=off

(cd "$here" && go build -o "$out/marketbench" .)
exec "$out/marketbench" --out "$out" "$@"

#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository
# root, with benchrun's arguments:
#
#   bash cmd/benchrun/run.sh --workload protect --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the go command's configuration and telemetry
# (under XDG_CONFIG_HOME), temporary files and the binary live under
# .bench_build, so building and running write only inside the checkout.
# A failed build exits non-zero without printing a result.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd cmd/benchrun && go build -o "$out/benchrun" .)
exec "$out/benchrun" "$@"

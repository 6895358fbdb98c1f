#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build and the run write stays under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
# The go command's config dir is moved into the checkout, so it is fresh in
# every checkout; with telemetry in its default mode the go command would
# then start a detached telemetry child that outlives a failed build. The
# mode file turns telemetry off before go ever runs: no child, no counters.
mkdir -p "$out/config/go/telemetry" "$out/gotmp"
echo off >"$out/config/go/telemetry/mode"
GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config" \
	go build -o "$out/benchmark" ./benchmark >&2
exec "$out/benchmark" "$@"

#!/usr/bin/env bash
# The benchmark's one command, run from the root of a checkout:
#
#   bash bench/run.sh --workload read-point --seed 1 --seconds 24 --trace 0
#
# Builds replbench from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and runs it with
# the arguments given.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOENV=off
export XDG_CONFIG_HOME="$build/config" # Go telemetry counters go here, not to $HOME
go build -C "$root/bench" -o "$build/replbench" ./replbench
exec "$build/replbench" "$@"

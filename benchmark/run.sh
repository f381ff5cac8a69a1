#!/usr/bin/env bash
# The one command of BENCHMARK.json: builds cscwload (module repro/benchmark,
# benchmark/go.mod) against this checkout and runs it with the driver's
# arguments (--workload --seed --seconds --trace). Everything Go writes — build
# cache, module cache, its config — is kept under .bench_build in the checkout,
# so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/sessiond ]; then
	echo "run.sh: $PWD does not hold the program (go.mod, cmd/sessiond)" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off # never fetch anything
# With a fresh config directory the go command detaches a telemetry child
# (parent pid 1) that outlives it by about a second; mode "off" stops that, so
# no process of a run survives the run.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -C benchmark -o "$build/cscwload" ./cmd/cscwload
exec "$build/cscwload" -build "$build" "$@"

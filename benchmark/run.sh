#!/bin/bash
# The command BENCHMARK.json names: builds the benchmark from source into
# .bench_build/ at the root of the checkout — compiler cache and scratch
# files too, so nothing is written outside the checkout — and runs it
# with the arguments given. It must be started from that root.
set -eu
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/benchmark" .
cd "$root/benchmark"
exec "$build/benchmark" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is BENCHMARK.json's command; run it from the root of a checkout:
#
#   bash bench/run.sh --workload incastmix_fg --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1            # the whole ledger
#
# Everything the build writes — compiler cache, temporary files, the
# binary — stays under .bench_build in the checkout, and nothing is
# fetched: the module's only dependency is the repository around it.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C "$here" -o "$build/floodbench" .
exec "$build/floodbench" "$@"

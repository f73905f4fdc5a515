#!/usr/bin/env bash
# Builds plumebench from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash plumebench/run.sh --workload plume_particles --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, module cache, temporary files, telemetry) stays under
# .bench_build/; the benchmark's own records go to .bench_out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	CGO_ENABLED=0 GOFLAGS= GOWORK=off
go -C "$here" build -o "$build/plumebench" . >&2
exec "$build/plumebench" "$@"

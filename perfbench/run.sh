#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments, from the root of a checkout of this repository:
#
#   bash perfbench/run.sh --workload pairs-8b --seed 1 --seconds 20 --trace 0
#
# The build cache and the binary live under .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"

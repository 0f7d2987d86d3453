#!/usr/bin/env bash
# Builds servebench from this checkout and runs it with the given
# arguments, e.g.
#
#   bash servebench/run.sh --workload hot_reads --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and the traced runs' span files and
# CPU profiles all stay in .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOTELEMETRY=off

(cd "$root/servebench" && go build -o "$build/bin/servebench" .)
cd "$root"
exec "$build/bin/servebench" "$@"

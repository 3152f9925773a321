#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run it from the
# repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload whole-plain --seed 7 --seconds 15 --trace 0
#
# The Go build and module caches, the binary, span files and scratch
# journals all stay under .bench_build/ in the working directory.
set -euo pipefail

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

# The benchmark module replaces the fliptracker module with its parent
# directory, so the build fails (and no result is printed) when the
# repository sources are not there.
(cd "$(dirname "$0")" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"

#!/usr/bin/env bash
# Builds the cyclebench binary from source and runs it with the given
# arguments from the repository root, e.g.
#
#   bash cyclebench/run.sh --workload twin-default --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, covstore scratch, traced-run spans) stays under
# .bench_build/ in the checkout. The first run builds the standard
# library into that cache and takes about half a minute longer.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
(cd "$root/cyclebench" && go build -o "$out/cyclebench" .)
cd "$root"
exec "$out/cyclebench" "$@"

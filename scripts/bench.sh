#!/bin/sh
# bench.sh — the allocation-regression gate. Runs every benchmark once
# with -benchmem and feeds the stream to cmd/benchgate, which compares
# allocs/op against the committed BENCH_10.json baseline (15% relative
# tolerance plus a small absolute slack for GOMAXPROCS-dependent worker
# spawns; ns/op is recorded but never gated by default — wall time on
# shared runners is noise, allocation counts are not).
#
#   scripts/bench.sh              gate allocs against BENCH_10.json
#   scripts/bench.sh -update      rewrite BENCH_10.json from this run
#   scripts/bench.sh -time-gate   opt-in wall-time gate over the whole
#                                 suite: runs -count=3 so benchgate can
#                                 widen its tolerance to this machine's
#                                 own repetition spread
#   scripts/bench.sh -time-linalg wall-time gate over the curated
#                                 stable linalg kernels and the ESSE
#                                 assimilation update only — the
#                                 compute-bound benchmarks whose ns/op
#                                 is reproducible enough to gate in CI
#                                 (the full suite stays allocation-only;
#                                 see DESIGN §7)
set -eu

cd "$(dirname "$0")/.."

# The curated subset for -time-linalg: single-package, compute-bound,
# no scheduler or I/O in the timed loop.
linalg_stable='^(MulSmall|MulLargeParallel|LUSolve64|QR64|SVDEnsembleShape|SymEig32|AssimilateObsDense)$'

mode="${1:-}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

count=1
bench_pkgs=./...
case "$mode" in
-time-gate)
    count=3
    ;;
-time-linalg)
    count=3
    bench_pkgs='./internal/linalg/ ./internal/core/'
    ;;
esac

# One go test per package pattern: a single multi-package invocation
# compiles the next test binary while the previous one's benchmarks run,
# which skews the timed ones on a small machine.
for pkg in $bench_pkgs; do
    echo "==> go test -bench=. -benchtime=1x -benchmem -count=$count $pkg"
    go test -run='^$' -bench=. -benchtime=1x -benchmem -count="$count" "$pkg"
done | tee "$tmp"

case "$mode" in
-update)
    go run ./cmd/benchgate -baseline BENCH_10.json -update <"$tmp"
    ;;
-time-gate)
    go run ./cmd/benchgate -baseline BENCH_10.json -out bench-observed.json -time-gate <"$tmp"
    ;;
-time-linalg)
    go run ./cmd/benchgate -baseline BENCH_10.json -out bench-time-linalg.json \
        -time-gate -match "$linalg_stable" <"$tmp"
    ;;
*)
    go run ./cmd/benchgate -baseline BENCH_10.json -out bench-observed.json <"$tmp"
    ;;
esac

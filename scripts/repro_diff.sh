#!/bin/sh
# repro_diff.sh — reproducibility gate: two runs of the full paper
# reproduction with the same seed must print byte-identical output,
# apart from the three Fig. 3/4 wall-clock lines (serial time, parallel
# time, speedup). Any other difference means a result depends on
# goroutine timing.
#
#   ./scripts/repro_diff.sh [seed]    (default seed 1)
set -eu

cd "$(dirname "$0")/.."

seed="${1:-1}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for run in 1 2; do
	go run ./cmd/repro -seed "$seed" >"$tmp/raw$run.txt"
	grep -v -e 'serial (Fig 3)' -e 'parallel (Fig 4)' -e 'speedup' "$tmp/raw$run.txt" >"$tmp/run$run.txt"
done
diff "$tmp/run1.txt" "$tmp/run2.txt"
echo "repro_diff: seed $seed reproduces byte-for-byte ($(wc -l <"$tmp/run1.txt") lines compared)"

#!/usr/bin/env bash
# A-A check: two back-to-back sets of runs of the same commit, then the
# comparison. Usage, from the root of the checkout:
#   bash benchmark/aa.sh [runs-per-set] [out-dir]
# Set A uses seeds 1..N, set B seeds N+1..2N, so the comparison also shows
# how much the seed moves each metric.
set -euo pipefail
n="${1:-10}"
dir="${2:-.bench_build/aa}"
mkdir -p "$dir"
rm -f "$dir/a.jsonl" "$dir/b.jsonl"
for set in a b; do
	for w in cold_1m warm_scan_1m warm_search_fig6 daemon_mixed; do
		for i in $(seq 1 "$n"); do
			seed=$i
			[ "$set" = b ] && seed=$((i + n))
			bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 20 --trace 0 --out "$dir/$set.jsonl" | tail -n 1 >/dev/null
			echo "$set $w seed $seed done" >&2
		done
	done
done
.bench_build/benchmark -compare "$dir/a.jsonl" "$dir/b.jsonl" | tee "$dir/compare.txt"

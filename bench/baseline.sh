#!/usr/bin/env bash
# Records the benchmark's baseline at the checked-out commit: two
# independent sets of untraced runs of every workload at seed 1, then one
# traced run of each, summarised (median and quartiles per metric, how
# far the two sets' medians lie apart, the per-layer values) into
# bench/baseline/seed1.json.
#
#   bash bench/baseline.sh [runs-per-set]    # default 5 runs per set
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
runs="${1:-5}"
work="$root/.bench_build/baseline"
rm -rf "$work"
mkdir -p "$work" "$root/bench/baseline"
workloads=(ci-5k-mem ci-5k-durable ci-100k-mem async-reads)

for set in 1 2; do
  for _ in $(seq "$runs"); do
    for w in "${workloads[@]}"; do
      bash "$root/bench/run.sh" --workload "$w" --seed 1 --trace 0 -record "$work/set$set.jsonl" > /dev/null
    done
  done
done
for w in "${workloads[@]}"; do
  bash "$root/bench/run.sh" --workload "$w" --seed 1 --trace 1 -record "$work/traced.jsonl" > "$work/traced-$w.txt"
done
"$root/.bench_build/cibench" -summarize "$root/bench/baseline/seed1.json" \
  "$work/set1.jsonl" "$work/set2.jsonl" "$work/traced.jsonl"

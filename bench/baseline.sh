#!/usr/bin/env bash
# Records a baseline of the current tree: for every workload declared
# in BENCHMARK.json, two interleaved sets of untraced runs (A and B,
# seeds 1..N, alternating which set runs first) plus one traced run,
# then compares B against A and writes the report with every run record:
#
#   bash bench/baseline.sh bench/results/baseline-seed1.json [N=10]
#
# Two sets of one commit must agree: any "regressed" or "improved"
# verdict means the bench is noisier than its bounds.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
n="${2:-10}"
# run.sh works from the checkout root, so the run directories are named
# relative to it and the report records no absolute path.
runs=".bench_build/baseline"
cd "$root"
rm -rf "$runs"
mkdir -p "$runs/A" "$runs/B"
workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$root/BENCHMARK.json")

for seed in $(seq 1 "$n"); do
	for w in $workloads; do
		sides="A B"
		if ((seed % 2 == 0)); then sides="B A"; fi
		for side in $sides; do
			bash "$root/bench/run.sh" --workload "$w" --seed "$seed" --trace 0 --out "$runs/$side" >/dev/null
		done
	done
done
for w in $workloads; do
	bash "$root/bench/run.sh" --workload "$w" --seed 1 --trace 1 --out "$runs/A" >/dev/null
done
bash "$root/bench/run.sh" -compare -out "$out" "$runs/A" "$runs/B"

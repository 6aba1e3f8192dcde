#!/usr/bin/env bash
# Compare the working tree against a base revision on one perf-lab
# workload, in alternating pairs — the procedure every wall-clock claim
# in ROADMAP.md was measured by, since this host's clock drifts 10-20%
# over minutes and only neighboring runs are comparable.
#
#   scripts/perfpairs.sh BASE WORKLOAD [N=10] [SEED=9]
#   make perf-pairs BASE=HEAD~1 WORKLOAD=bfs2d-topdown
#
# BASE is exported with `git archive` into .bench_build/base-<rev>/ (once
# per revision; nothing is registered in .git), each side builds its own
# bench binary through its own bench/run.sh, and every run is the
# driver's: --seconds 16 --trace 0. Odd pairs run the base first, even
# pairs the working tree. The result lines land in
# .bench_build/pairs/WORKLOAD/{base,head}.<i>.json and scripts/perfpairs
# prints, per end-to-end metric of BENCHMARK.json, each side's median and
# quartiles, the pairs the working tree won, and whether the medians
# differ by more than the distance between the base's quartiles.
set -euo pipefail
base=${1:?usage: perfpairs.sh BASE WORKLOAD [N] [SEED]}
workload=${2:?usage: perfpairs.sh BASE WORKLOAD [N] [SEED]}
n=${3:-10}
seed=${4:-9}

root="$(cd "$(dirname "$0")/.." && pwd)"
rev="$(git -C "$root" rev-parse --verify "$base^{commit}")"
tree="$root/.bench_build/base-${rev:0:12}"
if [ ! -d "$tree" ]; then
	mkdir -p "$tree.tmp"
	git -C "$root" archive "$rev" | tar -x -C "$tree.tmp"
	mv "$tree.tmp" "$tree"
fi
out="$root/.bench_build/pairs/$workload"
rm -rf "$out"
mkdir -p "$out"

run() { # side, checkout, pair
	bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 16 --trace 0 |
		tail -n 1 >"$out/$1.$3.json"
}
for i in $(seq 1 "$n"); do
	if ((i % 2)); then
		run base "$tree" "$i"
		run head "$root" "$i"
	else
		run head "$root" "$i"
		run base "$tree" "$i"
	fi
	echo "perf-pairs: $workload pair $i of $n" >&2
done
cd "$root"
go run ./scripts/perfpairs -base "$base" "$out"

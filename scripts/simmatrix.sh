#!/usr/bin/env bash
# The simulated-drift check for a refactor that must not move a number:
# run one `bfsrun -json` configuration matrix on a base revision and on
# the working tree and compare the outputs byte for byte, wall time
# aside. The cost model is deterministic, so any difference — a word, a
# duplicate, the last bit of a simulated clock — is a behaviour change.
#
#   scripts/simmatrix.sh BASE
#   make sim-matrix BASE=HEAD~1
#
# BASE is exported with `git archive` into .bench_build/base-<rev>/ (the
# export perfpairs.sh makes; once per revision, nothing registered in
# .git) and each side builds its own bfsrun. The matrix crosses every
# family (BFS, bi-directional, multi-source, Δ-stepping) with the
# partitionings, wire codecs, schedules, fold and expand collectives,
# direction policies, the sent cache, a canned fault plan and the
# pool/cores knobs at n = 12000: 232 configurations, about ten seconds
# a side. The first differing configuration is printed as a runnable
# bfsrun line.
set -euo pipefail
base=${1:?usage: simmatrix.sh BASE}

root="$(cd "$(dirname "$0")/.." && pwd)"
rev="$(git -C "$root" rev-parse --verify "$base^{commit}")"
tree="$root/.bench_build/base-${rev:0:12}"
if [ ! -d "$tree" ]; then
	mkdir -p "$tree.tmp"
	git -C "$root" archive "$rev" | tar -x -C "$tree.tmp"
	mv "$tree.tmp" "$tree"
fi
out="$root/.bench_build/simmatrix"
rm -rf "$out"
mkdir -p "$out"
(cd "$tree" && go build -o "$out/bfsrun.base" ./cmd/bfsrun)
(cd "$root" && go build -o "$out/bfsrun.head" ./cmd/bfsrun)

# One configuration per line: the flags after the common ones.
matrix() {
	local part wire async dir fold expand extra
	for part in 2d 1drow 1dcol; do
		for async in true false; do
			for wire in sparse dense auto hybrid; do
				for dir in topdown dirop; do
					echo "-part $part -wire $wire -async=$async -direction $dir"
				done
				echo "-algo sssp -part $part -wire $wire -async=$async -delta 25"
				echo "-sources 3,99,1024,2047,11600 -part $part -wire $wire -async=$async"
			done
			for wire in sparse hybrid; do
				echo "-part $part -wire $wire -async=$async -direction bottomup"
			done
			for dir in topdown dirop; do
				echo "-part $part -async=$async -direction $dir -bidir -target 7500"
			done
			echo "-part $part -async=$async -sentcache=false"
			echo "-part $part -async=$async -target 7500"
			echo "-part $part -async=$async -chunk 8 -wire auto"
			echo "-part $part -async=$async -fault canned -direction dirop -wire hybrid"
			echo "-algo sssp -part $part -async=$async -fault canned -wire hybrid"
			echo "-sources 3,99,1024 -part $part -async=$async -fault canned:5"
			for extra in "-cores 2" "-workers 4"; do
				echo "-part $part -async=$async $extra -direction dirop"
				echo "-algo sssp -part $part -async=$async $extra"
				echo "-sources 3,99,1024,2047 -part $part -async=$async $extra"
			done
			for fold in twophase direct nounion; do
				echo "-part $part -async=$async -fold $fold -wire auto"
			done
		done
	done
	for async in true false; do
		for fold in twophase direct nounion; do
			for expand in allgather twophase; do
				echo "-part 2d -async=$async -fold $fold -expand $expand -wire hybrid"
			done
		done
		for extra in "-delta auto" "-delta inf" "-delta 1 -wdist unit" "-wdist exp -maxw 64"; do
			echo "-algo sssp -part 2d -async=$async $extra"
		done
		echo "-part 2d -async=$async -rowmajor -cluster -shuffle"
	done
}

common="-n 12000 -k 8 -seed 7 -r 2 -c 3 -json"
n=0
while read -r cfg; do
	n=$((n + 1))
	for side in base head; do
		# shellcheck disable=SC2086
		if ! "$out/bfsrun.$side" $common $cfg >"$out/$side.raw" 2>"$out/$side.err"; then
			echo "sim-matrix: $side failed on: go run ./cmd/bfsrun $common $cfg" >&2
			cat "$out/$side.err" >&2
			exit 1
		fi
		# Wall is the host's time, the only field allowed to differ.
		grep -v '"Wall":' "$out/$side.raw" >"$out/$side.json"
	done
	if ! cmp -s "$out/base.json" "$out/head.json"; then
		echo "sim-matrix: configuration $n differs from $base:" >&2
		echo "  go run ./cmd/bfsrun $common $cfg" >&2
		diff "$out/base.json" "$out/head.json" | head -n 20 >&2 || true
		exit 1
	fi
done < <(matrix)
echo "sim-matrix: $n configurations byte-identical to $base (Wall aside)"

#!/usr/bin/env bash
# Paired benchmark runs of two revisions: the repo benchmark (benchmark/run.sh,
# unchanged) is run N times per workload and seed on each side, alternating
# which side goes first, and for every end-to-end metric of BENCHMARK.json the
# report gives each side's median [q1, q3] and the pairs the new side won.
#
#   tools/benchpair.sh [-n pairs] [-w workload,...] [-seed seed,...] BASE NEW
#   make bench-pair BASE=HEAD~1 NEW=HEAD PAIRS=10 WORKLOADS=exact-ssb SEEDS=1,7
#
# BASE and NEW are git revisions; `git stash create` names the uncommitted
# tracked changes as one. Each side is built from `git archive` (no .git, so
# no VCS build stamp shifts the data layout) into a temporary directory that
# is removed on exit. Every run lasts BENCHMARK.json's run_seconds. Defaults:
# 10 pairs, every workload, seed 1.
#
# A line ends in "claim" when the new side meets the gain rule: it is better
# in at least 9 of every 10 pairs, and its median is better than the base
# median by more than the base's q3 − q1.
set -euo pipefail

pairs=10 workloads="" seeds=1
while [[ $# -gt 0 ]]; do
	case "$1" in
	-n) pairs=$2; shift 2 ;;
	-w) workloads=$2; shift 2 ;;
	-seed) seeds=$2; shift 2 ;;
	-h | --help) sed -n '2,18p' "$0"; exit 0 ;;
	-*) echo "benchpair: unknown flag $1" >&2; exit 2 ;;
	*) break ;;
	esac
done
if [[ $# -ne 2 ]]; then
	echo "usage: tools/benchpair.sh [-n pairs] [-w workload,...] [-seed seed,...] BASE NEW" >&2
	exit 2
fi
root="$(git rev-parse --show-toplevel)"
base=$(git -C "$root" rev-parse --verify "$1^{commit}")
new=$(git -C "$root" rev-parse --verify "$2^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for side in base new; do
	mkdir -p "$tmp/$side"
	git -C "$root" archive "${!side}" | tar x -C "$tmp/$side"
done
spec="$tmp/base/BENCHMARK.json"

# The end-to-end metrics as "name better" lines, and the workload names.
metrics=$(awk '
	/"end_to_end"/ { e2e = 1 } /"per_layer"/ { e2e = 0 }
	e2e && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	e2e && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' "$spec")
if [[ -z $workloads ]]; then
	workloads=$(awk '/"workloads"/ { w = 1 } /"end_to_end"/ { w = 0 }
		w && /"name"/ { gsub(/[",]/, "", $2); printf "%s%s", sep, $2; sep = "," }' "$spec")
fi

# run SIDE WORKLOAD SEED appends the run's metrics to $tmp/SIDE.WORKLOAD.SEED
# as "metric value" lines; a failed run, or an end-to-end metric missing from
# its output line, stops the script.
run() {
	local out
	out=$(cd "$tmp/$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --trace 0 2>"$tmp/$1.log" | tail -n 1) || {
		echo "benchpair: $1 ($2, seed $3) failed:" >&2
		tail -n 20 "$tmp/$1.log" >&2
		exit 1
	}
	local m v
	while read -r m _; do
		v=$(grep -oE "\"$m\":\{\"value\":[^,}]+" <<<"$out" | sed 's/.*://') || true
		if [[ -z $v ]]; then
			echo "benchpair: $1 ($2, seed $3): metric $m missing from the output line" >&2
			exit 1
		fi
		printf '%s %s\n' "$m" "$v"
	done <<<"$metrics" >>"$tmp/$1.$2.$3"
}

printf 'base %s\nnew  %s\n%d pairs per line, alternating order; median [q1, q3]\n\n' "$base" "$new" "$pairs"
printf '%-16s %-5s %-13s %-30s %-30s %s\n' workload seed metric base new won
for w in ${workloads//,/ }; do
	for s in ${seeds//,/ }; do
		for ((i = 0; i < pairs; i++)); do
			if ((i % 2 == 0)); then run base "$w" "$s"; run new "$w" "$s"; else run new "$w" "$s"; run base "$w" "$s"; fi
		done
		while read -r m better; do
			awk -v m="$m" -v better="$better" -v w="$w" -v s="$s" '
				function sort(a, n,    i, j, t) {
					for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
				}
				function q(a, n, p,    h, f) { h = 1 + (n - 1) * p; f = int(h); return f >= n ? a[n] : a[f] + (h - f) * (a[f+1] - a[f]) }
				FILENAME ~ /\/base\./ && $1 == m { b[++nb] = $2 }
				FILENAME ~ /\/new\./ && $1 == m { n[++nn] = $2 }
				END {
					for (i = 1; i <= nb; i++) {
						won += better == "lower" ? n[i] < b[i] : n[i] > b[i]
						bs[i] = b[i]; ns[i] = n[i]
					}
					sort(bs, nb); sort(ns, nn)
					bm = q(bs, nb, .5); nm = q(ns, nn, .5); iqr = q(bs, nb, .75) - q(bs, nb, .25)
					gap = better == "lower" ? bm - nm : nm - bm
					printf "%-16s %-5s %-13s %-30s %-30s %d/%d%s\n", w, s, m,
						sprintf("%.4g [%.4g, %.4g]", bm, q(bs, nb, .25), q(bs, nb, .75)),
						sprintf("%.4g [%.4g, %.4g]", nm, q(ns, nn, .25), q(ns, nn, .75)),
						won, nb, (10 * won >= 9 * nb && gap > iqr) ? "  claim" : ""
				}' "$tmp/base.$w.$s" "$tmp/new.$w.$s"
		done <<<"$metrics"
	done
done

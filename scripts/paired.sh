#!/usr/bin/env bash
# Paired benchmark runs: this checkout's working tree (the change) against
# its parent — HEAD when the tree changes a Go build input (a .go file,
# go.mod or go.sum, tracked or not), else HEAD~1 —
# alternated, beside a control arm — the parent again, relinked with a
# random function layout (-randlayout=1) — that shows how far two builds
# of the same source drift apart on this host. A gain the control arm
# shows too is layout noise, not the change.
#
#	scripts/paired.sh [-n PAIRS] [-s SEED] [-w WORKLOAD]... OUT.json
#
#	-n  pairs (default 10); each pair runs parent, change and control once
#	    per workload for bench's 10 s, the three in an order that rotates
#	    from pair to pair
#	-s  the input generator's seed, passed to every run as bench's -seed
#	    (default bench's own, 42); a claim should also hold at a seed
#	    the change was not written against
#	-w  a workload to run (repeatable; default every one in BENCHMARK.json)
#
# It prints `go -C bench run . -compare` for change against parent and
# for control against parent, and writes OUT.json: per workload, each
# arm's runs, attempted and failed operations and whether every run was
# correct; per workload and end-to-end metric, each arm's quartiles, the
# change/parent and control/parent median ratios, and in how many pairs
# the change beat the parent. Every time bench reports is scaled to a
# nominal host by the run's host_slowdown note; the raw ratios undo that
# scaling, run by run, so an arm whose host drifted shows up as a scaled
# ratio the raw one does not share. Both are printed at the end. Nothing
# under bench/ is modified: the arms
# are built from it into a scratch directory and run from their own
# trees. Needs git, go (1.24 or later for -randlayout) and jq.
set -euo pipefail

pairs=10
seed=()
workloads=()
while getopts n:s:w: opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	s) seed=(-seed "$OPTARG") ;;
	w) workloads+=("$OPTARG") ;;
	*) sed -n '10,18p' "$0"; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
[ $# -eq 1 ] || { sed -n '10,18p' "$0"; exit 2; }
out=$1
command -v jq >/dev/null || { echo "paired: needs jq" >&2; exit 2; }

root=$(cd "$(dirname "$0")/.." && pwd)
case $out in /*) ;; *) out=$PWD/$out ;; esac
# Only what the arms are built from decides: an uncommitted doc edit on top
# of a committed change must not make the change its own parent.
inputs=('*.go' go.mod go.sum bench/go.mod bench/go.sum)
if git -C "$root" diff --quiet HEAD -- "${inputs[@]}" &&
	[ -z "$(git -C "$root" ls-files --others --exclude-standard -- "${inputs[@]}")" ]; then
	base=HEAD~1 rule="the Go build inputs are committed"
else
	base=HEAD rule="the working tree changes Go build inputs"
fi
echo "paired: parent $base ($(git -C "$root" rev-parse --short "$base")): $rule"
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(jq -r '.workloads[].name' "$root/BENCHMARK.json")
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/paired.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base" "$work/out/base" "$work/out/change" "$work/out/control"
git -C "$root" archive "$(git -C "$root" rev-parse "$base")" | tar -x -C "$work/base"

echo "paired: building base ($base), change (working tree) and control (base, -randlayout=1)"
go -C "$work/base/bench" build -o "$work/base.bin" .
go -C "$root/bench" build -o "$work/change.bin" .
go -C "$work/base/bench" build -ldflags=-randlayout=1 -o "$work/control.bin" .

tree() { if [ "$1" = change ]; then echo "$root/bench"; else echo "$work/base/bench"; fi; }
arms=(base change control)
for ((p = 0; p < pairs; p++)); do
	for w in "${workloads[@]}"; do
		for ((k = 0; k < 3; k++)); do
			arm=${arms[(p + k) % 3]}
			echo "paired: pair $((p + 1))/$pairs $w $arm"
			(cd "$(tree "$arm")" && "$work/$arm.bin" -workload "$w" "${seed[@]}" -out "$work/out/$arm") |
				grep -E '^==|^  (goodput_ops_s|event_mid_us|cpu_us_per_op) ' || true
		done
	done
done

for arm in change control; do
	echo
	echo "paired: $arm against base"
	"$work/change.bin" -compare "$work/out/base/results.json" "$work/out/$arm/results.json" || true
done

# Quartiles as bench/stats.go computes them: 1-based position k(n+1)/4,
# linear between neighbours, clamped to the ends.
jq -n --slurpfile base "$work/out/base/results.json" --slurpfile change "$work/out/change/results.json" \
	--slurpfile control "$work/out/control/results.json" --slurpfile manifest "$root/BENCHMARK.json" \
	--arg rev "$(git -C "$root" rev-parse --short "$base")" --argjson pairs "$pairs" '
	def at($s; $k): ($k * (($s | length) + 1) / 4) as $pos | ($pos | floor) as $j |
		if $j < 1 then $s[0] elif $j >= ($s | length) then $s[-1]
		else $s[$j - 1] + ($pos - $j) * ($s[$j] - $s[$j - 1]) end;
	def quartiles: sort as $s | {n: length, q1: at($s; 1), median: at($s; 2), q3: at($s; 3)};
	def runs($doc; $w): [$doc[0].runs[] | select(.workload == $w and (.traced | not))];
	def values($doc; $w; $m): [runs($doc; $w)[] | .metrics[$m].value | select(. != null)];
	# bench multiplies a rate by host_slowdown and divides a time by it.
	def raw($doc; $w; $d): [runs($doc; $w)[] | (.notes.host_slowdown // 1) as $slow | .metrics[$d.name].value |
		select(. != null) | if $d.unit == "1/s" then . / $slow elif $d.unit == "s" or $d.unit == "us" then . * $slow else . end];
	def ratio($c; $b): if ($c | length) > 0 then ($c | quartiles.median) / ($b | quartiles.median) else null end;
	def ops($doc; $w): runs($doc; $w) |
		{runs: length, attempted: (map(.attempted) | add), failed: (map(.failed) | add), correct: all(.correct)};
	{
		base: $rev, pairs: $pairs, seed: $change[0].runs[0].seed, seconds: 10, control_randlayout: 1, host: $change[0].host,
		workloads: ([$change[0].runs[] | select(.traced | not) | .workload] | unique | map(. as $w | {key: $w, value: {
			ops: {base: ops($base; $w), change: ops($change; $w), control: ops($control; $w)},
			metrics: ($manifest[0].end_to_end | map(. as $d |
				values($base; $w; $d.name) as $b | values($change; $w; $d.name) as $c | values($control; $w; $d.name) as $k |
				select(($b | length) > 0 and ($c | length) > 0) |
				{key: $d.name, value: {
					unit: $d.unit, better: $d.better,
					base: ($b | quartiles), change: ($c | quartiles), control: ($k | quartiles),
					change_ratio: ratio($c; $b), control_ratio: ratio($k; $b),
					raw_change_ratio: ratio(raw($change; $w; $d); raw($base; $w; $d)),
					raw_control_ratio: ratio(raw($control; $w; $d); raw($base; $w; $d)),
					change_better_pairs: ([range([$b, $c] | map(length) | min) as $i |
						select(if $d.better == "higher" then $c[$i] > $b[$i] else $c[$i] < $b[$i] end)] | length)
				}}) | from_entries)}}) | from_entries)
	}' >"$out"
echo
echo "paired: median ratios against base, scaled to the nominal host (raw)"
jq -r '.workloads | to_entries[] | .key as $w | .value.metrics | to_entries[] |
	def x: if . == null then "-" else "×\(. * 1000 | round / 1000)" end;
	"\($w) \(.key): change \(.value.change_ratio | x) (\(.value.raw_change_ratio | x)), control \(.value.control_ratio | x) (\(.value.raw_control_ratio | x))"' "$out"
echo
echo "paired: wrote $out"

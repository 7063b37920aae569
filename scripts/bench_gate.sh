#!/usr/bin/env sh
# Benchmark regression gate: run the benchmarks that pin the hot paths
# (the simulator loop, the sharded engine pipeline, and Framework.Store,
# the codec hot path under every write), summarize over -count runs
# (minimum ns/op — scheduler noise only ever
# adds time, so min-of-N is the robust estimator on busy machines;
# average allocs/op — those are deterministic), and fail if either
# regresses against the committed baseline (scripts/bench_baseline.txt):
#
#   - time/op   more than BENCH_GATE_TIME_TOL percent slower (default 10)
#   - allocs/op more than BENCH_GATE_ALLOC_TOL percent higher (default
#     0.2, plus a 0.5-alloc absolute epsilon). Alloc counts are nearly
#     deterministic — the epsilon only absorbs iteration-count jitter
#     in benches whose per-op figure amortizes setup; a real leak adds
#     at least one alloc per op, orders of magnitude above it.
#   - time/op more than BENCH_GATE_IMPROVE_TOL percent FASTER (default
#     25). An unexpected improvement is either a real win that belongs
#     in the baseline (re-pin it so the gate keeps guarding the new
#     level instead of tolerating a slide back to the old one) or a
#     broken benchmark that stopped measuring the work. Either way the
#     gate should not wave it through silently.
#
# Also writes BENCH_24.json (name, ns/op, allocs/op per benchmark) — on a
# re-pin too, so the copy committed at the repo root is the summary of the
# committed baseline; a PR that re-pins moves the default to BENCH_<pr>.json
# and leaves its predecessors in place, so the tree holds the trajectory —
# and prints a benchstat comparison when benchstat is on PATH (report only —
# the gate itself needs nothing beyond awk).
#
# Refresh the baseline (deliberately, on the machine the gate will run
# on — time/op does not transfer between machines):
#
#	UPDATE=1 ./scripts/bench_gate.sh    # or: make bench-pin
#
# allocs/op transfers fine; when gating on a different machine than the
# baseline's, raise BENCH_GATE_TIME_TOL rather than trusting raw ns.
set -eu

# awk parses and compares floats; pin the decimal separator.
LC_ALL=C
export LC_ALL

cd "$(dirname "$0")/.."

baseline=scripts/bench_baseline.txt
json="${BENCH_JSON:-BENCH_24.json}"
count="${BENCH_COUNT:-5}"
time_tol="${BENCH_GATE_TIME_TOL:-10}"
alloc_tol="${BENCH_GATE_ALLOC_TOL:-0.2}"
improve_tol="${BENCH_GATE_IMPROVE_TOL:-25}"

current="${TMPDIR:-/tmp}/attache-bench.$$.txt"
trap 'rm -f "$current" "${current}.cur" "${current}.base"' EXIT

echo "bench gate: running benchmarks (count=$count)..."
{
	go test -run '^$' -bench 'BenchmarkSimulatorThroughput$' -benchmem -count="$count" .
	go test -run '^$' -bench 'BenchmarkShardedThroughput$|BenchmarkSubmitLatency$' -benchmem -count="$count" ./internal/shard
	go test -run '^$' -bench 'BenchmarkFrameworkStore$' -benchmem -count="$count" ./internal/core
} | tee "$current"

# summarize: min ns/op and mean allocs/op per benchmark, with the
# GOMAXPROCS "-N" name suffix stripped so runs from machines with
# different core counts line up.
summarize() {
	awk '
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			for (i = 2; i <= NF; i++) {
				if ($i == "ns/op" && (!(name in ns) || $(i-1) < ns[name])) { ns[name] = $(i-1) }
				if ($i == "allocs/op") { al[name] += $(i-1) }
			}
			n[name]++
		}
		END {
			for (name in n)
				printf "%s %.2f %.2f\n", name, ns[name], al[name]/n[name]
		}
	' "$1" | sort
}

summarize "$current" > "${current}.cur"

# The summary, one record per benchmark.
awk '
	BEGIN { print "[" }
	{
		if (NR > 1) print ","
		printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}", $1, $2, $3
	}
	END { print "\n]" }
' "${current}.cur" > "$json"
echo "bench gate: wrote $json"

if [ "${UPDATE:-}" = "1" ]; then
	cp "$current" "$baseline"
	echo "bench gate: baseline updated ($baseline)"
	exit 0
fi

[ -f "$baseline" ] || { echo "bench gate: no baseline — run UPDATE=1 $0 first"; exit 1; }

summarize "$baseline" > "${current}.base"

if command -v benchstat >/dev/null 2>&1; then
	echo "bench gate: benchstat comparison (baseline vs current):"
	benchstat "$baseline" "$current" || true
fi

awk -v time_tol="$time_tol" -v alloc_tol="$alloc_tol" -v improve_tol="$improve_tol" '
	NR == FNR { base_ns[$1] = $2; base_al[$1] = $3; next }
	{
		if (!($1 in base_ns)) {
			printf "bench gate: NEW  %-50s %12.0f ns/op %10.1f allocs/op (no baseline, not gated)\n", $1, $2, $3
			next
		}
		dns = (base_ns[$1] > 0) ? 100 * ($2 - base_ns[$1]) / base_ns[$1] : 0
		printf "bench gate:      %-50s %12.0f ns/op (%+6.1f%%) %10.1f allocs/op (base %.1f)\n", $1, $2, dns, $3, base_al[$1]
		if (dns > time_tol) {
			printf "bench gate: FAIL %s time/op regressed %.1f%% (tolerance %s%%)\n", $1, dns, time_tol
			bad = 1
		}
		if (dns < -improve_tol) {
			printf "bench gate: FAIL %s time/op improved %.1f%% past tolerance %s%% — re-pin the baseline (UPDATE=1 or make bench-pin) so the gate guards the new level\n", $1, -dns, improve_tol
			bad = 1
		}
		if ($3 > base_al[$1] * (1 + alloc_tol / 100) + 0.5) {
			printf "bench gate: FAIL %s allocs/op rose %.1f -> %.1f (tolerance %s%% + 0.5)\n", $1, base_al[$1], $3, alloc_tol
			bad = 1
		}
		seen[$1] = 1
	}
	END {
		for (name in base_ns)
			if (!(name in seen)) {
				printf "bench gate: FAIL baseline benchmark %s missing from current run\n", name
				bad = 1
			}
		if (bad) {
			print "bench gate: FAIL — fix the regression, or re-baseline deliberately with UPDATE=1"
			exit 1
		}
		print "bench gate: OK"
	}
' "${current}.base" "${current}.cur"

#!/usr/bin/env bash
# Asserts, against a quiesced daemon at $1, that /metrics and /v1/stats
# agree: five series spanning the three stats structs (engine totals,
# robust counters, tier snapshot — the last two only where the daemon is
# tiered) must read the same in both views. Both are rendered from the
# same struct fields, so a mismatch means a view was wired to the wrong
# snapshot. Called by tier_smoke.sh and cluster_smoke.sh after the load
# run, while no traffic is in flight.
#
# Needs: curl, jq, awk. Exits non-zero on the first mismatch.
set -euo pipefail
base="$1"

stats="$(curl -sf "$base/v1/stats")"
metrics="$(curl -sf "$base/metrics")"

agree() { # series, jq path into the stats document
  m="$(echo "$metrics" | awk -v s="$1" '$1 == s { print $2 }')"
  j="$(echo "$stats" | jq -r "$2")"
  [ -n "$m" ] || { echo "FAIL: /metrics has no sample for $1"; exit 1; }
  awk -v m="$m" -v j="$j" 'BEGIN { exit !(m + 0 == j + 0) }' ||
    { echo "FAIL: $1 = $m in /metrics but $2 = $j in /v1/stats"; exit 1; }
}

agree attached_reads_total '.engine.total.reads'
agree attached_blocks_read_total '.engine.total.blocks_read'
agree attached_shed_ops_total '.robust.sheds'
if echo "$stats" | jq -e '.engine.tiers != null' >/dev/null; then
  agree attached_tier_promotions_total '.engine.tiers.promotions'
  agree attached_tier_near_resident '.engine.tiers.near_resident'
fi

#!/usr/bin/env bash
# Tiered-backend e2e smoke: boots an attached daemon with a two-tier
# memory (-tiers) and -snapshot-on-drain, drives traffic over real HTTP,
# drains it with SIGTERM, restarts from the written snapshot (-restore),
# and asserts the snapshot/restore contract end to end:
#
#   - /v1/stats v2 carries the tiers section while serving, and its
#     books conserve: promotions == demotions + near_resident
#   - /v1/snapshot serves a decodable snapv1 image (ATSNAP magic)
#   - SIGTERM drains and writes the snapshot file atomically
#   - the restarted daemon reports byte-identical engine totals and tier
#     counters — nothing is lost or invented across the restart
#
# Needs: curl, jq. Exits non-zero on the first broken assertion.
set -euo pipefail
cd "$(dirname "$0")/.."

addr="127.0.0.1:${TIER_SMOKE_PORT:-18081}"
base="http://$addr"
bin="${TMPDIR:-/tmp}/attache-tier-smoke.$$"
mkdir -p "$bin"
daemon_pid=""
trap 'kill "$daemon_pid" 2>/dev/null || true; wait "$daemon_pid" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/attached" ./cmd/attached
go build -o "$bin/attacheload" ./cmd/attacheload

snap="$bin/drain.snap"
"$bin/attached" -addr "$addr" -shards 4 -tiers 'near=256,policy=freq,freq-threshold=2' \
  -snapshot-on-drain "$snap" -log-level warn &
daemon_pid=$!

for _ in $(seq 100); do
  curl -sf "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "$base/healthz" >/dev/null

# Zipf-free mixed traffic over a working set much larger than the near
# tier, so both tiers see reads and writes.
"$bin/attacheload" -target "$base" -events 3000 -space 4096 -json >"$bin/report.json"
jq -e '.ops_ok > 0' "$bin/report.json" >/dev/null ||
  { echo "FAIL: load run completed no ops"; exit 1; }

stats1="$(curl -sf "$base/v1/stats?v=2")"
echo "$stats1" | jq -e '.engine.tiers != null' >/dev/null ||
  { echo "FAIL: tiered daemon stats carry no tiers section"; exit 1; }
echo "$stats1" | jq -e '.engine.tiers.policy == "freq"' >/dev/null ||
  { echo "FAIL: tier policy wrong"; exit 1; }
echo "$stats1" | jq -e '.engine.tiers | (.near_reads + .far_reads > 0) and (.promotions == .demotions + .near_resident)' >/dev/null ||
  { echo "FAIL: tier books do not conserve"; exit 1; }

# The snapshot endpoint serves a snapv1 image.
curl -sf "$base/v1/snapshot" -o "$bin/live.snap"
[ "$(head -c 6 "$bin/live.snap")" = "ATSNAP" ] ||
  { echo "FAIL: /v1/snapshot body is not snapv1"; exit 1; }

# Drain; the daemon must write the snapshot file on its way out.
kill -TERM "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
[ -s "$snap" ] || { echo "FAIL: -snapshot-on-drain wrote nothing"; exit 1; }
[ "$(head -c 6 "$snap")" = "ATSNAP" ] ||
  { echo "FAIL: drain snapshot is not snapv1"; exit 1; }

# Restart from the snapshot. No -tiers: the snapshot is authoritative.
"$bin/attached" -addr "$addr" -restore "$snap" -log-level warn &
daemon_pid=$!
for _ in $(seq 100); do
  curl -sf "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "$base/healthz" >/dev/null

stats2="$(curl -sf "$base/v1/stats?v=2")"
# Totals and tier counters must survive the restart exactly.
same() {
  a="$(echo "$stats1" | jq -c "$1")"
  b="$(echo "$stats2" | jq -c "$1")"
  [ "$a" = "$b" ] || { echo "FAIL: $1 diverged across restart: $a vs $b"; exit 1; }
}
same '.engine.total.reads'
same '.engine.total.writes'
same '.engine.total.blocks_read'
same '.engine.total.blocks_written'
same '.engine.tiers'

kill -TERM "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

echo "tier smoke OK: $(echo "$stats2" | jq -c '{policy: .engine.tiers.policy, near_resident: .engine.tiers.near_resident, promotions: .engine.tiers.promotions, reads: .engine.total.reads}')"

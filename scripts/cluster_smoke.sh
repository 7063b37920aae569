#!/usr/bin/env bash
# Cluster e2e smoke: boots a 3-instance attached daemon with one
# quota-capped tenant, drives two tenants through attacheload over real
# HTTP, and asserts the multi-tenant contract end to end:
#
#   - per-tenant stats conserve: ops == ok + shed_quota + shed_backend + errors
#   - only the over-quota tenant is refused (429); the other sees zero
#     quota sheds
#   - stats v2 carries the cluster section (instances, classes,
#     jain_fairness)
#   - a line written once reads back the same, 30 times over: each
#     address lives on one instance, so every read reaches the write
#
# Needs: curl, jq. Exits non-zero on the first broken assertion.
set -euo pipefail
cd "$(dirname "$0")/.."

addr="127.0.0.1:${CLUSTER_SMOKE_PORT:-18080}"
base="http://$addr"
bin="${TMPDIR:-/tmp}/attache-smoke.$$"
mkdir -p "$bin"
trap 'kill "$daemon_pid" 2>/dev/null || true; wait "$daemon_pid" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/attached" ./cmd/attached
go build -o "$bin/attacheload" ./cmd/attacheload

"$bin/attached" -addr "$addr" -cluster 3 \
  -quotas 'hog=2000:2000' -classes 'vip=gold' -log-level warn &
daemon_pid=$!

for _ in $(seq 100); do
  curl -sf "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "$base/healthz" >/dev/null

# Two tenants, dealt round-robin; hog's quota is far below the unpaced
# offered rate, so hog must shed and vip must not.
"$bin/attacheload" -target "$base" -tenants hog,vip -events 4000 -json \
  >"$bin/report.json"

jq -e '.per_tenant.hog.shed > 0' "$bin/report.json" >/dev/null ||
  { echo "FAIL: over-quota tenant was never refused"; exit 1; }
jq -e '.per_tenant.vip.shed == 0' "$bin/report.json" >/dev/null ||
  { echo "FAIL: unquotaed tenant was quota-shed"; exit 1; }

stats="$(curl -sf "$base/v1/stats?v=2")"
echo "$stats" | jq -e '.schema_version == 2' >/dev/null ||
  { echo "FAIL: default stats schema is not v2"; exit 1; }
echo "$stats" | jq -e '.cluster.instances == 3' >/dev/null ||
  { echo "FAIL: cluster section wrong"; exit 1; }
echo "$stats" | jq -e 'all(.tenants[]; .ops == .ok + .shed_quota + .shed_backend + .errors)' >/dev/null ||
  { echo "FAIL: per-tenant books do not conserve"; exit 1; }
echo "$stats" | jq -e '.tenants | map(select(.tenant == "hog"))[0].shed_quota > 0' >/dev/null ||
  { echo "FAIL: hog shows no quota sheds in stats"; exit 1; }
echo "$stats" | jq -e '.tenants | map(select(.tenant == "vip"))[0] | .shed_quota == 0 and .class == "gold"' >/dev/null ||
  { echo "FAIL: vip was shed or lost its class"; exit 1; }
echo "$stats" | jq -e '.cluster.jain_fairness > 0 and .cluster.jain_fairness <= 1' >/dev/null ||
  { echo "FAIL: jain_fairness out of range"; exit 1; }
echo "$stats" | jq -e '.cluster.classes | map(.class) | index("gold") != null' >/dev/null ||
  { echo "FAIL: gold class missing from quantiles"; exit 1; }

# The admitted work conserves across the fleet: merged totals equal the
# sum of per-instance totals.
echo "$stats" | jq -e '
  .engine.total.writes == ([.engine.per_instance[].total.writes] | add) and
  .engine.total.reads  == ([.engine.per_instance[].total.reads]  | add)' >/dev/null ||
  { echo "FAIL: merged totals do not equal per-instance sums"; exit 1; }

# Read-your-writes across requests: write one line, read it back 30
# times, and require one answer. A router that rotated requests over the
# instances would answer most of these reads from an instance that never
# saw the write.
line="$(head -c 64 /dev/urandom | base64 | tr -d '\n')"
curl -sf "$base/v1/write" -d "{\"addr\":4242,\"data\":\"$line\"}" >/dev/null ||
  { echo "FAIL: read-back write refused"; exit 1; }
first="$(curl -s "$base/v1/read" -d '{"addr":4242}')"
echo "$first" | jq -e --arg d "$line" '.data == $d' >/dev/null ||
  { echo "FAIL: read-back returned $first, not the line written"; exit 1; }
for i in $(seq 2 30); do
  body="$(curl -s "$base/v1/read" -d '{"addr":4242}')"
  [ "$body" = "$first" ] ||
    { echo "FAIL: read-back $i of 30 answered $body, read 1 answered $first"; exit 1; }
done

kill -TERM "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true

echo "cluster smoke OK: $(echo "$stats" | jq -c '{instances: .cluster.instances, jain: .cluster.jain_fairness, tenants: [.tenants[] | {tenant, ok, shed_quota}]}')"

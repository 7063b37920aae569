package serve

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/wire"
)

// newClusterServer spins up a 3-instance cluster behind the HTTP
// surface, with a frozen admission clock so quota outcomes are exact:
// tenant "hog" gets 4 ops, "vip" (gold) is unlimited.
func newClusterServer(t *testing.T) *Server {
	t.Helper()
	frozen := time.Unix(1_700_000_000, 0)
	cl, err := cluster.New(core.DefaultOptions(), shard.Config{Shards: 2}, 3, cluster.Config{
		Quotas:  map[string]cluster.Quota{"hog": {Rate: 4, Burst: 4}},
		Classes: map[string]cluster.Class{"vip": cluster.ClassGold},
		Now:     func() time.Time { return frozen },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return NewCluster(cl, Config{})
}

func postWrite(t *testing.T, srv *Server, tenant string, addr uint64) int {
	t.Helper()
	line := base64.StdEncoding.EncodeToString(make([]byte, core.LineSize))
	body := fmt.Sprintf(`{"addr":%d,"data":%q}`, addr, line)
	req := httptest.NewRequest(http.MethodPost, "/v1/write", strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(obs.TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After: %s", rec.Body)
	}
	return rec.Code
}

// TestTenantNamesAreBounded: the tenant header is outside input the
// cluster books for good, so a name over 64 bytes is a 400, and once 1024
// tenants are booked so is a new one — while booked tenants, tenants with
// an explicit quota and untenanted traffic still get through.
func TestTenantNamesAreBounded(t *testing.T) {
	srv := newClusterServer(t)
	send := func(tenant string, code int, body string) {
		t.Helper()
		rec, req := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(`[{"op":"read","addr":1}]`))
		req.Header.Set(obs.TenantHeader, tenant)
		if srv.Handler().ServeHTTP(rec, req); rec.Code != code || !strings.Contains(rec.Body.String(), body) {
			t.Fatalf("tenant %.16q...: %d %s, want %d and %q", tenant, rec.Code, rec.Body, code, body)
		}
	}
	send(strings.Repeat("x", 512<<10), 400, "tenant name of 524288 bytes exceeds 64")
	send(strings.Repeat("x", 65), 400, "out of range")
	for i := range 1024 {
		send(fmt.Sprintf("%064d", i), 200, "never written")
	}
	send("one-too-many", 400, "tenant table full (1024 tenants)")
	for _, tenant := range []string{fmt.Sprintf("%064d", 7), "hog", ""} {
		send(tenant, 200, "never written")
	}
	if n := len(srv.cl.TenantSnapshots()); n != 1026 {
		t.Fatalf("%d tenants booked, want the 1024 named ones, hog and untenanted traffic", n)
	}
}

// TestClusterServeEndToEnd is the serve-layer acceptance test for
// cluster mode: multi-tenant traffic over HTTP, 429s only for the
// over-quota tenant, per-tenant books that conserve, and the full v2
// stats surface (with v1 still round-tripping and unknown versions
// rejected).
func TestClusterServeEndToEnd(t *testing.T) {
	srv := newClusterServer(t)

	// Over-quota tenant: 4 admitted, 2 refused with 429.
	var ok429 int
	for i := 0; i < 6; i++ {
		switch code := postWrite(t, srv, "hog", uint64(i)); code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			ok429++
		default:
			t.Fatalf("hog write %d = %d", i, code)
		}
	}
	if ok429 != 2 {
		t.Fatalf("hog got %d 429s of 6 writes, want exactly 2", ok429)
	}
	// Unlimited gold tenant: never refused.
	for i := 0; i < 8; i++ {
		if code := postWrite(t, srv, "vip", uint64(100+i)); code != http.StatusOK {
			t.Fatalf("vip write %d = %d, want 200", i, code)
		}
	}

	// Default stats = schema v2.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body)
	}
	var v2 wire.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &v2); err != nil {
		t.Fatalf("bad v2 JSON: %v", err)
	}
	if v2.SchemaVersion != 2 {
		t.Fatalf("schema_version = %d, want 2", v2.SchemaVersion)
	}
	if v2.Cluster.Instances != 3 {
		t.Fatalf("cluster section = %+v, want 3 instances", v2.Cluster)
	}
	if len(v2.Engine.PerInstance) != 3 || v2.Engine.Shards != 6 {
		t.Fatalf("engine section: %d instances / %d shards, want 3 / 6", len(v2.Engine.PerInstance), v2.Engine.Shards)
	}
	if v2.Engine.Total.Writes != 12 {
		t.Fatalf("merged writes = %d, want the 12 admitted", v2.Engine.Total.Writes)
	}
	if len(v2.Telemetry.Gauges) != 6 {
		t.Fatalf("telemetry gauges = %d, want one per global shard", len(v2.Telemetry.Gauges))
	}
	// Per-tenant books: present, classed, and conserving.
	if len(v2.Tenants) != 2 {
		t.Fatalf("tenants = %+v, want hog and vip", v2.Tenants)
	}
	for _, tn := range v2.Tenants {
		if tn.Ops != tn.OK+tn.ShedQuota+tn.ShedBackend+tn.Errors {
			t.Fatalf("tenant %s books do not conserve: %+v", tn.Tenant, tn)
		}
	}
	hog, vip := v2.Tenants[0], v2.Tenants[1]
	if hog.Tenant != "hog" || hog.OK != 4 || hog.ShedQuota != 2 {
		t.Fatalf("hog book = %+v, want 4 ok / 2 quota-shed", hog)
	}
	if vip.Tenant != "vip" || vip.OK != 8 || vip.ShedQuota != 0 || vip.Class != cluster.ClassGold {
		t.Fatalf("vip book = %+v, want 8 ok gold", vip)
	}

	// Per-class quantiles: gold ahead of best-effort, with real samples.
	if len(v2.Cluster.Classes) != 2 || v2.Cluster.Classes[0].Class != cluster.ClassGold {
		t.Fatalf("classes = %+v, want gold then best-effort", v2.Cluster.Classes)
	}
	for _, c := range v2.Cluster.Classes {
		if c.Samples == 0 || c.P99us <= 0 || c.P99us < c.P50us {
			t.Fatalf("class %s quantiles malformed: %+v", c.Class, c)
		}
	}
	if j := v2.Cluster.JainFairness; j <= 0 || j > 1 {
		t.Fatalf("jain_fairness = %v, want in (0, 1]", j)
	}

	// Unknown schema versions — the removed v1 included — are rejected,
	// not guessed at.
	for _, v := range []string{"1", "3"} {
		rec = httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats?v="+v, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("stats?v=%s = %d, want 400", v, rec.Code)
		}
	}

	// Metrics exposition carries the cluster gauges and per-tenant series.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"attached_cluster_instances 3",
		"attached_cluster_jain_fairness",
		`attached_tenant_ops_total{tenant="hog",class="best-effort"}`,
		`attached_tenant_shed_quota_total{tenant="hog",class="best-effort"} 2`,
		`attached_tenant_ops_total{tenant="vip",class="gold"} 8`,
		`attached_shard_queue_depth{shard="5"}`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

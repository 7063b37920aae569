package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/tier"
)

func newTieredServer(t testing.TB) *Server {
	t.Helper()
	eng, err := shard.New(core.DefaultOptions(), shard.Config{
		Shards: 2,
		Tier:   &tier.Config{NearLines: 8, Policy: tier.PolicyLRU},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return New(eng, Config{})
}

// TestSnapshotEndpoint: GET /v1/snapshot returns a snapv1 image that
// the cluster restore path accepts, with the written lines
// intact; non-GET methods are refused with Allow.
func TestSnapshotEndpoint(t *testing.T) {
	srv := newTieredServer(t)
	h := srv.Handler()

	for i := 0; i < 16; i++ {
		body := fmt.Sprintf(`{"addr":%d,"data":%q}`, i, b64(testLine(byte(i))))
		if w := do(t, h, "POST", "/v1/write", body); w.Code != 200 {
			t.Fatalf("write %d: %d %s", i, w.Code, w.Body)
		}
	}

	w := do(t, h, "GET", "/v1/snapshot", "")
	if w.Code != 200 {
		t.Fatalf("GET /v1/snapshot: %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type = %q", ct)
	}
	raw := w.Body.Bytes()
	if fmt.Sprint(len(raw)) != w.Header().Get("Content-Length") {
		t.Fatalf("content length %s does not match body length %d", w.Header().Get("Content-Length"), len(raw))
	}

	// The body is a valid snapv1 snapshot the cluster layer restores.
	re, err := cluster.RestoreFrom(bytes.NewReader(raw), shard.Config{}, cluster.Config{})
	if err != nil {
		t.Fatalf("restore from endpoint body: %v", err)
	}
	defer re.Close()
	reads := make([]shard.Op, 16)
	for i := range reads {
		reads[i].Addr = uint64(i)
	}
	got, err := re.DoCtx(t.Context(), reads)
	if err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("read %d after restore: %v", i, r.Err)
		}
		if !bytes.Equal(r.Data, testLine(byte(i))) {
			t.Fatalf("line %d diverged after restore", i)
		}
	}

	wp := do(t, h, "POST", "/v1/snapshot", "")
	if wp.Code != 405 {
		t.Fatalf("POST /v1/snapshot: %d, want 405", wp.Code)
	}
	if allow := wp.Header().Get("Allow"); allow != "GET" {
		t.Fatalf("Allow = %q, want GET", allow)
	}
}

// TestStatsTiersSection: /v1/stats?v=2 carries the merged tier section
// on a tiered server and omits it on a classic one; /metrics exposes
// the tier series.
func TestStatsTiersSection(t *testing.T) {
	tiered := newTieredServer(t)
	h := tiered.Handler()
	for i := 0; i < 16; i++ {
		body := fmt.Sprintf(`{"addr":%d,"data":%q}`, i, b64(testLine(byte(i))))
		if w := do(t, h, "POST", "/v1/write", body); w.Code != 200 {
			t.Fatalf("write %d: %d %s", i, w.Code, w.Body)
		}
		if w := do(t, h, "POST", "/v1/read", fmt.Sprintf(`{"addr":%d}`, i)); w.Code != 200 {
			t.Fatalf("read %d: %d %s", i, w.Code, w.Body)
		}
	}

	w := do(t, h, "GET", "/v1/stats?v=2", "")
	if w.Code != 200 {
		t.Fatalf("stats v2: %d %s", w.Code, w.Body)
	}
	var v2 struct {
		Engine struct {
			Tiers *tier.Snapshot `json:"tiers"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &v2); err != nil {
		t.Fatalf("stats v2 unmarshal: %v", err)
	}
	if v2.Engine.Tiers == nil {
		t.Fatalf("tiered server stats v2 has no tiers section: %s", w.Body)
	}
	ts := v2.Engine.Tiers
	if ts.NearReads+ts.FarReads == 0 {
		t.Fatalf("tier section shows no reads: %+v", ts)
	}
	if ts.Promotions != ts.Demotions+ts.NearResident {
		t.Fatalf("tier section promotion balance broken: %+v", ts)
	}

	wm := do(t, h, "GET", "/metrics", "")
	if wm.Code != 200 {
		t.Fatalf("metrics: %d", wm.Code)
	}
	for _, series := range []string{
		"attached_tier_near_reads_total",
		"attached_tier_promotions_total",
		"attached_tier_near_resident",
		"attached_tier_far_link_bytes",
	} {
		if !strings.Contains(wm.Body.String(), series) {
			t.Fatalf("metrics output missing %s", series)
		}
	}

	// A classic server must not grow the section or the series.
	classic := newTestServer(t)
	wc := do(t, classic.Handler(), "GET", "/v1/stats?v=2", "")
	if strings.Contains(wc.Body.String(), `"tiers"`) {
		t.Fatalf("untiered stats v2 grew a tiers section: %s", wc.Body)
	}
	wcm := do(t, classic.Handler(), "GET", "/metrics", "")
	if strings.Contains(wcm.Body.String(), "attached_tier_") {
		t.Fatal("untiered metrics output grew tier series")
	}
}

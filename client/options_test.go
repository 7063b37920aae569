package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/tier"
)

// TestNewOptions pins what New resolves: the documented defaults with no
// options, and each functional option landing in exactly its own knob.
func TestNewOptions(t *testing.T) {
	hc := &http.Client{Timeout: 3 * time.Second}
	for _, tc := range []struct {
		name string
		opts []Option
		want *Client
	}{
		{
			name: "no options = all defaults",
			want: &Client{maxRetries: 4, baseBackoff: 50 * time.Millisecond, maxBackoff: 2 * time.Second},
		},
		{
			name: "every knob set",
			opts: []Option{
				WithHTTPClient(hc),
				WithRetry(7),
				WithBackoff(5*time.Millisecond, 80*time.Millisecond),
				WithDeadlineBudget(250 * time.Millisecond),
				WithTenant("acme"),
				WithJitterSeed(42),
			},
			want: &Client{hc: hc, maxRetries: 7, baseBackoff: 5 * time.Millisecond, maxBackoff: 80 * time.Millisecond,
				budget: 250 * time.Millisecond, tenant: "acme"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := New("http://daemon:8080/", tc.opts...), tc.want
			if got.base != "http://daemon:8080" {
				t.Errorf("base = %q, want the trailing slash trimmed", got.base)
			}
			if got.hc == nil || want.hc != nil && got.hc != want.hc {
				t.Errorf("http client = %p, want %p (or any default)", got.hc, want.hc)
			}
			if got.maxRetries != want.maxRetries {
				t.Errorf("maxRetries = %d, want %d", got.maxRetries, want.maxRetries)
			}
			if got.baseBackoff != want.baseBackoff || got.maxBackoff != want.maxBackoff {
				t.Errorf("backoff = (%v,%v), want (%v,%v)", got.baseBackoff, got.maxBackoff, want.baseBackoff, want.maxBackoff)
			}
			if got.budget != want.budget {
				t.Errorf("budget = %v, want %v", got.budget, want.budget)
			}
			if got.tenant != want.tenant {
				t.Errorf("tenant = %q, want %q", got.tenant, want.tenant)
			}
		})
	}
}

// TestTenantHeaderSent pins the tenancy plumbing on the wire: WithTenant
// stamps every request, ContextWithTenant overrides per call, and a bare
// client sends no tenant header at all.
func TestTenantHeaderSent(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(obs.TenantHeader))
		mu.Unlock()
		w.Write([]byte(`{"addr":1,"ok":true}`))
	}))
	defer ts.Close()

	ctx := context.Background()
	if err := New(ts.URL, fastOpts()...).Write(ctx, 1, testLine(1)); err != nil {
		t.Fatal(err)
	}
	c := New(ts.URL, fastOpts(WithTenant("acme"))...)
	if err := c.Write(ctx, 1, testLine(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(ContextWithTenant(ctx, "globex"), 1, testLine(1)); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{"", "acme", "globex"}
	for i, w := range want {
		if seen[i] != w {
			t.Errorf("request %d tenant header = %q, want %q", i, seen[i], w)
		}
	}
}

// TestStatsV2RoundTrip drives the versioned stats surface end to end
// against a real daemon: the document carries schema_version 3 and the
// engine, cluster and tenant sections.
func TestStatsV2RoundTrip(t *testing.T) {
	ts, _ := newDaemon(t, shard.Config{Shards: 2})
	c := New(ts.URL, fastOpts(WithTenant("acme"))...)
	ctx := context.Background()

	if err := c.Write(ctx, 3, testLine(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, 3); err != nil {
		t.Fatal(err)
	}

	doc, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats v3: %v", err)
	}
	if doc.SchemaVersion != 3 {
		t.Fatalf("schema_version = %d, want 3", doc.SchemaVersion)
	}
	if doc.Engine.Shards != 2 || len(doc.Engine.PerShard) != 2 {
		t.Fatalf("engine section: %d shards, %d per-shard rows, want 2 and 2", doc.Engine.Shards, len(doc.Engine.PerShard))
	}
	if doc.Engine.Total.Reads != 1 || doc.Engine.Total.Writes != 1 {
		t.Fatalf("engine totals = %+v, want 1 read / 1 write", doc.Engine.Total)
	}
	if len(doc.Tenants) != 1 || doc.Tenants[0].Tenant != "acme" || doc.Tenants[0].OK != 2 {
		t.Fatalf("tenants = %+v, want acme with 2 ok ops", doc.Tenants)
	}
	if len(doc.Cluster.Classes) != 1 || doc.Cluster.Classes[0].Class != "best-effort" {
		t.Fatalf("classes = %+v, want one best-effort class", doc.Cluster.Classes)
	}
}

// TestStatsV2SeesWhatTheServerSends: the client's stats type is the
// daemon's, so nothing the daemon sends is dropped on the way in — the
// tier view included — and a decoded document re-encodes to the
// bytes it came from.
func TestStatsV2SeesWhatTheServerSends(t *testing.T) {
	ts, eng := newDaemon(t, shard.Config{Shards: 2, Tier: &tier.Config{NearLines: 8}})
	c := New(ts.URL, fastOpts()...)
	ctx := context.Background()
	for i := uint64(0); i < 32; i++ {
		if err := c.Write(ctx, i, testLine(byte(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(ctx, i/2); err != nil {
			t.Fatal(err)
		}
	}

	doc, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := eng.TierSnapshot()
	if doc.Engine.Tiers == nil || *doc.Engine.Tiers != want || want.Demotions == 0 {
		t.Fatalf("Engine.Tiers = %+v, want the server's tier snapshot %+v", doc.Engine.Tiers, want)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d, %v", resp.StatusCode, err)
	}
	var raw Stats
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), body) {
		t.Fatalf("decode→encode changed the document:\n sent %s\n got  %s", body, again)
	}
	e := raw.Engine
	if !bytes.Contains(body, []byte(`"compressed_line_ratio":`)) || !bytes.Contains(body, []byte(`"bandwidth_savings":`)) ||
		e.CompressedLineRatio != e.Total.CompressedLineRatio() || e.BandwidthSavings != e.Total.BandwidthSavings() {
		t.Fatalf("engine ratios %v, %v; Total's are %v, %v", e.CompressedLineRatio, e.BandwidthSavings,
			e.Total.CompressedLineRatio(), e.Total.BandwidthSavings())
	}
}

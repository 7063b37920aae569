package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/stats"
	"attache/internal/tier"
	"attache/internal/wire"
)

// scrape loads a server with a little traffic (tenant-attributed writes,
// so the tenant families exist) and returns /metrics split into its
// sorted "# HELP"/"# TYPE" lines and its samples, keyed by series (name
// and labels). Each line sits on its own 4 KB page, so a cluster spreads
// them over instances.
func scrape(t *testing.T, srv *Server) (families []string, samples map[string]string) {
	t.Helper()
	for i := uint64(0); i < 24; i++ {
		if code := postWrite(t, srv, "acme", i<<6); code != 200 {
			t.Fatalf("write %d: %d", i, code)
		}
		// An older line: on a tiered engine some have been demoted by now.
		do(t, srv.Handler(), "POST", "/v1/read", fmt.Sprintf(`{"addr":%d}`, i/2<<6))
	}
	samples = map[string]string{}
	for _, l := range strings.Split(do(t, srv.Handler(), "GET", "/metrics", "").Body.String(), "\n") {
		if strings.HasPrefix(l, "# ") {
			families = append(families, l)
		} else if i := strings.LastIndexByte(l, ' '); i > 0 {
			samples[l[:i]] = l[i+1:]
		}
	}
	sort.Strings(families)
	return families, samples
}

// TestMetricsFamilies pins /metrics' family set — names, types and help
// strings — to testdata/metrics.families, the sorted HELP/TYPE lines
// served by the commit before the exposition was derived from struct
// tags (a tiered engine's; an untiered one serves the same minus the
// attached_tier_ families). Sample order is free; the families are the
// contract dashboards are built on. A new family or a reworded help
// string is a deliberate edit of that file.
func TestMetricsFamilies(t *testing.T) {
	raw, err := os.ReadFile("testdata/metrics.families")
	if err != nil {
		t.Fatal(err)
	}
	var tiered, untiered []string
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		tiered = append(tiered, l)
		if !strings.Contains(l, " attached_tier_") {
			untiered = append(untiered, l)
		}
	}
	for _, tc := range []struct {
		name string
		srv  *Server
		want []string
	}{
		{"untiered", newTestServer(t), untiered},
		{"tiered", newTieredServer(t), tiered},
	} {
		got, _ := scrape(t, tc.srv)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: families differ from testdata/metrics.families\n got:\n%s\nwant:\n%s",
				tc.name, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}

// TestMetricsAgreeWithStats: every series /metrics renders from the
// /v1/stats document reads the same as the document — every prom-tagged
// field of its sections, the two ratios, and the per-shard gauge and
// per-tenant rows — on one tiered engine and on a tiered 3-instance
// cluster, whose merge sums instances.
func TestMetricsAgreeWithStats(t *testing.T) {
	for _, tc := range []struct {
		name string
		srv  *Server
	}{
		{"engine", newTieredServer(t)},
		{"cluster", newTieredClusterServer(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, samples := scrape(t, tc.srv)
			doc := tc.srv.statsDoc()
			want := map[string]any{}
			for _, v := range []any{doc.Engine, doc.Engine.Total, doc.Robust, *doc.Engine.Tiers, doc.Cluster} {
				rv := reflect.ValueOf(v)
				for i := 0; i < rv.NumField(); i++ {
					if name, _, ok := strings.Cut(rv.Type().Field(i).Tag.Get("prom"), ","); ok {
						want[name] = rv.Field(i).Interface()
					}
				}
			}
			for _, g := range doc.Telemetry.Gauges {
				l := fmt.Sprintf(`{shard="%d"}`, g.Shard)
				want["attached_shard_queue_depth"+l] = g.QueueDepth
				want["attached_shard_inflight"+l] = g.InFlight
				want["attached_shard_last_batch_ops"+l] = g.LastBatchOps
			}
			for _, tn := range doc.Tenants {
				l := fmt.Sprintf(`{tenant=%q,class=%q}`, tn.Tenant, tn.Class)
				want["attached_tenant_ops_total"+l] = tn.Ops
				want["attached_tenant_shed_quota_total"+l] = tn.ShedQuota
			}
			for series, v := range want {
				if samples[series] != fmt.Sprint(v) {
					t.Errorf("%s: /metrics says %q, /v1/stats says %v", series, samples[series], v)
				}
			}
			e := doc.Engine
			if tiers := e.Tiers; tiers.NearReads+tiers.FarReads != 24 || tiers.FarReads == 0 || len(want) < 40 ||
				len(doc.Tenants) != 2 || doc.Tenants[1].Ops != 24 || len(doc.Telemetry.Gauges) != e.Shards ||
				e.CompressedLineRatio <= 0 || e.BandwidthSavings <= 0 {
				t.Fatalf("test did not exercise the engine: tiers %+v, tenants %+v, %d gauges, ratios %v %v, %d series checked",
					*tiers, doc.Tenants, len(doc.Telemetry.Gauges), e.CompressedLineRatio, e.BandwidthSavings, len(want))
			}
			if e.CompressedLineRatio != e.Total.CompressedLineRatio() || e.BandwidthSavings != e.Total.BandwidthSavings() {
				t.Errorf("ratios %v %v, Total's are %v %v", e.CompressedLineRatio, e.BandwidthSavings,
					e.Total.CompressedLineRatio(), e.Total.BandwidthSavings())
			}
		})
	}
}

// TestStatsDocIsOneCut: with writers running on every instance, each
// document's totals are the sum of the per-instance snapshots it carries
// — statsDoc snapshots each instance once and merges those.
func TestStatsDocIsOneCut(t *testing.T) {
	srv := newTieredClusterServer(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			line := make([]byte, core.LineSize)
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Two lines on different pages: the batch usually spans
				// instances.
				a := (i*4 + uint64(w)) % 4096 << 6
				srv.cl.DoCtx(context.Background(), []shard.Op{
					{Write: true, Addr: a, Data: line},
					{Write: true, Addr: a ^ 1<<12, Data: line},
				})
			}
		}()
	}
	// Under one P the writers may not have run yet: take documents only
	// once the first write has landed.
	for srv.statsDoc().Engine.Total.Writes == 0 {
		runtime.Gosched()
	}
	const docs = 200
	torn, first := 0, srv.statsDoc()
	var last wire.Stats
	// At least docs documents, and on until a write has landed since the
	// first, so the documents were taken with writes in flight: under one
	// P the writers run only when this goroutine yields.
	n := 0
	for ; n < docs || last.Engine.Total.Writes == first.Engine.Total.Writes; n++ {
		if n >= docs {
			runtime.Gosched()
		}
		last = srv.statsDoc()
		var total core.StatsSnapshot
		var robust shard.RobustStats
		for _, inst := range last.Engine.PerInstance {
			total.Accumulate(inst.Total)
			stats.Add(&robust, inst.Robust)
		}
		total.PredictionAccuracy = last.Engine.Total.PredictionAccuracy // a mean, in another order
		if total != last.Engine.Total || robust != last.Robust {
			torn++
		}
	}
	close(stop)
	wg.Wait()
	if torn > 0 {
		t.Errorf("%d of %d documents have totals that are not the sum of their instances", torn, n)
	}
}

// TestTenantLabelsStayWellFormed: over real HTTP, a tenant name /metrics
// could not print as a label value — a control character, invalid UTF-8
// — is a 400 and never booked, a name with characters the text format
// escapes renders escaped, and every label value of the scrape is valid.
func TestTenantLabelsStayWellFormed(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t).Handler())
	defer ts.Close()
	body := fmt.Sprintf(`{"addr":1,"data":%q}`, b64(testLine(1)))
	for tenant, code := range map[string]int{"a\tb": 400, "caf\xe9": 400, "a\u0085b": 400, `a"b\c`: 200, "a\u00a0b": 200} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/write", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("tenant %q: %d, want %d", tenant, resp.StatusCode, code)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	if !utf8.ValidString(metrics) {
		t.Error("/metrics is not UTF-8")
	}
	for _, want := range []string{`tenant="a\"b\\c"`, "tenant=\"a\u00a0b\""} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	for _, gone := range []string{"a\tb", `a\tb`, "caf\xe9", `caf\xe9`, "a\u0085b", `a\u0085b`} {
		if strings.Contains(metrics, gone) {
			t.Errorf("/metrics books refused tenant %q", gone)
		}
	}
	value := `"([^"\\\n]|\\[\\"n])*"`
	series := regexp.MustCompile(`^[a-z_]+\{[a-z_]+=` + value + `(,[a-z_]+=` + value + `)*\} \S+$`)
	for _, l := range strings.Split(metrics, "\n") {
		if strings.Contains(l, "{") && !strings.HasPrefix(l, "# ") && !series.MatchString(l) {
			t.Errorf("malformed series %q", l)
		}
	}
}

// newTieredClusterServer serves a 3-instance cluster of 2-shard engines,
// each with a 2-line near tier, so scrape's traffic demotes lines on
// every instance it reaches.
func newTieredClusterServer(t *testing.T) *Server {
	t.Helper()
	cl, err := cluster.New(core.DefaultOptions(), shard.Config{
		Shards: 2,
		Tier:   &tier.Config{NearLines: 2, Policy: tier.PolicyLRU},
	}, 3, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return NewCluster(cl, Config{})
}

package serve

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/tier"
)

// scrape loads a server with a little traffic (tenant-attributed writes,
// so the tenant families exist) and returns /metrics split into its
// sorted "# HELP"/"# TYPE" lines and its unlabelled samples. Each line
// sits on its own 4 KB page, so a cluster spreads them over instances.
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
		} else if name, v, ok := strings.Cut(l, " "); ok && !strings.Contains(name, "{") {
			samples[name] = v
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

// TestMetricsAgreeWithStats: every prom-tagged field of the three stats
// structs reads the same in /metrics as in the /v1/stats document — both
// render the one merged snapshot, so they cannot disagree — on one
// tiered engine and on a tiered 3-instance cluster, whose merge sums
// instances.
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
			checked := 0
			for _, v := range []any{doc.Engine.Total, doc.Robust, *doc.Engine.Tiers} {
				rv := reflect.ValueOf(v)
				for i := 0; i < rv.NumField(); i++ {
					name, _, ok := strings.Cut(rv.Type().Field(i).Tag.Get("prom"), ",")
					if !ok {
						continue
					}
					checked++
					if want := fmt.Sprint(rv.Field(i).Interface()); samples[name] != want {
						t.Errorf("%s: /metrics says %q, /v1/stats %s says %s", name, samples[name], rv.Type().Field(i).Name, want)
					}
				}
			}
			if tiers := doc.Engine.Tiers; tiers.NearReads+tiers.FarReads != 24 || tiers.FarReads == 0 || checked < 20 {
				t.Fatalf("test did not exercise the engine: tiers %+v, %d series checked", *tiers, checked)
			}
		})
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

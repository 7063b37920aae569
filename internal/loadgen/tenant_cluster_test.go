package loadgen

import (
	"context"
	"testing"
	"time"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/shard"
)

// TestRunPerTenantReport drives a quota-capped cluster target with two
// tenants and checks the per-tenant breakdown: the over-quota tenant
// sheds, the unquotaed one doesn't, each tenant's books conserve, and
// tenancy never perturbs the offered op stream (same checksum as the
// untenanted plan).
func TestRunPerTenantReport(t *testing.T) {
	frozen := time.Unix(1_700_000_000, 0)
	cl, err := cluster.New(core.DefaultOptions(), shard.Config{Shards: 2}, cluster.Config{
		Quotas: map[string]cluster.Quota{"hog": {Rate: 50, Burst: 50}},
		Now:    func() time.Time { return frozen },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cfg := Config{
		Seed:        9,
		Events:      200,
		Concurrency: 4,
		AddrSpace:   256,
		Prefill:     256, // full space: reads never hit unwritten lines
		Tenants:     []string{"hog", "vip"},
	}
	rep, err := Run(context.Background(), cl, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Tenancy is checksum-invisible: the offered sequence is the same
	// plan an untenanted run would submit.
	plain := cfg
	plain.Tenants = nil
	if want := Checksum(Plan(plain)); rep.Checksum != want {
		t.Fatalf("checksum %s != untenanted plan %s", rep.Checksum, want)
	}

	if len(rep.PerTenant) != 2 {
		t.Fatalf("per-tenant = %+v, want exactly hog and vip", rep.PerTenant)
	}
	hog, okHog := rep.PerTenant["hog"]
	vip, okVip := rep.PerTenant["vip"]
	if !okHog || !okVip {
		t.Fatalf("per-tenant = %+v, want hog and vip", rep.PerTenant)
	}
	// Round-robin deal: 200 events split evenly.
	if hog.Events != 100 || vip.Events != 100 {
		t.Fatalf("events hog=%d vip=%d, want 100 each", hog.Events, vip.Events)
	}
	if got := hog.Ops + vip.Ops; got != rep.Ops {
		t.Fatalf("per-tenant ops %d != report ops %d", got, rep.Ops)
	}
	// Frozen clock: hog's bucket never refills past its 50-op burst, so
	// with ~100+ offered ops it must shed; vip has no quota at all.
	if hog.Shed == 0 {
		t.Fatalf("hog book = %+v, want quota sheds", hog)
	}
	if vip.Shed != 0 || vip.OpsOK != vip.Ops {
		t.Fatalf("vip book = %+v, want all ops ok", vip)
	}
	for name, tt := range rep.PerTenant {
		var errOps uint64
		for _, n := range tt.Errors {
			errOps += n
		}
		if tt.Ops != tt.OpsOK+errOps {
			t.Fatalf("tenant %s books do not conserve: %+v", name, tt)
		}
		if tt.Shed > tt.Errors["overloaded"] {
			t.Fatalf("tenant %s sheds %d exceed overloaded errors %d", name, tt.Shed, tt.Errors["overloaded"])
		}
	}
	// The cluster's own books agree with the load generator's view.
	for _, tn := range cl.TenantSnapshots() {
		tt, ok := rep.PerTenant[tn.Tenant]
		if tn.Tenant == "" {
			continue // untenanted prefill traffic
		}
		if !ok || uint64(tn.OK) != tt.OpsOK || uint64(tn.ShedQuota) != tt.Shed {
			t.Fatalf("cluster book %+v disagrees with report %+v", tn, tt)
		}
	}
}

package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
)

func testLine(v uint64) []byte {
	line := make([]byte, core.LineSize)
	for i := 0; i < 8; i++ {
		line[i] = byte(v >> (8 * i))
	}
	return line
}

// TestPassthroughBitIdentity is the acceptance gate for cluster mode: a
// 1-instance cluster must be indistinguishable from calling
// the engine directly — same per-op results (including seeded injected
// faults) and a byte-identical stats snapshot — under a chaos-flavored
// mixed workload.
func TestPassthroughBitIdentity(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Seed = 7
	cfg := shard.Config{
		Shards: 2,
		Faults: shard.FaultPlan{Seed: 99, ErrP: 0.05},
	}

	eng, err := shard.New(opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cl, err := New(opts, cfg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The same seeded op sequence, submitted sequentially to both, must
	// produce identical outcomes op for op.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		var ops []shard.Op
		switch rng.Intn(3) {
		case 0:
			ops = []shard.Op{{Write: true, Addr: uint64(rng.Intn(256)), Data: testLine(uint64(i))}}
		case 1:
			ops = []shard.Op{{Addr: uint64(rng.Intn(256))}}
		default:
			for j := 0; j < 8; j++ {
				addr := uint64(rng.Intn(256))
				if j%2 == 0 {
					ops = append(ops, shard.Op{Write: true, Addr: addr, Data: testLine(uint64(i*8 + j))})
				} else {
					ops = append(ops, shard.Op{Addr: addr})
				}
			}
		}
		want, werr := eng.Do(cloneOps(ops))
		got, gerr := do(cl, cloneOps(ops))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("batch %d: call errors diverged: engine %v, cluster %v", i, werr, gerr)
		}
		for k := range want {
			if !bytes.Equal(want[k].Data, got[k].Data) {
				t.Fatalf("batch %d op %d: data diverged", i, k)
			}
			if (want[k].Err == nil) != (got[k].Err == nil) {
				t.Fatalf("batch %d op %d: errors diverged: engine %v, cluster %v", i, k, want[k].Err, got[k].Err)
			}
			if want[k].Err != nil && want[k].Err.Error() != got[k].Err.Error() {
				t.Fatalf("batch %d op %d: error text diverged: %q vs %q", i, k, want[k].Err, got[k].Err)
			}
		}
	}

	// A zero-op batch gets the engine's answer too: empty, not nil.
	for _, ops := range [][]shard.Op{nil, {}} {
		want, werr := eng.Do(ops)
		got, gerr := do(cl, ops)
		if werr != nil || gerr != nil || want == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("zero-op batch: engine %#v, %v; cluster %#v, %v", want, werr, got, gerr)
		}
	}

	if es, cs := eng.StatsSnapshot(), cl.EngineSnapshot(); !reflect.DeepEqual(es, cs) {
		t.Fatalf("snapshots diverged:\nengine  %+v\ncluster %+v", es, cs)
	}
}

func cloneOps(ops []shard.Op) []shard.Op {
	out := make([]shard.Op, len(ops))
	copy(out, ops)
	return out
}

// do submits one untenanted batch.
func do(cl *Cluster, ops []shard.Op) ([]shard.Result, error) {
	return cl.DoCtx(context.Background(), ops)
}

// writeOne and readOne submit a one-op batch, as serve's handlers do.
func writeOne(ctx context.Context, cl *Cluster, addr uint64, data []byte) error {
	res, err := cl.DoCtx(ctx, []shard.Op{{Write: true, Addr: addr, Data: data}})
	if err != nil {
		return err
	}
	return res[0].Err
}

func readOne(ctx context.Context, cl *Cluster, addr uint64) ([]byte, error) {
	res, err := cl.DoCtx(ctx, []shard.Op{{Addr: addr}})
	if err != nil {
		return nil, err
	}
	return res[0].Data, res[0].Err
}

// TestQuotaShedsOnlyOverQuota pins admission semantics end to end: only
// the over-quota tenant is refused (whole batches, ErrOverloaded), the
// unlimited tenant rides through untouched, the per-tenant books
// conserve, and the Jain index reflects the resulting skew exactly.
func TestQuotaShedsOnlyOverQuota(t *testing.T) {
	clk := newFakeClock()
	cl, err := New(core.DefaultOptions(), shard.Config{Shards: 2}, Config{
		Quotas: map[string]Quota{"hog": {Rate: 10, Burst: 10}},
		Now:    clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hog := obs.ContextWithTenant(t.Context(), "hog")
	polite := obs.ContextWithTenant(t.Context(), "polite")

	var hogOK, hogShed int
	for i := 0; i < 15; i++ {
		err := writeOne(hog, cl, uint64(i), testLine(uint64(i)))
		switch {
		case err == nil:
			hogOK++
		case errors.Is(err, core.ErrOverloaded):
			hogShed++
		default:
			t.Fatalf("hog write %d: %v", i, err)
		}
	}
	if hogOK != 10 || hogShed != 5 {
		t.Fatalf("hog: %d ok / %d shed, want 10/5", hogOK, hogShed)
	}
	for i := 0; i < 20; i++ {
		if err := writeOne(polite, cl, uint64(1000+i), testLine(uint64(i))); err != nil {
			t.Fatalf("unquotaed tenant shed: write %d: %v", i, err)
		}
	}

	tenants := cl.TenantSnapshots()
	if len(tenants) != 2 || tenants[0].Tenant != "hog" || tenants[1].Tenant != "polite" {
		t.Fatalf("tenants = %+v", tenants)
	}
	if h := tenants[0]; h.Ops != 15 || h.OK != 10 || h.ShedQuota != 5 || h.ShedBackend != 0 {
		t.Fatalf("hog book = %+v, want 15 ops / 10 ok / 5 quota-shed", h)
	}
	if p := tenants[1]; p.Ops != 20 || p.OK != 20 || p.ShedQuota != 0 {
		t.Fatalf("polite book = %+v, want 20/20 clean", p)
	}
	// Per-tenant conservation: every op is ok, quota-shed, backend-shed,
	// or errored.
	for _, tn := range tenants {
		if tn.Ops != tn.OK+tn.ShedQuota+tn.ShedBackend+tn.Errors {
			t.Fatalf("tenant %s books do not conserve: %+v", tn.Tenant, tn)
		}
	}
	// Only admitted ops reached the engine.
	if w := cl.EngineSnapshot().Total.Writes; w != 30 {
		t.Fatalf("engine writes = %d, want 30 admitted", w)
	}
	// Jain over ok throughput [10, 20]: (30)²/(2·(100+400)) = 0.9.
	if j := cl.JainFairness(); math.Abs(j-0.9) > 1e-9 {
		t.Fatalf("Jain index = %v, want 0.9", j)
	}

	// Refill restores the hog's service without touching anyone else.
	clk.advance(time.Second)
	for i := 0; i < 10; i++ {
		if err := writeOne(hog, cl, uint64(i), testLine(uint64(i))); err != nil {
			t.Fatalf("hog post-refill write %d: %v", i, err)
		}
	}
}

// TestCancelledBatchSpendsNoQuota: a batch whose context is already done
// never runs, so it must not be charged — the tenant's next burst-sized
// batch is admitted whole, with the clock standing still.
func TestCancelledBatchSpendsNoQuota(t *testing.T) {
	cl, err := New(core.DefaultOptions(), shard.Config{Shards: 2}, Config{
		Quotas: map[string]Quota{"hog": {Rate: 10, Burst: 10}},
		Now:    newFakeClock().now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	batch := make([]shard.Op, 10)
	for i := range batch {
		batch[i] = shard.Op{Write: true, Addr: uint64(i), Data: testLine(uint64(i))}
	}
	hog := obs.ContextWithTenant(t.Context(), "hog")

	dead, cancel := context.WithCancel(hog)
	cancel()
	if res, err := cl.DoCtx(dead, batch); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled batch: %v, %v; want nil, context.Canceled", res, err)
	}
	if tenants := cl.TenantSnapshots(); len(tenants) != 0 {
		t.Fatalf("a batch that never ran was booked: %+v", tenants)
	}
	res, err := cl.DoCtx(hog, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d of the burst-sized batch after a cancelled one: %v", i, r.Err)
		}
	}
}

// TestClusterStatsSurfaces covers the read-side API a stats consumer
// walks: one-op batches, the per-shard snapshot, shard gauges, and the
// ordered per-class quantile books (gold, silver, best-effort all
// populated).
func TestClusterStatsSurfaces(t *testing.T) {
	clk := newFakeClock()
	cl, err := New(core.DefaultOptions(), shard.Config{Shards: 4}, Config{
		Classes: map[string]Class{"au": ClassGold, "ag": ClassSilver},
		Now:     clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if cl.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", cl.Shards())
	}

	// One-op batches; placement makes the read land on the shard that
	// took the write.
	if err := writeOne(t.Context(), cl, 7, testLine(7)); err != nil {
		t.Fatal(err)
	}
	got, err := readOne(t.Context(), cl, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, testLine(7)) {
		t.Fatal("read-your-write through one-op batches failed")
	}

	// One classed call per tenant so every class has samples.
	for i, tenant := range []string{"au", "ag", "anon"} {
		ctx := obs.ContextWithTenant(t.Context(), tenant)
		for j := 0; j < 8; j++ {
			addr := uint64(1000*(i+1) + j)
			if err := writeOne(ctx, cl, addr, testLine(addr)); err != nil {
				t.Fatal(err)
			}
			if _, err := readOne(ctx, cl, addr); err != nil {
				t.Fatal(err)
			}
		}
	}

	snap := cl.EngineSnapshot()
	if len(snap.PerShard) != 4 {
		t.Fatalf("per-shard snapshots = %d, want 4", len(snap.PerShard))
	}
	var writes uint64
	for _, s := range snap.PerShard {
		writes += s.Writes
	}
	if snap.Total.Writes != writes || writes != 25 {
		t.Fatalf("writes: total %d, per-shard sum %d, want 25", snap.Total.Writes, writes)
	}

	gauges := cl.Gauges()
	if len(gauges) != 4 {
		t.Fatalf("gauges = %d, want one per shard", len(gauges))
	}
	for i, g := range gauges {
		if g.Shard != i {
			t.Fatalf("gauge %d reports shard %d", i, g.Shard)
		}
	}

	classes := cl.ClassSnapshots()
	if len(classes) != 3 {
		t.Fatalf("classes = %+v, want gold, silver, best-effort", classes)
	}
	wantOrder := []Class{ClassGold, ClassSilver, ClassBestEffort}
	for i, c := range classes {
		if c.Class != wantOrder[i] {
			t.Fatalf("class %d = %s, want %s (rank order)", i, c.Class, wantOrder[i])
		}
		if c.Samples == 0 || c.Calls == 0 || c.Ops == 0 {
			t.Fatalf("class %s has no samples: %+v", c.Class, c)
		}
		if c.P50us <= 0 || c.P90us < c.P50us || c.P99us < c.P90us || c.MaxUs < c.P99us {
			t.Fatalf("class %s quantiles not monotone: %+v", c.Class, c)
		}
	}
	// Best-effort saw the anonymous tenant plus the unclassed
	// convenience ops above.
	if classes[2].Ops != 16+2 {
		t.Fatalf("best-effort ops = %d, want 18", classes[2].Ops)
	}
}

// TestWrapTakesOneEngine: a cluster fronts exactly one engine. Any other
// slice is refused with ErrOutOfRange and stays the caller's: a refused
// engine still serves.
func TestWrapTakesOneEngine(t *testing.T) {
	eng, err := shard.New(core.DefaultOptions(), shard.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, engines := range [][]*shard.Engine{nil, {eng, eng}} {
		if cl, err := Wrap(engines, Config{}); cl != nil || !errors.Is(err, core.ErrOutOfRange) {
			t.Fatalf("Wrap of %d engines: %v, %v; want ErrOutOfRange", len(engines), cl, err)
		}
	}
	if err := eng.Write(1, testLine(1)); err != nil {
		t.Fatalf("an engine Wrap refused was closed: %v", err)
	}
}

package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"attache/internal/core"
	"attache/internal/obs"
	"attache/internal/shard"
	"attache/internal/tier"
)

// modelBatch builds one batch of a seeded mixed sequence over 16 pages
// of 16 lines each: mostly one-op batches, a third of them 2-8 mixed
// ops. The pages spread over the instances, so multi-op batches split.
func modelBatch(rng *rand.Rand) []shard.Op {
	n := 1
	if rng.Intn(3) == 0 {
		n = 2 + rng.Intn(7)
	}
	ops := make([]shard.Op, n)
	for i := range ops {
		ops[i].Addr = uint64(rng.Intn(16))<<pagePrefixBits | uint64(rng.Intn(16))
		if ops[i].Write = rng.Intn(2) == 0; ops[i].Write {
			ops[i].Data = testLine(rng.Uint64())
		}
	}
	return ops
}

// TestClusterAnswersToModel is the reference model's slice at the
// cluster layer. Sequential, seeded runs over 1, 2 and 3 instances of
// 2-shard engines, untiered and with an 8-line LRU near tier, mix two
// tenants — "tight", whose quota runs dry under the frozen admission
// clock, and "free", unlimited — and check every answer against a map of
// acknowledged writes:
//
//   - every ok read returns the model's bytes, and ErrNeverWritten comes
//     back exactly when the model does not hold the address — so a read
//     reaches the instance that took the write, in any later batch;
//   - a failed write leaves the model unchanged;
//   - each tenant's books equal the driver's own ledger, which conserves
//     by construction: ops == ok + shed_quota + shed_backend + errors.
//
// Each configuration runs twice. The faults run adds a seeded FaultPlan
// (injected errors and partial batches). The restore run instead
// restores a second cluster from WriteSnapshot at the midpoint and from
// then on sends every batch to both: they must agree op for op, error
// text included, and end with equal EngineSnapshots. One run cannot do
// both, because a fault injector's position in its stream is runtime
// state no snapshot carries: a restored cluster cannot replay the faults
// the original goes on to inject.
func TestClusterAnswersToModel(t *testing.T) {
	for _, instances := range []int{1, 2, 3} {
		for _, tc := range []struct {
			name string
			tier *tier.Config
		}{
			{"untiered", nil},
			{"lru8", &tier.Config{NearLines: 8, Policy: tier.PolicyLRU}},
		} {
			for _, faults := range []bool{true, false} {
				run := "restore"
				if faults {
					run = "faults"
				}
				t.Run(fmt.Sprintf("instances%d/%s/%s", instances, tc.name, run), func(t *testing.T) {
					answerToModel(t, instances, tc.tier, faults)
				})
			}
		}
	}
}

func answerToModel(t *testing.T, instances int, tc *tier.Config, faults bool) {
	const batches = 600
	clk := newFakeClock()
	cfg := Config{Quotas: map[string]Quota{"tight": {Rate: 32, Burst: 32}}, Now: clk.now}
	shardCfg := shard.Config{Shards: 2, Tier: tc}
	if faults {
		shardCfg.Faults = shard.FaultPlan{Seed: int64(instances), ErrP: 0.05, PartialP: 0.05}
	}
	opts := core.DefaultOptions()
	opts.Seed = 13
	cl, err := New(opts, shardCfg, instances, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	var re *Cluster // restored at the midpoint of a restore run
	model := map[uint64][core.LineSize]byte{}
	ledger := map[string]*TenantSnapshot{}
	var okReads, injected int
	rng := rand.New(rand.NewSource(int64(instances)))
	for b := 0; b < batches; b++ {
		if b == batches/2 {
			// Refill the spent quota: admission state is not part of a
			// snapshot, so a restored cluster starts with full buckets.
			clk.advance(time.Hour)
			if !faults {
				var buf bytes.Buffer
				if err := cl.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				if re, err = RestoreFrom(&buf, shard.Config{}, cfg); err != nil {
					t.Fatalf("restore: %v", err)
				}
				defer re.Close()
				if a, r := cl.EngineSnapshot(), re.EngineSnapshot(); re.Instances() != instances || !reflect.DeepEqual(a, r) {
					t.Fatalf("restored %d instances with books\n%+v\nwant %d with\n%+v", re.Instances(), r, instances, a)
				}
			}
		}

		tenant := "free"
		if rng.Intn(3) == 0 {
			tenant = "tight"
		}
		ctx := obs.ContextWithTenant(t.Context(), tenant)
		ops := modelBatch(rng)
		res, err := cl.DoCtx(ctx, cloneOps(ops))
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if re != nil {
			again, err := re.DoCtx(ctx, cloneOps(ops))
			if err != nil {
				t.Fatalf("batch %d on the restored cluster: %v", b, err)
			}
			for k := range res {
				if !bytes.Equal(res[k].Data, again[k].Data) || errText(res[k].Err) != errText(again[k].Err) {
					t.Fatalf("batch %d op %d: original answered (%x, %v), restored (%x, %v)",
						b, k, res[k].Data, res[k].Err, again[k].Data, again[k].Err)
				}
			}
		}

		book := ledger[tenant]
		if book == nil {
			book = &TenantSnapshot{Tenant: tenant, Class: ClassBestEffort}
			ledger[tenant] = book
		}
		book.Ops += int64(len(ops))
		for k, r := range res {
			op := ops[k]
			want, held := model[op.Addr]
			switch {
			case r.Err == nil && op.Write:
				book.OK++
				model[op.Addr] = [core.LineSize]byte(op.Data)
			case r.Err == nil:
				book.OK++
				okReads++
				if !held || !bytes.Equal(r.Data, want[:]) {
					t.Fatalf("batch %d op %d: read %#x returned something other than its last acked write (model holds it: %v)", b, k, op.Addr, held)
				}
			case errors.Is(r.Err, core.ErrNeverWritten):
				book.Errors++
				if held || op.Write {
					t.Fatalf("batch %d op %d: op at %#x (write=%v) answered never-written; the model holds an acked write: %v", b, k, op.Addr, op.Write, held)
				}
			case errors.Is(r.Err, core.ErrOverloaded):
				// Sequential submission never finds a shard busy, so
				// every shed is the quota's.
				book.ShedQuota++
			case faults && errors.Is(r.Err, shard.ErrFaultInjected):
				book.Errors++
				injected++
			default:
				t.Fatalf("batch %d op %d: error %v cannot come from this run", b, k, r.Err)
			}
		}
	}

	want := []TenantSnapshot{*ledger["free"], *ledger["tight"]}
	if got := cl.TenantSnapshots(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tenant books\n%+v\ndiffer from the driver's ledger\n%+v", got, want)
	}
	if re != nil {
		if a, r := cl.EngineSnapshot(), re.EngineSnapshot(); !reflect.DeepEqual(a, r) {
			t.Fatalf("final books diverged:\noriginal %+v\nrestored %+v", a, r)
		}
	}
	if okReads == 0 || ledger["tight"].ShedQuota == 0 || faults && injected == 0 {
		t.Fatalf("a path was never taken: %d ok reads, %d quota sheds, %d injected faults", okReads, ledger["tight"].ShedQuota, injected)
	}
}

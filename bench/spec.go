package main

import (
	"attache/internal/tier"
	"attache/internal/workload"
)

// servingShards is the engine shape of every serving workload's timed
// run; the ladder of the traced pass uses 1 shard, where the repo's
// bit-identity contracts hold.
const servingShards = 2

// lines64Ki is the address space of the wire and engine workloads.
const lines64Ki = 1 << 16

// servingWorkload is a workload of the serving stack; sim-sweep, the one
// workload of the simulator, lives in simsweep.go.
type servingWorkload struct {
	name, why string
	build     func(seed int64) (*ring, error)
	wire      bool         // over loopback HTTP; false drives shard.Engine in-process
	singleOps bool         // wire: one-op events use /v1/read and /v1/write
	tier      *tier.Config // nil = untiered
	// snapRestore runs the timed pass on an engine restored from a
	// snapshot taken after prefill.
	snapRestore bool
	// ungated keeps the workload out of BENCHMARK.json: it runs by name
	// and with the others, but the PR driver does not judge it.
	ungated bool
}

var servingWorkloads = []*servingWorkload{
	{
		name: "wire-small",
		why:  "one-line /v1/read and /v1/write requests over loopback HTTP, closed loop: client, net/http, handler and JSON dwarf the engine work, so wire-path latency fixes show here and engine fixes must not",
		build: func(seed int64) (*ring, error) {
			return planRing(seed, maxRingEvents, lines64Ki, 7, 3, 0)
		},
		wire: true, singleOps: true,
		// A request is 27 us of net/http, loopback TCP and small
		// allocations around 1 us of this repository's code, and on the
		// sizing sandbox that substrate swings between 27 and 44 us for
		// minutes at a time: quartile spreads of 20-24 % in two sets of
		// ten, against the 25 % a benchmark may declare. Compare it in
		// pairs (README).
		ungated: true,
	},
	{
		name: "wire-batch",
		why:  "64-op /v1/batch requests, closed loop: per-op JSON/base64 encode and decode and result allocation dominate; the throughput counterpart of wire-small",
		build: func(seed int64) (*ring, error) {
			return planRing(seed, batchRingEvents, lines64Ki, 0, 0, 64)
		},
		wire: true,
	},
	{
		name: "engine-read",
		why:  "in-process 64-op batches, 95% reads over half compressible, half hostile lines: Framework.Load, COPR predict/train and decompress do the work and the wire layers none",
		build: func(seed int64) (*ring, error) {
			return batchRing(seed, batchRingEvents, 64, lines64Ki, 5, func(addr, _ uint64) workload.PayloadKind {
				if addr%2 == 0 {
					return workload.PayloadCompressible
				}
				return workload.PayloadHostile
			})
		},
	},
	{
		name: "engine-write",
		why:  "in-process 64-op batches, 90% writes over four payload classes, on an engine restored from a snapshot: Framework.Store (compress, scramble, BLEM pack), with snap on a measured path",
		build: func(seed int64) (*ring, error) {
			kinds := []workload.PayloadKind{workload.PayloadCompressible, workload.PayloadPointer, workload.PayloadHostile, workload.PayloadZero}
			return batchRing(seed, batchRingEvents, 64, lines64Ki, 90, func(_, seq uint64) workload.PayloadKind {
				return kinds[seq%uint64(len(kinds))]
			})
		},
		snapRestore: true,
	},
	{
		name: "tier-hotset",
		why:  "Zipf(1.4) hot set plus a scanner over 16x the near tier, mostly one-op events: tier promotion and demotion do the work, per-submission shard cost is not amortised; engine-* bypass tier",
		build: func(seed int64) (*ring, error) {
			return presetRing("tiered-hotset", seed, maxRingEvents)
		},
		tier: &tier.Config{NearLines: ladderNearLines, Policy: tier.PolicyLRU},
	},
}

// batchRingEvents sizes the rings of 64-op events: 4000 x 64 ops is as
// much input as 20000 events of the small-event workloads carry.
const batchRingEvents = 4000

// ladderNearLines is the near-tier capacity of tier-hotset and of the
// tier rung every traced pass runs.
const ladderNearLines = 1024

func findServing(name string) *servingWorkload {
	for _, w := range servingWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

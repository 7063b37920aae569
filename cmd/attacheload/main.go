// Command attacheload is the deterministic load/chaos harness for the
// attache engine: a seeded open-loop workload of reads, writes, and
// batches driven either at an in-process engine (the default — measures
// the engine itself) or at a running attached daemon over HTTP (-target).
//
// The same -seed always produces the same op sequence regardless of
// -concurrency; the report prints the sequence checksum so two runs can
// be proven to have offered identical work:
//
//	go run ./cmd/attacheload -seed 42 -events 5000 -concurrency 1
//	go run ./cmd/attacheload -seed 42 -events 5000 -concurrency 16
//	# both print plan checksum 0f0b23...
//
// Chaos mode turns on the engine's seeded fault injection:
//
//	go run ./cmd/attacheload -seed 42 -fault-err 0.05 -fault-delay 0.05
//
// Workload scenarios: -scenario runs one of the named generative preset
// workloads (multi-client arrival processes, rate envelopes, and
// per-scenario address/payload generators — see -list-scenarios) instead
// of the flat seeded plan:
//
//	go run ./cmd/attacheload -scenario zipfian-hot-page -events 5000
//
// Replay: -replay re-offers a tracev1 NDJSON capture (recorded by
// attached -record, or exported by any tool speaking the format) in its
// original op order; -pace additionally honors the recorded arrival
// offsets, turning a capture into an open-loop load profile:
//
//	go run ./cmd/attacheload -replay capture.ndjson -pace
//
// Multi-tenant load: -tenants deals a comma-separated tenant list onto
// events round-robin (deterministic, invisible to the plan checksum);
// each event carries its tenant in the X-Attache-Tenant header when
// driving a daemon, and the report breaks ops/sheds/errors down per
// tenant — the harness half of the cluster's admission-control story:
//
//	go run ./cmd/attacheload -target http://localhost:8080 -tenants acme,globex
//
// The report covers throughput, per-kind latency quantiles, shed rate,
// and the full error taxonomy; -json emits it as one JSON object.
// -trace-queue-wait threads a pipeline trace through every event
// (in-process targets only) and adds per-kind queue-wait quantiles —
// the time ops waited for a busy shard's lock —
// so queueing delay can be told apart from service time.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"attache"
	"attache/client"
	"attache/internal/loadgen"
	"attache/internal/obs"
	"attache/internal/tier"
	"attache/internal/workload"
)

func main() {
	var (
		seed        = flag.Int64("seed", 42, "workload seed (same seed, same op sequence)")
		events      = flag.Int("events", 5000, "events to offer (a batch counts as one event)")
		concurrency = flag.Int("concurrency", runtime.GOMAXPROCS(0), "worker goroutines (does not change the op sequence)")
		space       = flag.Uint64("space", 1<<16, "line address space")
		readW       = flag.Int("read-weight", 3, "relative weight of read events")
		writeW      = flag.Int("write-weight", 1, "relative weight of write events")
		batchW      = flag.Int("batch-weight", 1, "relative weight of batch events")
		batchSize   = flag.Int("batch-size", 16, "ops per batch event")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate, events/sec (0 = unpaced)")
		opTimeout   = flag.Duration("op-timeout", 0, "per-event deadline (0 = none)")
		prefill     = flag.Int("prefill", 0, "lines to prefill (0 = space/2, -1 = none)")
		target      = flag.String("target", "", "drive a running attached daemon at this base URL instead of an in-process engine")
		scenario    = flag.String("scenario", "", "run a named generative workload scenario (see -list-scenarios)")
		listScen    = flag.Bool("list-scenarios", false, "list the preset workload scenarios and exit")
		replay      = flag.String("replay", "", "replay a tracev1 NDJSON capture (from attached -record) instead of generating a plan")
		pace        = flag.Bool("pace", false, "honor scenario/replay arrival offsets (open-loop at the recorded times)")
		tenants     = flag.String("tenants", "", "comma-separated tenants dealt round-robin across events (sent as the tenant header)")
		jsonOut     = flag.Bool("json", false, "emit the report as JSON")
		logLevel    = flag.String("log-level", "warn", "harness log level: debug, info, warn, error")
		queueWait   = flag.Bool("trace-queue-wait", false, "trace every event through the engine pipeline and report per-kind queue-wait quantiles (in-process targets only)")

		// In-process engine shape (ignored with -target).
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "engine shard count")
		queueDepth = flag.Int("queue-depth", 64, "per-shard queue depth")
		tierSpec   = flag.String("tiers", "", `two-tier backend spec for the in-process engine, "near=LINES[,policy=lru|freq|static]..." (same syntax as attached -tiers; the report gains a tier section)`)

		// Chaos knobs (in-process only; ignored with -target).
		faultSeed     = flag.Int64("fault-seed", 1, "fault-injection seed")
		faultErr      = flag.Float64("fault-err", 0, "per-op injected-error probability [0,1]")
		faultDelay    = flag.Float64("fault-delay", 0, "per-op injected-delay probability [0,1]")
		faultDelayDur = flag.Duration("fault-delay-dur", 100*time.Microsecond, "injected delay duration")
		faultPartial  = flag.Float64("fault-partial", 0, "per-batch partial-failure probability [0,1]")
	)
	flag.Parse()

	if *listScen {
		for _, name := range workload.Names() {
			fmt.Printf("%-22s %s\n", name, workload.Describe(name))
		}
		return
	}
	if *scenario != "" && *replay != "" {
		log.Fatal("attacheload: -scenario and -replay are mutually exclusive")
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("attacheload: %v", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	var tenantList []string
	if *tenants != "" {
		for _, t := range strings.Split(*tenants, ",") {
			if t = strings.TrimSpace(t); t != "" {
				tenantList = append(tenantList, t)
			}
		}
	}

	cfg := loadgen.Config{
		Seed:           *seed,
		Events:         *events,
		Concurrency:    *concurrency,
		AddrSpace:      *space,
		ReadWeight:     *readW,
		WriteWeight:    *writeW,
		BatchWeight:    *batchW,
		BatchSize:      *batchSize,
		Rate:           *rate,
		OpTimeout:      *opTimeout,
		Prefill:        *prefill,
		Pace:           *pace,
		TraceQueueWait: *queueWait,
		Tenants:        tenantList,
	}

	// Scenario and replay modes bring their own event sequences; both
	// run through loadgen.RunEvents instead of the flat plan.
	var preplanned []loadgen.Event
	switch {
	case *scenario != "":
		spec, err := workload.Preset(*scenario, *seed, *events)
		if err != nil {
			log.Fatalf("attacheload: %v", err)
		}
		preplanned, err = workload.Compose(spec)
		if err != nil {
			log.Fatalf("attacheload: %v", err)
		}
		// The scenario owns the shape of the space and its baseline
		// residency; explicit -space/-prefill still win when given.
		if *space == 1<<16 {
			cfg.AddrSpace = spec.AddrSpace
		}
		if *prefill == 0 {
			cfg.Prefill = spec.Prefill
		}
		cfg.PrefillPayload = workload.PrefillPayload(spec)
		logger.Info("scenario", "name", spec.Name, "events", len(preplanned),
			"clients", len(spec.Clients), "addr_space", cfg.AddrSpace, "prefill", cfg.Prefill)
	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			log.Fatalf("attacheload: %v", err)
		}
		preplanned, err = workload.DecodeTrace(f)
		f.Close()
		if err != nil {
			log.Fatalf("attacheload: %v", err)
		}
		// A capture already contains its own writes; default to no
		// prefill so the replayed run is exactly the recorded load.
		if *prefill == 0 {
			cfg.Prefill = -1
		}
		logger.Info("replay", "path", *replay, "events", len(preplanned),
			"op_checksum", workload.OpChecksum(preplanned))
	}
	// Scenario and replay events bypass Plan, so deal tenants here.
	loadgen.AssignTenants(preplanned, tenantList)

	var tgt loadgen.Target
	if *target != "" {
		if *queueWait {
			logger.Warn("trace-queue-wait ignored: traces do not cross the HTTP boundary", "target", *target)
			cfg.TraceQueueWait = false
		}
		if *tierSpec != "" {
			logger.Warn("tiers ignored: the tier config belongs to the daemon (attached -tiers)", "target", *target)
		}
		tgt = client.New(*target, client.WithRetry(0))
	} else {
		opts := []attache.Option{
			attache.WithShards(*shards),
			attache.WithQueueDepth(*queueDepth),
			attache.WithFaultPlan(attache.FaultPlan{
				Seed:     *faultSeed,
				ErrP:     *faultErr,
				DelayP:   *faultDelay,
				Delay:    *faultDelayDur,
				PartialP: *faultPartial,
			}),
		}
		if *tierSpec != "" {
			tc, err := tier.ParseSpec(*tierSpec)
			if err != nil {
				log.Fatalf("attacheload: -tiers: %v", err)
			}
			opts = append(opts, attache.WithTiers(*tc))
		}
		eng, err := attache.NewEngine(opts...)
		if err != nil {
			log.Fatalf("attacheload: %v", err)
		}
		defer eng.Close()
		tgt = eng
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var rep loadgen.Report
	if preplanned != nil {
		rep, err = loadgen.RunEvents(ctx, tgt, cfg, preplanned)
	} else {
		rep, err = loadgen.Run(ctx, tgt, cfg)
	}
	if err != nil {
		log.Fatalf("attacheload: %v", err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatalf("attacheload: %v", err)
		}
		return
	}
	printReport(rep)
}

// tierCap renders a near-tier capacity (-1 = unbounded).
func tierCap(n int64) string {
	if n < 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d", n)
}

func printReport(rep loadgen.Report) {
	fmt.Printf("plan checksum  %s\n", rep.Checksum)
	fmt.Printf("events         %d\n", rep.Events)
	fmt.Printf("ops            %d offered, %d ok\n", rep.Ops, rep.OpsOK)
	fmt.Printf("duration       %v\n", rep.Duration.Round(time.Millisecond))
	fmt.Printf("throughput     %.0f ops/sec\n", rep.Throughput)
	fmt.Printf("shed rate      %.4f\n", rep.ShedRate)

	kinds := make([]string, 0, len(rep.Latency))
	for k := range rep.Latency {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		q := rep.Latency[k]
		fmt.Printf("latency %-6s p50 %8.1fµs  p90 %8.1fµs  p99 %8.1fµs  max %8.1fµs  (n=%d)\n",
			k, q.P50Micros, q.P90Micros, q.P99Micros, q.MaxMicros, q.Count)
	}
	for _, k := range kinds {
		q, ok := rep.QueueWait[k]
		if !ok {
			continue
		}
		fmt.Printf("qwait   %-6s p50 %8.1fµs  p90 %8.1fµs  p99 %8.1fµs  max %8.1fµs  (n=%d)\n",
			k, q.P50Micros, q.P90Micros, q.P99Micros, q.MaxMicros, q.Count)
	}

	labels := make([]string, 0, len(rep.Errors))
	for l := range rep.Errors {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Printf("errors %-12s %d\n", l, rep.Errors[l])
	}
	if len(labels) == 0 {
		fmt.Println("errors         none")
	}

	if t := rep.Tiers; t != nil {
		fmt.Printf("tiers  %-12s near %d resident / %s cap, far %d resident\n",
			t.Policy, t.NearResident, tierCap(t.NearCapacity), t.FarResident)
		fmt.Printf("tier traffic   near %d reads %d writes, far %d reads %d writes, %d promoted %d demoted\n",
			t.NearReads, t.NearWrites, t.FarReads, t.FarWrites, t.Promotions, t.Demotions)
		fmt.Printf("far link       %.0f bytes, %.0fµs modeled latency, %.0f pJ total energy\n",
			t.FarLinkBytes, t.FarLatencyNs/1e3, t.EnergyPJ)
	}

	if len(rep.PerTenant) > 0 {
		names := make([]string, 0, len(rep.PerTenant))
		for name := range rep.PerTenant {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			tr := rep.PerTenant[name]
			fmt.Printf("tenant %-12s events %6d  ops %6d offered, %6d ok, %6d shed\n",
				name, tr.Events, tr.Ops, tr.OpsOK, tr.Shed)
		}
	}
}

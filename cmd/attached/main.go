// Command attached serves an Attaché sharded compressed-memory engine
// over HTTP: line reads/writes, multi-op batches, a stats snapshot, a
// liveness probe, and Prometheus metrics.
//
//	go run ./cmd/attached -addr :8080 -shards 8
//
//	curl -s localhost:8080/v1/write -d '{"addr":42,"data":"'"$(head -c64 /dev/zero | base64)"'"}'
//	curl -s localhost:8080/v1/read  -d '{"addr":42}'
//	curl -s localhost:8080/v1/batch -d '{"op":"read","addr":42}
//	{"op":"write","addr":43,"data":"..."}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//
// Observability: logs are structured (log/slog, level set by
// -log-level); -trace-sample samples that fraction of requests into the
// trace ring, browsable at /v1/trace and /v1/trace/{id} (clients opt in
// per request with an X-Attache-Trace header); /debug/pprof/* is
// mounted unless -pprof=false; per-shard gauges are read live at
// /metrics and /v1/stats.
//
// Record/replay: -record captures every op the data endpoints offer to
// the engine as a versioned NDJSON trace (tracev1) — in submission
// order, before admission, payloads included — so one live session can
// be replayed later, byte-deterministically, as a regression workload:
//
//	go run ./cmd/attached -record capture.ndjson
//	... traffic ...
//	go run ./cmd/attacheload -replay capture.ndjson
//
// Tenancy: the engine sits behind per-tenant token-bucket admission
// (-quotas "acme=5000,globex=1000:2000", -default-quota) and SLO classes
// (-classes "acme=gold"). Clients name their tenant in the
// X-Attache-Tenant header; /v1/stats (schema v3) reports per-shard,
// per-class, and per-tenant breakdowns plus a Jain fairness index. With
// no quotas, the daemon serves every batch exactly as the bare engine
// would. Each address lives on one shard, so a read always reaches the
// shard that took the write.
//
// SIGTERM/SIGINT starts a graceful drain: the listener stops accepting,
// in-flight requests finish (bounded by -shutdown-timeout), the engine's
// pipelines drain, and the daemon logs a final stats snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"attache"
	"attache/internal/cluster"
	"attache/internal/obs"
	"attache/internal/serve"
	"attache/internal/shard"
	"attache/internal/tier"
	"attache/internal/workload"
)

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		shards          = flag.Int("shards", runtime.GOMAXPROCS(0), "shard count (independent Memory pools)")
		queueDepth      = flag.Int("queue-depth", 64, "per shard, the submitters that may wait for a busy shard before requests for it are shed (429)")
		maxLines        = flag.Uint64("max-lines", 0, "line-address capacity (0 = unbounded)")
		cidBits         = flag.Int("cid-bits", attache.DefaultOptions().CIDBits, "Compression ID width in bits [1,15]")
		seed            = flag.Int64("seed", attache.DefaultOptions().Seed, "CID/scrambler seed")
		noPredictor     = flag.Bool("no-predictor", false, "disable COPR (conservative two-block reads)")
		extended        = flag.Bool("extended", false, "enable the CPack extended compression engine")
		readTimeout     = flag.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTimeout    = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		idleTimeout     = flag.Duration("idle-timeout", 120*time.Second, "HTTP keep-alive idle timeout")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "max time to drain on SIGTERM")
		maxBatch        = flag.Int("max-batch", 4096, "max ops per /v1/batch request")
		retryAfter      = flag.Duration("retry-after", time.Second, "Retry-After hint sent with 429 responses")
		record          = flag.String("record", "", "capture offered ops to this tracev1 NDJSON file for later -replay")

		// Tiered-memory + snapshot knobs. -tiers puts a near (uncompressed)
		// tier in front of each shard's compressed memory, modeling a
		// DRAM-over-CXL split; -snapshot-on-drain and -restore round-trip
		// the full engine state (memory contents, predictor state, tier
		// residency) through a snapv1 image so a restart is behaviorally
		// seamless.
		tiers           = flag.String("tiers", "", `two-tier backend spec, "near=LINES[,policy=lru|freq|static][,freq-threshold=N][,freq-decay=N][,pin=PREFIX@SHIFT][,lat=NS][,bw=MULT][,near-energy=PJ][,far-energy=PJ]" (near=-1 = unbounded)`)
		snapshotOnDrain = flag.String("snapshot-on-drain", "", "write a snapv1 state snapshot to this path after the drain completes")
		restore         = flag.String("restore", "", "restore engine state from this snapv1 snapshot at startup (snapshot is authoritative for options, tier config and shard count)")

		// Tenancy knobs: per-tenant admission quotas and SLO classes.
		quotas       = flag.String("quotas", "", `per-tenant admission quotas, "tenant=rate[:burst],..." in ops/sec (e.g. "acme=5000,globex=1000:2000")`)
		defaultQuota = flag.String("default-quota", "", `quota shape for tenants without an explicit one, "rate[:burst]" (empty = unlimited)`)
		classes      = flag.String("classes", "", `per-tenant SLO classes, "tenant=class,..." with class gold|silver|best-effort (unmapped tenants are best-effort)`)

		// Observability knobs.
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error (access logs for 2xx log at debug)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of requests to trace [0,1]; explicit X-Attache-Trace requests are always traced")
		traceRing   = flag.Int("trace-ring", 1024, "completed traces retained for /v1/trace lookup")
		pprof       = flag.Bool("pprof", true, "mount /debug/pprof/*")

		// Chaos knobs: seeded fault injection on the shard pipelines, for
		// resilience testing with cmd/attacheload. All off by default.
		faultSeed     = flag.Int64("fault-seed", 1, "fault-injection seed")
		faultErr      = flag.Float64("fault-err", 0, "per-op injected-error probability [0,1]")
		faultDelay    = flag.Float64("fault-delay", 0, "per-op injected-delay probability [0,1]")
		faultDelayDur = flag.Duration("fault-delay-dur", 100*time.Microsecond, "injected delay duration")
		faultPartial  = flag.Float64("fault-partial", 0, "per-batch partial-failure probability [0,1]")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("attached: %v", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	observer := obs.New(obs.Config{
		Logger:     logger,
		SampleRate: *traceSample,
		RingSize:   *traceRing,
	})

	opts := attache.DefaultOptions()
	opts.CIDBits = *cidBits
	opts.Seed = *seed
	opts.DisablePredictor = *noPredictor
	opts.ExtendedCompression = *extended
	shardCfg := shard.Config{
		Shards:     *shards,
		QueueDepth: *queueDepth,
		MaxLines:   *maxLines,
		Faults: attache.FaultPlan{
			Seed:     *faultSeed,
			ErrP:     *faultErr,
			DelayP:   *faultDelay,
			Delay:    *faultDelayDur,
			PartialP: *faultPartial,
		},
	}
	quotaMap, err := parseQuotas(*quotas)
	if err != nil {
		log.Fatalf("attached: -quotas: %v", err)
	}
	var fallback cluster.Quota
	if *defaultQuota != "" {
		if fallback, err = parseQuota(*defaultQuota); err != nil {
			log.Fatalf("attached: -default-quota: %v", err)
		}
	}
	classMap, err := parseClasses(*classes)
	if err != nil {
		log.Fatalf("attached: -classes: %v", err)
	}
	if *tiers != "" {
		tc, err := tier.ParseSpec(*tiers)
		if err != nil {
			log.Fatalf("attached: -tiers: %v", err)
		}
		shardCfg.Tier = tc
	}
	clusterCfg := cluster.Config{
		Quotas:       quotaMap,
		DefaultQuota: fallback,
		Classes:      classMap,
	}
	var cl *cluster.Cluster
	if *restore != "" {
		if *tiers != "" {
			log.Fatalf("attached: -restore and -tiers are mutually exclusive (the snapshot carries the tier configuration)")
		}
		// The snapshot is authoritative for the shard count; -shards is
		// ignored on restore.
		shardCfg.Shards = 0
		f, err := os.Open(*restore)
		if err != nil {
			log.Fatalf("attached: -restore: %v", err)
		}
		cl, err = cluster.RestoreFrom(f, shardCfg, clusterCfg)
		f.Close()
		if err != nil {
			log.Fatalf("attached: -restore %s: %v", *restore, err)
		}
		logger.Info("restored", "path", *restore, "shards", cl.Shards())
	} else {
		cl, err = cluster.New(opts, shardCfg, clusterCfg)
		if err != nil {
			log.Fatalf("attached: %v", err)
		}
	}

	var recorder *workload.TraceWriter
	var recordFile *os.File
	if *record != "" {
		recordFile, err = os.Create(*record)
		if err != nil {
			log.Fatalf("attached: -record: %v", err)
		}
		recorder = workload.NewTraceWriter(recordFile)
	}

	cfg := serve.Config{
		Addr:            *addr,
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
		IdleTimeout:     *idleTimeout,
		ShutdownTimeout: *shutdownTimeout,
		MaxBatchOps:     *maxBatch,
		RetryAfter:      *retryAfter,
		Obs:             observer,
		EnablePprof:     *pprof,
	}
	if recorder != nil {
		cfg.Record = recorder
	}
	srv := serve.NewCluster(cl, cfg)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	go func() {
		<-srv.Ready()
		logger.Info("serving",
			"addr", srv.Addr(), "shards", cl.Shards(), "queue_depth", *queueDepth,
			"sram_overhead_kb", cl.EngineSnapshot().SRAMBytes>>10,
			"trace_sample", *traceSample, "pprof", *pprof)
	}()
	err = srv.ListenAndServe(ctx)

	if recorder != nil {
		if ferr := recorder.Flush(); ferr != nil {
			logger.Warn("record capture incomplete", "path", *record, "err", ferr)
		}
		if cerr := recordFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
		logger.Info("capture written", "path", *record, "events", recorder.Events())
	}

	if *snapshotOnDrain != "" {
		// The engine is closed (drained) here, so the export is a final,
		// globally exact image. Write-then-rename so a crash mid-write
		// never leaves a truncated snapshot at the target path.
		if werr := writeSnapshotFile(cl, *snapshotOnDrain); werr != nil {
			logger.Warn("snapshot-on-drain failed", "path", *snapshotOnDrain, "err", werr)
			if err == nil {
				err = werr
			}
		} else {
			logger.Info("snapshot written", "path", *snapshotOnDrain)
		}
	}

	snap := cl.EngineSnapshot().Total
	logger.Info("drained",
		"reads", snap.Reads, "writes", snap.Writes, "lines", snap.Lines,
		"compressed_ratio", snap.CompressedLineRatio(),
		"bandwidth_saved", snap.BandwidthSavings(),
		"copr_accuracy", snap.PredictionAccuracy,
		"jain_fairness", cl.JainFairness())
	if err != nil {
		log.Fatalf("attached: %v", err)
	}
}

// writeSnapshotFile writes the cluster's snapv1 image to path via a
// same-directory temp file and an atomic rename. The file is synced
// before the rename and the directory after it, so a crash cannot leave
// the name pointing at data that never reached the disk, nor forget the
// rename. A failure leaves any earlier file at path, and no temp file.
func writeSnapshotFile(cl *cluster.Cluster, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(cl.Snapshot())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// parseQuota parses "rate[:burst]" into a Quota, e.g. "5000" or
// "1000:2000".
func parseQuota(s string) (cluster.Quota, error) {
	rateStr, burstStr, hasBurst := strings.Cut(s, ":")
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || !finiteNonNegative(rate) {
		return cluster.Quota{}, fmt.Errorf("bad rate %q (want ops/sec)", rateStr)
	}
	q := cluster.Quota{Rate: rate}
	if hasBurst {
		burst, err := strconv.ParseFloat(burstStr, 64)
		if err != nil || !finiteNonNegative(burst) {
			return cluster.Quota{}, fmt.Errorf("bad burst %q (want ops)", burstStr)
		}
		q.Burst = burst
	}
	return q, nil
}

// finiteNonNegative reports whether f is a usable rate or burst.
// ParseFloat accepts "NaN" and "Inf", and a NaN quota compares false
// against every bound, so the admitter would never refuse its tenant.
func finiteNonNegative(f float64) bool { return f >= 0 && !math.IsInf(f, 1) }

// parseQuotas parses "tenant=rate[:burst],..." into per-tenant quotas.
func parseQuotas(s string) (map[string]cluster.Quota, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]cluster.Quota)
	for _, part := range strings.Split(s, ",") {
		tenant, spec, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("bad entry %q (want tenant=rate[:burst])", part)
		}
		q, err := parseQuota(spec)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", tenant, err)
		}
		out[tenant] = q
	}
	return out, nil
}

// parseClasses parses "tenant=class,..." into per-tenant SLO classes.
func parseClasses(s string) (map[string]cluster.Class, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]cluster.Class)
	for _, part := range strings.Split(s, ",") {
		tenant, class, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("bad entry %q (want tenant=class)", part)
		}
		switch c := cluster.Class(class); c {
		case cluster.ClassGold, cluster.ClassSilver, cluster.ClassBestEffort:
			out[tenant] = c
		default:
			return nil, fmt.Errorf("tenant %q: unknown class %q (want gold, silver, or best-effort)", tenant, class)
		}
	}
	return out, nil
}

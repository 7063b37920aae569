# Developer entry points. Everything here is a thin wrapper over go
# tooling and scripts/ so CI and local runs stay identical.

GO ?= go

.PHONY: build test race bench bench-gate bench-pin fmt vet scenarios scenarios-update \
	ci fmt-check crossover bench-module loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Mirror of CI's test job (minus the race passes, which `make race`
# covers): run this before pushing and the test job cannot surprise you.
ci: vet fmt-check build test bench-module loc
	./scripts/coverage_ratchet.sh

# bench/ is a module of its own, outside ./...: vet and test it here so
# a removed API it imports from the main module fails before the push.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The size metric ROADMAP aim 2 tracks, as a ratchet: non-test Go lines
# outside bench/ may not exceed scripts/loc_baseline.txt. A PR that shrinks
# the tree lowers the file; one that must grow it raises the file and says
# why in CHANGES.md. bench/ is counted on a line of its own, ungated.
loc:
	@n=$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l); \
	max=$$(cat scripts/loc_baseline.txt); \
	echo "$$n non-test Go lines outside bench/ (baseline $$max)"; \
	echo "$$(find bench -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) non-test Go lines in bench/"; \
	[ "$$n" -le "$$max" ] || { echo "loc: FAIL — the tree grew past its baseline"; exit 1; }

# gofmt as a check (CI mode), not a rewrite: lists offending files and
# fails, leaving the tree untouched.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Assert the sharding crossover claim (shards4 beats baseline-memory
# wall-clock) — CI's crossover job. Skips below 4 CPUs.
crossover:
	./scripts/crossover_gate.sh

race:
	$(GO) test -race ./...

# The benchmarks the gate pins, the simulator kernel's rung (the event
# queue on a sweep's own mix of schedule distances), the warm-image rung (a
# simulation that warms its own LLC against one that restores an image),
# the core.Memory rung between Framework.Store and the sharded engine
# (Store/LoadInto plus the line table, over 32 Ki lines), then the wire
# rungs of the ladder (codec, handler, client over loopback), once, with
# allocation counts.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput$$' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkScheduleStep$$' -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkRunWarm$$' -benchmem ./internal/exp
	$(GO) test -run '^$$' -bench 'BenchmarkShardedThroughput$$|BenchmarkSubmitLatency$$' -benchmem ./internal/shard
	$(GO) test -run '^$$' -bench 'BenchmarkFrameworkStore$$|BenchmarkMemoryWrite$$|BenchmarkMemoryReadInto$$' -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkWireCodec$$' -benchmem ./internal/wire
	$(GO) test -run '^$$' -bench 'BenchmarkHandlerBatch64$$' -benchmem ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkClientLoopbackBatch64$$' -benchmem ./client

# Compare min-of-5 against scripts/bench_baseline.txt; fails on
# regression and on >BENCH_GATE_IMPROVE_TOL% unexplained improvement.
bench-gate:
	./scripts/bench_gate.sh

# Re-pin scripts/bench_baseline.txt (and BENCH_24.json, its summary; the
# earlier BENCH_<pr>.json files stay as the trajectory) via
# min-of-5 in one step. Run this
# on the machine the gate will run on, and commit the result together
# with the change that moved the numbers.
bench-pin:
	UPDATE=1 ./scripts/bench_gate.sh

# Run every preset workload scenario against its golden behavioral
# profile (internal/workload/testdata/golden/).
scenarios:
	$(GO) test ./internal/workload -count=1 -run 'TestScenarioGolden' -v

# Regenerate the golden profiles after an intentional behavior change;
# commit the diff together with the change and a justification.
scenarios-update:
	$(GO) test ./internal/workload -count=1 -run 'TestScenarioGolden' -update

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# Developer entry points. Everything here is a thin wrapper over go
# tooling and scripts/ so CI and local runs stay identical.

GO ?= go

.PHONY: build test race bench fmt vet scenarios scenarios-update \
	ci fmt-check bench-module loc fuzz cross

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Mirror of CI's test job (minus the race passes, which `make race`
# covers): run this before pushing and the test job cannot surprise you.
ci: vet fmt-check build cross test bench-module loc
	./scripts/coverage_ratchet.sh

# internal/prefetch is assembly on amd64 and a no-op elsewhere: arm64 and
# 386 keep the fallback compiling, as `make vet`'s asmdecl keeps the
# amd64 stub true to its Go declaration.
cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...

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

# The fuzz smoke, CI's fuzz job: every fuzz target for 10 s each.
# `go test -fuzz` takes one target per invocation, so the targets are
# found, not named — a new Fuzz function joins by existing. `go test
# -list` compiles a package's external test package too, which is where
# FuzzSnapshotRoundTrip lives. The floor keeps a listing that silently
# came back empty from passing.
fuzz:
	@set -eu; n=0; \
	for pkg in $$($(GO) list ./...); do \
		listed="$$($(GO) test -list '^Fuzz' "$$pkg")"; \
		for target in $$(printf '%s\n' "$$listed" | grep '^Fuzz' || true); do \
			$(GO) test "$$pkg" -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s; \
			n=$$((n + 1)); \
		done; \
	done; \
	echo "fuzz smoke: $$n targets"; \
	[ "$$n" -ge 24 ] || { echo "fuzz smoke: found $$n fuzz targets, want at least 24"; exit 1; }

# gofmt as a check (CI mode), not a rewrite: lists offending files and
# fails, leaving the tree untouched.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# The package benchmark rungs, once, with allocation counts: the
# simulator kernel (the event queue on a sweep's own mix of schedule
# distances), the warm-image rung (a simulation that warms its own LLC
# against one that restores an image), the sharded engine and its submit
# path, Framework.Store and the core.Memory rung above it (Store/LoadInto
# plus the line table, over 32 Ki lines; the table's GC cycle, heap and
# slowest Write at 1 Mi lines, once), the cluster rung (64-op batches
# through Cluster.DoCtx and the bare engine, with their same-run ratio),
# then the wire rungs (codec, handler, client over loopback). They measure; the allocation pins that
# gate are tests (go test -run 'Alloc' ./...), and the end-to-end ruler
# is bench/.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkScheduleStep$$' -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkRunWarm$$' -benchmem ./internal/exp
	$(GO) test -run '^$$' -bench 'BenchmarkShardedThroughput$$|BenchmarkSubmitLatency$$' -benchmem ./internal/shard
	$(GO) test -run '^$$' -bench 'BenchmarkFrameworkStore$$|BenchmarkMemoryWrite$$|BenchmarkMemoryReadInto$$' -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkMemoryTable$$' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkClusterBatch64$$' -benchmem ./internal/cluster
	$(GO) test -run '^$$' -bench 'BenchmarkWireCodec$$' -benchmem ./internal/wire
	$(GO) test -run '^$$' -bench 'BenchmarkHandlerBatch64$$' -benchmem ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkClientLoopbackBatch64$$' -benchmem ./client

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

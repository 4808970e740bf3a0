GO ?= go
GOFILES := $(shell git ls-files '*.go')

.PHONY: test vet lint race soak-chaos soak-rebalance fuzz-short obs-smoke health-smoke bench-smoke bench-test ckpt-smoke index-smoke subscribe-smoke verify

# Tier-1: what CI gates on.
test:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Lint gate: vet plus gofmt over every tracked Go file. Fails with the
# offending file list if anything is unformatted.
lint: vet
	@unformatted="$$(gofmt -l $(GOFILES))"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# Short deterministic chaos soak under the race detector: seed 1's fault
# schedule (mid-checkpoint node crash, coordinator-worker partition,
# dropped barrier, duplicated ack, stalled/unreachable partitions) against
# the exactly-once oracle check — with tracing on (1-in-16), so the run
# also asserts fired faults left chaos spans and no trace leaked.
soak-chaos:
	$(GO) run -race ./cmd/squery-soak -chaos -seed 1 -duration 5s

# Short deterministic rebalance soak under the race detector: nodes join
# and leave mid-run with seed-derived migration faults (source killed
# mid-handoff, target killed pre-ack, dropped epoch-bump broadcast,
# stalled migrations), verified exactly-once against a static-cluster
# oracle with the forced-write backstop required cold. Runs once over the
# simulated wire and once over loopback TCP; -duration bounds the
# convergence wait, not the run length.
soak-rebalance:
	$(GO) run -race ./cmd/squery-soak -chaos-rebalance -seed 1 -duration 30s
	$(GO) run -race ./cmd/squery-soak -chaos-rebalance -seed 2 -duration 30s -transport tcp

# End-to-end smoke of the HTTP observability plane: boots the real
# squery binary with -serve-obs, waits for /healthz and /readyz, scrapes
# /metrics through the strict Prometheus validator, and checks /tracez
# and pprof answer.
obs-smoke:
	chmod +x scripts/obs-smoke.sh
	./scripts/obs-smoke.sh

# End-to-end smoke of the pipeline health plane: boots squery with an
# injected stage stall, checks /statusz renders lag/pressure/history,
# /metrics carries the health families (promcheck -require), and the
# sys.watermarks / sys.backpressure / sys.history / sys.slow_queries
# tables attribute the stall over the live SQL prompt.
health-smoke:
	chmod +x scripts/health-smoke.sh
	./scripts/health-smoke.sh

# Short fuzz wall: 30s per target. The SQL front end (parser, lexer,
# planner), the wire codec and the delta-chain reader must be total —
# errors, never panics — on arbitrary input, and the codec canonical;
# every retractable aggregate accumulator must equal a refold of the
# values still in after any insert/retract sequence.
fuzz-short:
	$(GO) test ./internal/sql -fuzz FuzzParse -fuzztime 30s -run '^$$'
	$(GO) test ./internal/sql -fuzz FuzzLexer -fuzztime 30s -run '^$$'
	$(GO) test ./internal/sql -fuzz FuzzPlan -fuzztime 30s -run '^$$'
	$(GO) test ./internal/sql -fuzz FuzzAggRetract -fuzztime 30s -run '^$$'
	$(GO) test ./internal/persist -fuzz FuzzDeltaChain -fuzztime 30s -run '^$$'
	$(GO) test ./internal/wire -fuzz FuzzWire -fuzztime 30s -run '^$$'

# Incremental-checkpoint smoke: the crash-recovery suite (every crash
# point of the segment/manifest protocol restores the last committed
# snapshot), the base+delta-chain vs full-restore parity across both
# transports, and the ckpt-scale harness shape check (delta runs write
# delta segments, the full baseline none, bytes/ckpt track the delta).
ckpt-smoke:
	$(GO) test ./internal/persist -run 'TestCrash|FuzzDeltaChain' -count=1 -v
	$(GO) test . -run 'TestIncrementalRecoveryParity' -race -count=1 -v
	$(GO) test ./internal/experiments -run 'TestCkptScaleShape' -count=1 -v

# Perf smoke over the serialization, join, index and read hot paths. The
# allocation guards are hard gates (zero-alloc scalar and struct-row encode
# in the wire codec, one allocation per decoded struct, zero-alloc delta
# segments and mirror-flush batches, alloc-free key hashing, single-alloc
# blob snapshot keys, bounded-alloc indexed puts, a GetAll that allocates
# its result only, Query 3 under 0.25 objects per table row, a key-lookup
# point read under 100 objects that examines one row, an aggregate
# standing query's update allocating the same in a group of 100 members as
# in one of 10 000); the standing-query
# parity runs hold the one compiled plan to both drive modes — a standing
# query folds signed rows through the plan, filters and group form the
# one-shot fragments run, and TestDifferentialStanding checks its folded
# views against one-shot results; the short benchmark pass prints codec
# (scalar, struct row, and the gob path it replaced), typed joinKey, unary
# and batched put and indexed-put numbers so regressions show up in CI logs
# next to the gate.
bench-smoke:
	$(GO) test ./internal/wire ./internal/core -run 'TestZeroAllocScalarEncode|TestZeroAllocStructEncode|TestStructDecodeAllocs|TestBlobKeyAllocs' -count=1 -v
	$(GO) test ./internal/persist -run 'TestDeltaEncodeAllocs' -count=1 -v
	$(GO) test ./internal/kv -run 'TestIndexedPutAllocs|TestPutBatchAllocs|TestGetAllAllocs' -count=1 -v
	$(GO) test ./internal/partition -run 'TestHashAllocs' -count=1 -v
	$(GO) test ./internal/sql -run 'TestJoinFoldAllocs|TestKeyLookupAllocs|TestStandingAggDeltaAllocs|TestDifferentialStanding' -count=1 -v
	$(GO) test . -run 'TestSubscribeParity$$' -count=1 -v
	$(GO) test ./internal/wire -run '^$$' -bench 'BenchmarkAppendValue|BenchmarkDecodeValue|BenchmarkGobValue' -benchtime 1000x
	$(GO) test ./internal/persist -run '^$$' -bench 'BenchmarkAppendDeltaSegment' -benchtime 1000x
	$(GO) test ./internal/sql -run '^$$' -bench 'BenchmarkJoinKey' -benchtime 1000x
	$(GO) test ./internal/kv -run '^$$' -bench 'BenchmarkPut|BenchmarkIndexedPut|BenchmarkUnindexedRowPut' -benchtime 1000x

# The benchmark (BENCHMARK.json, bench/) is its own module that imports
# internal/ packages, so `go build ./...` here never compiles it: vet it and
# run its stats tests and smoke run, so an internal/ signature change breaks
# this target before it breaks a benchmark run.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Index smoke: the access-path parity suite (index results ≡ full-scan
# results for every plannable shape), index survival across an online
# rebalance, sys.indexes accounting (repeated: it once depended on whether
# the source beat CreateIndex), and the quick mode of the `squery-bench
# -exp index` harness (rows_scanned must drop to the probe's selectivity).
index-smoke:
	$(GO) test ./internal/sql -run 'TestIndexParity|TestIndexScanStatsAndAnalyze|TestIndexRangeBoundsMerge' -count=1 -v
	$(GO) test . -run 'TestIndexSurvivesRebalance' -race -count=1 -v
	$(GO) test . -run 'TestSysIndexesTable' -race -count=20
	$(GO) test ./internal/experiments -run 'TestIndexExpShape' -count=1 -v

# Standing-query smoke: boots the live binary, drives `\watch` and the
# SSE /subscribe endpoint against the running job, checks that
# sys.subscriptions / sys.arrangements account for the live subscriber
# and that /metrics carries the squery_sub_* families (promcheck
# -require), then the tap contract the arrangement relies on (every entry
# point and every wholesale reset delivers the replaced value, resets as
# deltas, and a partition read brackets an attach), the arrangement suite
# (its attach-while-writing clean cut repeated: a lock-order regression
# shows as a deadlock or a race report), the standing query's own suite
# with the standing arm of the differential oracle (including its
# attach-racing arm), and the engine's subscription suite
# (subscribe-vs-poll parity, and no goroutine per subscription or after
# Engine.Close), all under -race.
subscribe-smoke:
	chmod +x scripts/subscribe-smoke.sh
	./scripts/subscribe-smoke.sh
	$(GO) test ./internal/kv -run 'TestTap|TestDetachTap|TestEntryPointEquivalence|TestResetPaths' -race -count=1 -v
	$(GO) test ./internal/core -run 'TestArrangement' -race -count=1 -v
	$(GO) test ./internal/core -run 'TestArrangementAttachCleanCut' -race -count=20
	$(GO) test ./internal/sql -run 'TestDifferentialStanding|TestSubscribe|TestStandingQuery' -race -count=1 -v
	$(GO) test . -run 'TestSubscribe' -race -count=1 -v
	$(GO) test ./internal/experiments -run 'TestSubscribeExpShape' -count=1 -v

verify: lint race soak-chaos soak-rebalance bench-smoke bench-test ckpt-smoke index-smoke health-smoke subscribe-smoke

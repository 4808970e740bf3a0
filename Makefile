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
# values still in after any insert/retract sequence; every engine path
# must answer a generated query (fixture and query seed fuzzed) as the
# naive evaluation of the differential oracle does; and a standing query
# of a generated query must open with the naive answer and, after a wave
# of writes, hold the one-shot result; and every kv index lookup must
# return a superset of a naive filter (exactly it on a homogeneous
# column), with estimates and reference counts equal to the naive ones,
# after any sequence of writes, resets and rebuilds. The differential
# targets are anchored: -fuzz takes a regexp and must match exactly one
# target.
fuzz-short:
	$(GO) test ./internal/sql -fuzz FuzzParse -fuzztime 30s -run '^$$'
	$(GO) test ./internal/sql -fuzz FuzzLexer -fuzztime 30s -run '^$$'
	$(GO) test ./internal/sql -fuzz FuzzPlan -fuzztime 30s -run '^$$'
	$(GO) test ./internal/sql -fuzz FuzzAggRetract -fuzztime 30s -run '^$$'
	$(GO) test ./internal/sql -fuzz '^FuzzDifferential$$' -fuzztime 30s -run '^$$'
	$(GO) test ./internal/sql -fuzz '^FuzzDifferentialStanding$$' -fuzztime 30s -run '^$$'
	$(GO) test ./internal/persist -fuzz FuzzDeltaChain -fuzztime 30s -run '^$$'
	$(GO) test ./internal/wire -fuzz FuzzWire -fuzztime 30s -run '^$$'
	$(GO) test ./internal/kv -fuzz FuzzIndexModel -fuzztime 30s -run '^$$'
	$(GO) test ./internal/core -fuzz FuzzSnapshotRuns -fuzztime 30s -run '^$$'

# Incremental-checkpoint smoke: the crash-recovery suite (every crash
# point of the segment/manifest protocol restores the last committed
# snapshot), the base+delta-chain vs full-restore parity across both
# transports, and the ckpt-scale harness shape check (delta runs write
# delta segments, the full baseline none, bytes/ckpt track the delta).
# Under -race: a Live backend's state (the live map itself) against the
# incremental model through checkpoints and restores, a restore handing
# taps only the keys that differ, a resubmitted job starting empty, an
# archive opened under a running job's operator name refused before it
# imports anything, the snapshot run sets against the naive version model
# (scan, point lookup, hash and B-tree probes, backup replica) through
# drains, commits, aborts, merges and restores, a failover keeping the
# keys changed since the last snapshot, a restore past a drained but
# aborted round shadowing that round's runs (in core, and through a
# pre-commit crash in a running job), an aborted round's blobs dropped, a
# standby failover over a failed node's kv backups with no standby map,
# the standby choice taken from the stateful vertices (a DAG whose
# vertices disagree refused), a backend without Snapshots keeping no dirty
# set, a bottom snapshot run shedding evicted versions under newer runs, a
# run spanning 2^40 snapshot ids, and an undecodable snapshot failing
# recovery with an error and no goroutine left. Phase-1 acks come from the
# drainers of stateful instances: a lost, a duplicated and a
# killed-in-flight ack, a source's ack delayed past its retirement (never
# counted), and, repeated, an instance that acks and retires before the
# coordinator reads either (its retirement must arrive behind its ack, or
# the round aborts).
ckpt-smoke:
	$(GO) test ./internal/persist -run 'TestCrash|FuzzDeltaChain' -count=1 -v
	$(GO) test . -run 'TestIncrementalRecoveryParity|TestResubmittedJobStartsEmpty|TestOpenArchiveRefusesRunningOperator|TestSnapshotJoinHoldsItsIDsAcrossCommits' -race -count=1 -v
	$(GO) test ./internal/core -run 'TestIncrementalMatchesModel/live|TestRestoreHandsTapsOnlyChangedKeys|TestSnapshotRunsMatchModel|TestPromoteStandbyKeepsChangedKeys|TestRestoreShadowsAbortedRound|TestManagerAbortDropsBlobs|TestDirtySetOnlyWithSnapshots|TestPlanEvictsBottomUnderNewerRuns|TestRunWideSpan|TestLeaseKeepsRetiredIDReadable|TestSnapshotHeldCompactly|TestChainPrune' -race -count=1 -v
	$(GO) test ./internal/snapshot -run 'TestHoldLeasesRetainedIDs|TestHoldRacesEviction|TestCommitWrongIDFails' -race -count=1 -v
	$(GO) test ./internal/dataflow -run 'TestRestoreErrorFailsRecovery|TestPreCommitCrashRestoreShadowsDrainedRound|TestStandbyFailoverNoRollback|TestStandbyChosenByVertices|TestAckLossAbortsAndRetries|TestDuplicatedAckIsDeduped|TestKillDuringCheckpointAbortsExactlyOnce|TestDelayedAckAfterRetirementNotCounted' -race -count=1 -v
	$(GO) test ./internal/dataflow -run 'TestAckThenRetireCommits' -race -count=20
	$(GO) test ./internal/experiments -run 'TestCkptScaleShape' -count=1 -v

# Perf smoke over the serialization, join, index and read hot paths. The
# allocation guards are hard gates (zero-alloc scalar and struct-row encode
# in the wire codec, one allocation per decoded struct, zero-alloc delta
# segments and mirror-flush batches, alloc-free key hashing, single-alloc
# blob snapshot keys, a Live backend holding no live heap beyond its live
# map's, snapshot state held in at most 76 B per key, indexed puts that add nothing for an unchanged column
# (MapRow and struct row) and at most 0.05 allocations for a moving one,
# an indexed range probe over every partition that allocates nothing, a
# GetAll that allocates its result only, Query 3 under 0.25 objects per
# table row, a grouped scan
# allocating the same over 10 000 rows as over 1 000, a key-lookup
# point read under 100 objects that examines one row, an aggregate
# standing query's update allocating the same in a group of 100 members as
# in one of 10 000, a filter and a co-partitioned join standing query's
# update staying at its allocation ceiling — evaluating a delta as a batch
# of one allocates nothing extra — and a standing template's update
# allocating the same with 1 and with 1 000 non-matching parameter tuples
# attached); the kv segment lock's two checks run under -race repeated (a
# writer waiting behind a partition read is a counted lock wait, and
# concurrent read-modify-write batches over shared keys lose no update);
# the standing-query
# parity runs hold the one compiled plan and its one evaluator to both
# drive modes — a standing query folds signed rows through the plan,
# filters and group form the one-shot fragments run, and
# TestDifferentialStanding checks its folded views against one-shot
# results; the short benchmark pass prints codec
# (scalar, struct row, and the gob path it replaced), typed joinKey, the
# read path (BenchmarkReadPath: the grouped scan and Queries 1, 2 and 4,
# at 20 iterations each), unary and batched put and indexed-put numbers
# (BenchmarkIndexedPut/hash, and /moving with 1 000 and 100 000 entries in
# one partition) so regressions show up in CI logs next to the gate.
bench-smoke:
	$(GO) test ./internal/wire ./internal/core -run 'TestZeroAllocScalarEncode|TestZeroAllocStructEncode|TestStructDecodeAllocs|TestBlobKeyAllocs|TestLiveStateHeldOnce|TestSnapshotHeldCompactly' -count=1 -v
	$(GO) test ./internal/persist -run 'TestDeltaEncodeAllocs' -count=1 -v
	$(GO) test ./internal/kv -run 'TestIndexedPutAllocs|TestIndexProbeAllocs|TestPutBatchAllocs|TestGetAllAllocs' -count=1 -v
	$(GO) test ./internal/kv -run 'TestSegmentLockWaitsCounted|TestApplyBatchConcurrentIncrements' -race -count=20
	$(GO) test ./internal/partition -run 'TestHashAllocs' -count=1 -v
	$(GO) test ./internal/sql -run 'TestJoinFoldAllocs|TestScanFoldAllocs|TestKeyLookupAllocs|TestStandingAggDeltaAllocs|TestStandingDeltaAllocs|TestStandingDeltaCostFlatInWatchers|TestDifferentialStanding' -count=1 -v
	$(GO) test . -run 'TestSubscribeParity$$' -count=1 -v
	$(GO) test ./internal/metrics -run 'TestHistogramSparseMatchesDense' -count=1 -v
	$(GO) test ./internal/metrics -run 'TestHistogramSnapshotConsistent' -race -count=20
	$(GO) test . -run 'TestObservabilityHeapBudget|TestHistoryCaptureSharesSeries' -count=1 -v
	$(GO) test ./internal/metrics -run 'TestRegistryReadersMatchReference|TestTableRebuildsOnVersion|TestEventsMaterializeOutsideLock' -count=1 -v
	$(GO) test . -run 'TestRegistryConcurrentReadersAndWriters' -race -count=5
	$(GO) test ./internal/wire -run '^$$' -bench 'BenchmarkAppendValue|BenchmarkDecodeValue|BenchmarkGobValue' -benchtime 1000x
	$(GO) test ./internal/persist -run '^$$' -bench 'BenchmarkAppendDeltaSegment' -benchtime 1000x
	$(GO) test ./internal/sql -run '^$$' -bench 'BenchmarkJoinKey' -benchtime 1000x
	$(GO) test ./internal/sql -run '^$$' -bench 'BenchmarkReadPath' -benchtime 20x
	$(GO) test ./internal/kv -run '^$$' -bench 'BenchmarkPut|BenchmarkIndexedPut|BenchmarkUnindexedRowPut' -benchtime 1000x
	$(GO) test . -run '^$$' -bench 'BenchmarkCapture' -benchtime 100x
	$(GO) test . -run '^$$' -bench 'BenchmarkPrometheusText|BenchmarkDump' -benchtime 20x

# The benchmark (BENCHMARK.json, bench/) is its own module that imports
# internal/ packages, so `go build ./...` here never compiles it: vet it and
# run its stats tests and smoke run, so an internal/ signature change breaks
# this target before it breaks a benchmark run.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Index smoke: the kv index model (FuzzIndexModel's seed corpus and the
# multi-leaf model run, every lookup against a naive filter) and the pair
# tree's structural test under -race, the access-path parity suite (index
# results ≡ full-scan results for every plannable shape), index survival
# across an online
# rebalance, sys.indexes accounting (repeated: it once depended on whether
# the source beat CreateIndex), and the quick mode of the `squery-bench
# -exp index` harness (rows_scanned must drop to the probe's selectivity).
index-smoke:
	$(GO) test ./internal/kv -run 'FuzzIndexModel|TestIndexModelLargePartitions|TestPairTreeStructure' -race -count=1 -v
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
# attach-racing arm), its template arm and the resident-state count
# repeated (templates shared by many parameter tuples while handles
# attach and close under write waves: a lock-order or seeding regression
# shows as a deadlock, a race report or a diverged view), its general-join
# arm and the filed-once test repeated (joins on a non-key column whose
# groups share the join index of each side key, a literal lifted on both
# sides: a row filed twice or a pair formed twice shows as a diverged view
# or a miscount), the
# co-partitioned joins that read their partner from kv under the
# partition lock repeated (subscriptions attaching and closing while four
# writers update both tables, and the self-join arm of the oracle: a
# partition lock taken twice shows as a hang), and the engine's
# subscription suite (subscribe-vs-poll parity, and no goroutine per
# subscription or after Engine.Close), all under -race.
subscribe-smoke:
	chmod +x scripts/subscribe-smoke.sh
	./scripts/subscribe-smoke.sh
	$(GO) test ./internal/kv -run 'TestTap|TestDetachTap|TestEntryPointEquivalence|TestResetPaths' -race -count=1 -v
	$(GO) test ./internal/kv -run 'TestTapAttachCleanCut|TestTapInfos' -race -count=20
	$(GO) test ./internal/sql -run 'TestDifferentialStanding|TestSubscribe|TestStandingQuery|TestTemplate' -race -count=1 -v
	$(GO) test ./internal/sql -run 'TestDifferentialStanding/templates|TestStandingQueryHoldsOutputOnly' -race -count=20
	$(GO) test ./internal/sql -run 'TestDifferentialStanding/generaljoins|TestJoinIndexFiledOnce' -race -count=20
	$(GO) test ./internal/sql -run 'TestCoJoinAttachUnderWriters|TestDifferentialStanding/selfjoins' -race -count=20
	$(GO) test . -run 'TestSubscribe' -race -count=1 -v
	$(GO) test ./internal/experiments -run 'TestSubscribeExpShape' -count=1 -v

verify: lint race soak-chaos soak-rebalance bench-smoke bench-test ckpt-smoke index-smoke health-smoke subscribe-smoke

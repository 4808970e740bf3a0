package squery

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"squery/internal/chaos"
)

// steppedSource emits 20 records (keys 0..9, twice each), idles until its
// gate opens, emits 10 more (keys 0..9 once), then idles forever. The
// idle phases freeze live state so tests can compare it against snapshots
// deterministically.
type steppedSource struct {
	gate atomic.Bool
	pos  int64
}

func (s *steppedSource) Next() (Record, SourceStatus) {
	if s.pos < 20 || (s.pos < 30 && s.gate.Load()) {
		k := int(s.pos % 10)
		s.pos++
		return Record{Key: k, Value: 1}, SourceOK
	}
	return Record{}, SourceIdle
}

func (s *steppedSource) Offset() int64  { return s.pos }
func (s *steppedSource) Rewind(o int64) { s.pos = o }

// degradeFixture: replicated 3-node engine running an averaging job over a
// stepped source, with live state settled at 20 records (sum(count)==20).
func degradeFixture(t *testing.T) (*Engine, *Job, *steppedSource) {
	t.Helper()
	return degradeFixtureOn(t, Config{Nodes: 3, Partitions: 12, ReplicateState: true})
}

// degradeFixtureOn is degradeFixture on an engine of the given config.
func degradeFixtureOn(t *testing.T, cfg Config) (*Engine, *Job, *steppedSource) {
	t.Helper()
	eng := New(cfg)
	src := &steppedSource{}
	dag := NewDAG().
		AddVertex(&Vertex{
			Name: "source", Kind: KindSource, Parallelism: 1,
			NewSource: func(instance, par int) SourceInstance { return src },
		}).
		AddVertex(StatefulMapVertex("average", 2, averageFn)).
		AddVertex(SinkVertex("sink", 1, func(Record) {})).
		Connect("source", "average", EdgePartitioned).
		Connect("average", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{Name: "deg", State: StateConfig{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(job.Stop)
	waitFor(t, func() bool { return liveSum(t, eng) == 20 }, "live state settled at 20")
	return eng, job, src
}

func liveSum(t *testing.T, eng *Engine) int64 {
	t.Helper()
	res, err := eng.Query(`SELECT SUM(count) FROM average`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] == nil {
		return 0
	}
	return res.Rows[0][0].(int64)
}

// TestQueryPolicyRetry: a transient partition fault (bounded fires) heals
// within the retry deadline; the result is complete and not degraded.
func TestQueryPolicyRetry(t *testing.T) {
	eng, _, _ := degradeFixture(t)
	inj := chaos.New(7).Add(chaos.Rule{
		Kind: chaos.Unreachable, Node: 1,
		Instance: chaos.Any, Partition: chaos.Any, CrashNode: chaos.Any,
		MaxFires: 2,
	})
	eng.SetFaultHook(inj)
	defer eng.SetFaultHook(nil)

	res, err := eng.QueryWithOptions(`SELECT SUM(count) FROM average`, QueryOptions{
		Policy:           PolicyRetry,
		PartitionTimeout: 50 * time.Millisecond,
		RetryBackoff:     2 * time.Millisecond,
		RetryDeadline:    5 * time.Second,
	})
	if err != nil {
		t.Fatalf("retry policy did not survive a transient fault: %v", err)
	}
	if res.Rows[0][0] != int64(20) || res.IsDegraded() {
		t.Fatalf("rows = %v degraded = %v, want complete undegraded result", res.Rows, res.Degraded)
	}
	if inj.Fired(chaos.Unreachable) != 2 {
		t.Fatalf("fault fired %d times, want 2", inj.Fired(chaos.Unreachable))
	}
}

// TestQueryPolicyFailFast: a persistent fault surfaces immediately as the
// typed error, with the chaos cause preserved in the unwrap chain — and an
// unguarded query never even consults the fault hook.
func TestQueryPolicyFailFast(t *testing.T) {
	eng, _, _ := degradeFixture(t)
	inj := chaos.New(7).Add(chaos.Rule{
		Kind: chaos.Unreachable, Node: 1,
		Instance: chaos.Any, Partition: chaos.Any, CrashNode: chaos.Any,
	})
	eng.SetFaultHook(inj)
	defer eng.SetFaultHook(nil)

	_, err := eng.QueryWithOptions(`SELECT SUM(count) FROM average`, QueryOptions{Policy: PolicyFailFast})
	var pu *PartitionUnavailableError
	if !errors.As(err, &pu) {
		t.Fatalf("err = %v, want PartitionUnavailableError", err)
	}
	if pu.Node != 1 {
		t.Fatalf("failed node = %d, want 1", pu.Node)
	}
	var ue *chaos.UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("chaos cause not in unwrap chain: %v", err)
	}

	// The data plane and unguarded queries bypass the fault hook entirely.
	if sum := liveSum(t, eng); sum != 20 {
		t.Fatalf("unguarded query sum = %d, want 20", sum)
	}
}

// TestQueryPolicyFallback: with the owner node unreachable, a live query
// degrades the faulted partitions to the latest committed snapshot served
// from backup replicas — and reports the isolation downgrade per
// partition. A snapshot query degrades transparently: the replica holds
// the same committed version, so the result is exact.
func TestQueryPolicyFallback(t *testing.T) {
	eng, job, src := degradeFixture(t)
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// Advance live state past the snapshot: 10 more records, sum 30 vs the
	// snapshot's 20.
	src.gate.Store(true)
	waitFor(t, func() bool { return liveSum(t, eng) == 30 }, "post-snapshot records")

	inj := chaos.New(7).Add(chaos.Rule{
		Kind: chaos.Unreachable, Node: 1,
		Instance: chaos.Any, Partition: chaos.Any, CrashNode: chaos.Any,
	})
	eng.SetFaultHook(inj)
	defer eng.SetFaultHook(nil)

	opts := QueryOptions{Policy: PolicyFallback, PartitionTimeout: 50 * time.Millisecond}
	res, err := eng.QueryWithOptions(`SELECT SUM(count) FROM average`, opts)
	if err != nil {
		t.Fatalf("fallback policy failed: %v", err)
	}
	if !res.IsDegraded() {
		t.Fatal("no degradation reported despite unreachable node")
	}
	for _, d := range res.Degraded {
		if d.Table != "average" || d.FallbackSSID != 1 {
			t.Fatalf("degradation = %+v, want table average ssid 1", d)
		}
	}
	// Faulted partitions answer as of the snapshot (counts of 20 records),
	// healthy ones live (counts of 30): the mixed sum is bounded by both.
	sum := res.Rows[0][0].(int64)
	if sum < 20 || sum > 30 {
		t.Fatalf("degraded sum = %d, want within [20, 30]", sum)
	}

	// A snapshot-table query serves the exact committed version from the
	// replicas: no data difference, still reported as degraded partitions.
	sres, err := eng.QueryWithOptions(`SELECT SUM(count) FROM snapshot_average`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Rows[0][0] != int64(20) || !sres.IsDegraded() {
		t.Fatalf("snapshot fallback sum = %v degraded = %v, want 20, true", sres.Rows[0][0], sres.IsDegraded())
	}

	// Healing the fault restores full live reads.
	eng.SetFaultHook(nil)
	if sum := liveSum(t, eng); sum != 30 {
		t.Fatalf("healed sum = %d, want 30", sum)
	}
}

// TestQueryPolicyFallbackNeedsSnapshot: before any checkpoint there is
// nothing to degrade to — the policy must fail with the typed error, not
// silently return partial results.
func TestQueryPolicyFallbackNeedsSnapshot(t *testing.T) {
	eng, _, _ := degradeFixture(t)
	inj := chaos.New(7).Add(chaos.Rule{
		Kind: chaos.Unreachable, Node: 1,
		Instance: chaos.Any, Partition: chaos.Any, CrashNode: chaos.Any,
	})
	eng.SetFaultHook(inj)
	defer eng.SetFaultHook(nil)

	_, err := eng.QueryWithOptions(`SELECT SUM(count) FROM average`,
		QueryOptions{Policy: PolicyFallback, PartitionTimeout: 50 * time.Millisecond})
	var pu *PartitionUnavailableError
	if !errors.As(err, &pu) {
		t.Fatalf("err = %v, want PartitionUnavailableError", err)
	}
	if !strings.Contains(err.Error(), "no committed snapshot") {
		t.Fatalf("err = %v, want 'no committed snapshot'", err)
	}
}

// TestQueryPolicyFallbackNeedsReplication: without state replication there
// is no backup replica to degrade to — a partition attempt that times out
// must fail the query with the typed error, not serve the partition empty
// as if it had been read.
func TestQueryPolicyFallbackNeedsReplication(t *testing.T) {
	eng, job, _ := degradeFixtureOn(t, Config{Nodes: 3, Partitions: 12})
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	eng.SetFaultHook(chaos.New(7).Add(chaos.Rule{
		Kind: chaos.StallPartition, Node: 1,
		Instance: chaos.Any, Partition: chaos.Any, CrashNode: chaos.Any,
		Delay: 300 * time.Millisecond,
	}))
	defer eng.SetFaultHook(nil)

	res, err := eng.QueryWithOptions(`SELECT SUM(count) FROM average`,
		QueryOptions{Policy: PolicyFallback, PartitionTimeout: 25 * time.Millisecond})
	var pu *PartitionUnavailableError
	if !errors.As(err, &pu) {
		t.Fatalf("res = %v, err = %v; want PartitionUnavailableError", res, err)
	}
	if !strings.Contains(err.Error(), "no backup replica") {
		t.Fatalf("err = %v, want 'no backup replica'", err)
	}
}

// TestQueryPoliciesAgainstStalledPartition: the acceptance scenario — a
// stalled partition under all three policies. Fail-fast times out and
// errors; retry outlasts a bounded stall; fallback serves replicas.
func TestQueryPoliciesAgainstStalledPartition(t *testing.T) {
	eng, job, _ := degradeFixture(t)
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	stall := func(maxFires int) *chaos.Injector {
		return chaos.New(7).Add(chaos.Rule{
			Kind: chaos.StallPartition, Node: 1,
			Instance: chaos.Any, Partition: chaos.Any, CrashNode: chaos.Any,
			Delay: 300 * time.Millisecond, MaxFires: maxFires,
		})
	}
	q := `SELECT SUM(count) FROM average`
	defer eng.SetFaultHook(nil)

	// Fail-fast: the per-partition timeout converts the stall into an
	// immediate typed error instead of a hung query.
	eng.SetFaultHook(stall(0))
	start := time.Now()
	_, err := eng.QueryWithOptions(q, QueryOptions{Policy: PolicyFailFast, PartitionTimeout: 25 * time.Millisecond})
	var pu *PartitionUnavailableError
	if !errors.As(err, &pu) {
		t.Fatalf("stalled fail-fast err = %v, want PartitionUnavailableError", err)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want scan timeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("fail-fast took %s against a stalled partition", d)
	}

	// Retry: a stall bounded to 2 fires is outlasted within the deadline.
	eng.SetFaultHook(stall(2))
	res, err := eng.QueryWithOptions(q, QueryOptions{
		Policy:           PolicyRetry,
		PartitionTimeout: 25 * time.Millisecond,
		RetryBackoff:     2 * time.Millisecond,
		RetryDeadline:    10 * time.Second,
	})
	if err != nil || res.Rows[0][0] != int64(20) {
		t.Fatalf("retry against bounded stall: res = %v err = %v", res, err)
	}

	// Fallback: an unbounded stall degrades to the snapshot replicas (the
	// backup node is not stalled); live state equals the snapshot here, so
	// the sum is exact.
	eng.SetFaultHook(stall(0))
	res, err = eng.QueryWithOptions(q, QueryOptions{Policy: PolicyFallback, PartitionTimeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatalf("fallback against stall: %v", err)
	}
	if res.Rows[0][0] != int64(20) || !res.IsDegraded() {
		t.Fatalf("fallback sum = %v degraded = %v, want 20, true", res.Rows[0][0], res.IsDegraded())
	}
}

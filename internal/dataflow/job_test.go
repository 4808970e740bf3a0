package dataflow

import (
	"fmt"
	"testing"
	"time"

	"squery/internal/cluster"
	"squery/internal/core"
	"squery/internal/partition"
)

func testCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{Nodes: 3, Partitions: 27})
}

// countingState is the counter state used throughout these tests.
type countingState struct {
	Count int
}

func countFn(state any, rec Record) (any, []Record) {
	c := countingState{}
	if state != nil {
		c = state.(countingState)
	}
	c.Count++
	return c, []Record{{Key: rec.Key, Value: c.Count, EventTime: rec.EventTime}}
}

func keyedRecords(n, keys int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: i % keys, Value: i}
	}
	return recs
}

func runCountJob(t *testing.T, clu *cluster.Cluster, recs []Record, cfg Config) (*Job, *CollectSink) {
	t.Helper()
	sink := &CollectSink{}
	dag := NewDAG().
		AddVertex(SliceSource("src", 3, recs)).
		AddVertex(StatefulMapVertex("counter", 3, countFn)).
		AddVertex(sink.Vertex("sink", 3)).
		Connect("src", "counter", EdgePartitioned).
		Connect("counter", "sink", EdgePartitioned)
	cfg.Cluster = clu
	job, err := Run(dag, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return job, sink
}

func TestPipelineProcessesAllRecords(t *testing.T) {
	clu := testCluster()
	job, sink := runCountJob(t, clu, keyedRecords(300, 10), Config{})
	job.Wait()
	defer job.Stop()

	if sink.Len() != 300 {
		t.Fatalf("sink saw %d records, want 300", sink.Len())
	}
	// Per-key final counts must equal per-key record counts.
	max := map[any]int{}
	for _, r := range sink.Records() {
		if c := r.Value.(int); c > max[r.Key] {
			max[r.Key] = c
		}
	}
	for k := 0; k < 10; k++ {
		if max[k] != 30 {
			t.Errorf("key %d final count = %d, want 30", k, max[k])
		}
	}
	if job.SourceMeter().Count() != 300 {
		t.Errorf("source meter = %d", job.SourceMeter().Count())
	}
}

func TestLiveStateMirrored(t *testing.T) {
	clu := testCluster()
	job, _ := runCountJob(t, clu, keyedRecords(100, 5), Config{State: core.Config{Live: true}})
	job.Wait()
	defer job.Stop()

	view := clu.ClientView()
	for k := 0; k < 5; k++ {
		v, ok := view.Get(core.LiveMapName("counter"), k)
		if !ok {
			t.Fatalf("key %d missing from live map", k)
		}
		if v.(countingState).Count != 20 {
			t.Errorf("live count for %d = %v, want 20", k, v)
		}
	}
}

func TestManualCheckpointWritesQueryableSnapshot(t *testing.T) {
	clu := testCluster()
	job, _ := runCountJob(t, clu, keyedRecords(90, 9), Config{State: core.Config{Snapshots: true}})
	job.Wait() // all records processed; workers retired

	// The checkpoint after retirement cannot commit (no live instances).
	if err := job.CheckpointNow(); err == nil {
		t.Fatal("checkpoint of a fully-drained job committed")
	}
	job.Stop()
}

func TestCheckpointMidStream(t *testing.T) {
	clu := testCluster()
	release := make(chan struct{})
	// A gated source: emits 50 records, waits for release, emits 50 more.
	src := &Vertex{
		Name: "src", Kind: KindSource, Parallelism: 1,
		NewSource: func(instance, par int) SourceInstance {
			return &gatedSource{release: release, total: 100}
		},
	}
	sink := &CollectSink{}
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("counter", 3, countFn)).
		AddVertex(sink.Vertex("sink", 1)).
		Connect("src", "counter", EdgePartitioned).
		Connect("counter", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: clu, State: core.Config{Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	waitFor(t, func() bool { return sink.Len() >= 50 }, "first 50 records")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ssid := job.Manager().Registry().LatestCommitted()
	if ssid != 1 {
		t.Fatalf("latest committed = %d, want 1", ssid)
	}
	// Snapshot state must reflect exactly the first 50 records: keys
	// 0..9, count 5 each.
	total := 0
	core.SnapshotScan(clu.Store(), "counter", ssid, func(_ partition.Key, v core.Versioned) bool {
		total += v.Value.(countingState).Count
		return true
	})
	if total != 50 {
		t.Fatalf("snapshot total count = %d, want 50", total)
	}
	close(release)
	job.Wait()
	if sink.Len() != 100 {
		t.Fatalf("sink = %d, want 100", sink.Len())
	}
}

// gatedSource emits half its records, reports Idle until released, then
// emits the rest. Offset-based rewind keeps it exactly-once; staying Idle
// (not blocking) keeps barriers flowing while gated.
type gatedSource struct {
	release chan struct{}
	total   int64
	pos     int64
}

func (g *gatedSource) Next() (Record, SourceStatus) {
	if g.pos >= g.total {
		return Record{}, SourceDone
	}
	if g.pos == g.total/2 {
		select {
		case <-g.release:
		default:
			return Record{}, SourceIdle
		}
	}
	r := Record{Key: int(g.pos % 10), Value: int(g.pos)}
	g.pos++
	return r, SourceOK
}

func (g *gatedSource) Offset() int64  { return g.pos }
func (g *gatedSource) Rewind(o int64) { g.pos = o }

func TestAutomaticCheckpoints(t *testing.T) {
	clu := testCluster()
	stop := make(chan struct{})
	src := GeneratorSource("src", 2, 0, func(instance int, seq int64) (Record, bool) {
		select {
		case <-stop:
			return Record{}, false
		default:
		}
		time.Sleep(200 * time.Microsecond)
		return Record{Key: int(seq % 7), Value: seq}, true
	})
	sink := &CollectSink{}
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("counter", 2, countFn)).
		AddVertex(sink.Vertex("sink", 2)).
		Connect("src", "counter", EdgePartitioned).
		Connect("counter", "sink", EdgePartitioned)
	job, err := Run(dag, Config{
		Cluster:          clu,
		State:            core.Config{Snapshots: true},
		SnapshotInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return job.Manager().Registry().LatestCommitted() >= 3 }, "3 automatic checkpoints")
	if job.SnapshotTotal().Count() < 3 || job.SnapshotPhase1().Count() < 3 {
		t.Errorf("2PC histograms: total=%d phase1=%d", job.SnapshotTotal().Count(), job.SnapshotPhase1().Count())
	}
	// CheckpointNow must refuse while a ticker drives checkpoints.
	if err := job.CheckpointNow(); err == nil {
		t.Error("CheckpointNow allowed alongside automatic checkpoints")
	}
	close(stop)
	job.Wait()
	job.Stop()
}

func TestExactlyOnceRecovery(t *testing.T) {
	clu := testCluster()
	const perInstance = 400
	const instances = 2
	release := make(chan struct{})
	src := GeneratorSource("src", instances, 0, func(instance int, seq int64) (Record, bool) {
		if seq >= perInstance {
			return Record{}, false
		}
		// From the midpoint on, pace the stream until the test releases
		// it: the checkpoint and the injected failure must both land on a
		// live, mid-stream pipeline instead of racing the stream running
		// to completion (a checkpoint against a fully-retired pipeline is
		// refused by the coordinator, which would fail the test early).
		if seq >= perInstance/2 {
			select {
			case <-release:
			default:
				time.Sleep(500 * time.Microsecond)
			}
		}
		return Record{Key: int(seq % 20), Value: seq}, true
	})
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("counter", 2, countFn)).
		AddVertex(LatencySinkVertexForTest("sink", 2)).
		Connect("src", "counter", EdgePartitioned).
		Connect("counter", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: clu, State: core.Config{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	// Let some records flow, then checkpoint.
	waitFor(t, func() bool { return job.SourceMeter().Count() > 100 }, "warmup records")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// More records flow past the checkpoint (uncommitted), then crash.
	waitFor(t, func() bool { return job.SourceMeter().Count() > 300 }, "post-checkpoint records")
	ssid, err := job.InjectFailure()
	if err != nil {
		t.Fatal(err)
	}
	if ssid != 1 {
		t.Fatalf("recovered to ssid %d, want 1", ssid)
	}
	close(release)
	job.Wait()

	// Exactly-once: every key's final live count equals the number of
	// records generated for it across both instances, regardless of the
	// crash. Keys 0..19, perInstance*instances records, seq%20 keying:
	// each instance contributes perInstance/20 per key.
	want := perInstance / 20 * instances
	view := clu.ClientView()
	for k := 0; k < 20; k++ {
		v, ok := view.Get(core.LiveMapName("counter"), k)
		if !ok {
			t.Fatalf("key %d missing after recovery", k)
		}
		if got := v.(countingState).Count; got != want {
			t.Errorf("key %d count = %d, want %d (exactly-once violated)", k, got, want)
		}
	}
}

// LatencySinkVertexForTest builds a throwaway latency sink.
func LatencySinkVertexForTest(name string, par int) *Vertex {
	return SinkVertex(name, par, func(Record) {})
}

func TestRecoveryWithoutCommittedSnapshotRestartsClean(t *testing.T) {
	clu := testCluster()
	const perInstance = 200
	src := GeneratorSource("src", 1, 0, func(instance int, seq int64) (Record, bool) {
		if seq >= perInstance {
			return Record{}, false
		}
		time.Sleep(50 * time.Microsecond)
		return Record{Key: int(seq % 5), Value: seq}, true
	})
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("counter", 1, countFn)).
		AddVertex(LatencySinkVertexForTest("sink", 1)).
		Connect("src", "counter", EdgePartitioned).
		Connect("counter", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: clu, State: core.Config{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	waitFor(t, func() bool { return job.SourceMeter().Count() > 20 }, "some records")
	ssid, err := job.InjectFailure()
	if err != nil {
		t.Fatal(err)
	}
	if ssid != 0 {
		t.Fatalf("recovered to %d, want 0 (no snapshot committed)", ssid)
	}
	job.Wait()
	v, ok := clu.ClientView().Get(core.LiveMapName("counter"), 0)
	if !ok || v.(countingState).Count != perInstance/5 {
		t.Fatalf("post-recovery count = %v, %v; want %d", v, ok, perInstance/5)
	}
}

func TestStopIsIdempotent(t *testing.T) {
	clu := testCluster()
	job, _ := runCountJob(t, clu, keyedRecords(10, 2), Config{})
	job.Stop()
	job.Stop()
	if _, err := job.InjectFailure(); err == nil {
		t.Error("InjectFailure on a stopped job succeeded")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(NewDAG(), Config{Cluster: testCluster()}); err == nil {
		t.Error("empty DAG ran")
	}
	d := NewDAG().
		AddVertex(SliceSource("src", 1, nil)).
		AddVertex(StatefulMapVertex("op", 1, countFn)).
		AddVertex(LatencySinkVertexForTest("sink", 1)).
		Connect("src", "op", EdgePartitioned).
		Connect("op", "sink", EdgePartitioned)
	if _, err := Run(d, Config{}); err == nil {
		t.Error("missing cluster accepted")
	}
}

func TestMultiInputAlignment(t *testing.T) {
	clu := testCluster()
	mk := func(name string, n int) *Vertex {
		return GeneratorSource(name, 1, 0, func(instance int, seq int64) (Record, bool) {
			if seq >= int64(n) {
				return Record{}, false
			}
			time.Sleep(20 * time.Microsecond)
			return Record{Key: fmt.Sprintf("k%d", seq%4), Value: seq}, true
		})
	}
	dag := NewDAG().
		AddVertex(mk("srcA", 500)).
		AddVertex(mk("srcB", 500)).
		AddVertex(StatefulMapVertex("counter", 2, countFn)).
		AddVertex(LatencySinkVertexForTest("sink", 1)).
		Connect("srcA", "counter", EdgePartitioned).
		Connect("srcB", "counter", EdgePartitioned).
		Connect("counter", "sink", EdgePartitioned)
	job, err := Run(dag, Config{
		Cluster:          clu,
		State:            core.Config{Snapshots: true},
		SnapshotInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	job.Stop()

	// Whatever checkpoints landed, the final state must count all 1000
	// records exactly once.
	if job.Manager().Registry().LatestCommitted() == 0 {
		t.Skip("no checkpoint landed before the sources drained")
	}
	total := 0
	for k := 0; k < 4; k++ {
		key := fmt.Sprintf("k%d", k)
		var ok bool
		var v any
		for _, w := range job.workers {
			if w.backend != nil {
				if got, has := w.backend.Get(key); has {
					v, ok = got, true
				}
			}
		}
		if !ok {
			t.Fatalf("key %s not found in any backend", key)
		}
		total += v.(countingState).Count
	}
	if total != 1000 {
		t.Fatalf("total counted = %d, want 1000", total)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRouteKeyStable(t *testing.T) {
	p := partition.New(27)
	for _, k := range []partition.Key{"a", 5, int64(7)} {
		i1 := routeKey(p, k, 4)
		i2 := routeKey(p, k, 4)
		if i1 != i2 || i1 < 0 || i1 >= 4 {
			t.Fatalf("routeKey unstable or out of range for %v: %d, %d", k, i1, i2)
		}
	}
}

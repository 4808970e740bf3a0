package squery

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// openAveragingJob builds the averaging pipeline over a source that emits
// 40 records and then idles (holding the stream open) until gate closes,
// so checkpoints can run against a live job.
func openAveragingJob(gate chan struct{}) *DAG {
	src := GeneratorSource("source", 1, 0, func(instance int, seq int64) (Record, bool) {
		if seq >= 40 {
			select {
			case <-gate:
				return Record{}, false
			default:
			}
			time.Sleep(100 * time.Microsecond)
			return Record{Key: int(seq % 4), Value: 0}, true
		}
		return Record{Key: int(seq % 4), Value: int(seq)}, true
	})
	return NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("average", 2, averageFn)).
		AddVertex(SinkVertex("sink", 1, func(Record) {})).
		Connect("source", "average", EdgePartitioned).
		Connect("average", "sink", EdgePartitioned)
}

// TestSystemTablesReturnLiveMetrics drives a job through records and a
// checkpoint, then reads the engine's own telemetry back through the
// normal SQL path via every sys.* table.
func TestSystemTablesReturnLiveMetrics(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	gate := make(chan struct{})
	job, err := eng.SubmitJob(openAveragingJob(gate), JobSpec{
		Name:  "avg",
		State: StateConfig{Live: true, Snapshots: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	// Let the 40 real records drain into the operator before checkpointing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := eng.Query(`SELECT SUM(count) FROM average`)
		if err == nil && len(res.Rows) == 1 {
			if n, ok := res.Rows[0][0].(int64); ok && n >= 40 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("operator state did not reach 40 records in time")
		}
		time.Sleep(time.Millisecond)
	}
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	close(gate)

	// sys.operators: the averaging operator's two instances saw every
	// record the source emitted (at least the 40 real ones).
	res, err := eng.Query(`SELECT SUM(recordsIn), SUM(checkpoints) FROM sys.operators WHERE vertex = 'average'`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].(int64); n < 40 {
		t.Fatalf("sys.operators recordsIn for average = %d, want >= 40", n)
	}
	if c := res.Rows[0][1].(int64); c < 2 {
		t.Fatalf("sys.operators checkpoints for average = %d, want >= 2 (one per instance)", c)
	}

	// sys.partitions: state updates hit the KV store; at least one
	// partition recorded sets, and the pseudo-columns behave (one row per
	// partition).
	res, err = eng.Query(`SELECT COUNT(*) FROM sys.partitions`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].(int64); n != 27 {
		t.Fatalf("sys.partitions rows = %d, want 27", n)
	}
	res, err = eng.Query(`SELECT COUNT(*), SUM(sets) FROM sys.partitions WHERE sets > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].(int64); n == 0 {
		t.Fatal("no partition recorded any KV sets")
	}

	// sys.checkpoints: the manual checkpoint committed and is visible as
	// an event row.
	res, err = eng.Query(`SELECT job, ssid FROM sys.checkpoints WHERE outcome = 'committed'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 1 {
		t.Fatal("sys.checkpoints has no committed row after CheckpointNow")
	}
	if res.Rows[0][0] != "avg" {
		t.Fatalf("sys.checkpoints job = %v, want avg", res.Rows[0][0])
	}
	// The ssid pseudo-column must carry the event's snapshot id, not the
	// virtual table's zero.
	if ssid, ok := res.Rows[0][1].(int64); !ok || ssid < 1 {
		t.Fatalf("sys.checkpoints ssid = %v, want committed id >= 1", res.Rows[0][1])
	}

	// sys.queries: the queries above were themselves logged.
	res, err = eng.Query(`SELECT COUNT(*) FROM sys.queries`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].(int64); n < 3 {
		t.Fatalf("sys.queries rows = %d, want >= 3", n)
	}

	// The plain-text dump carries the same instruments.
	dump := eng.MetricsDump()
	for _, want := range []string{
		"operator/average/0/records_in",
		"checkpoint/avg/commits",
		"log checkpoints",
		"log queries",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, dump)
		}
	}
}

// TestDisableMetrics verifies the no-op mode: no registry, no sys.*
// tables, and the dump says so.
func TestDisableMetrics(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27, DisableMetrics: true})
	job, err := eng.SubmitJob(averagingJob([]Record{{Key: 1, Value: 10}}), JobSpec{
		Name:  "avg",
		State: StateConfig{Live: true, Snapshots: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	job.Wait()
	if eng.Metrics() != nil {
		t.Fatal("Metrics() should be nil with DisableMetrics")
	}
	if _, err := eng.Query(`SELECT COUNT(*) FROM sys.partitions`); err == nil {
		t.Fatal("sys.partitions should be unknown with DisableMetrics")
	}
	if got := eng.MetricsDump(); got != "(metrics disabled)\n" {
		t.Fatalf("MetricsDump = %q", got)
	}
	// Queries still work without any instrumentation.
	if _, err := eng.Query(`SELECT count FROM average WHERE partitionKey = 1`); err != nil {
		t.Fatal(err)
	}
}

// unpinnableState is operator state whose type was never registered with
// gob, so the JetBlob baseline cannot serialize it.
type unpinnableState struct{ N int }

// TestPinFailureAbortsCheckpoint: an instance that cannot pin its state
// costs the checkpoint, not the process. Every pin of a JetBlob job whose
// state type is unregistered fails: CheckpointNow reports the error after
// its retries, each attempt is an abort that sys.checkpoints names with the
// error, nothing commits, and the job keeps processing.
func TestPinFailureAbortsCheckpoint(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	gate := make(chan struct{})
	var sunk atomic.Int64
	src := GeneratorSource("source", 1, 0, func(_ int, seq int64) (Record, bool) {
		select {
		case <-gate:
			return Record{}, false
		default:
		}
		time.Sleep(100 * time.Microsecond)
		return Record{Key: int(seq % 4), Value: int(seq)}, true
	})
	count := func(state any, rec Record) (any, []Record) {
		s, _ := state.(unpinnableState)
		s.N++
		return s, []Record{rec}
	}
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("unpinnable", 2, count)).
		AddVertex(SinkVertex("sink", 1, func(Record) { sunk.Add(1) })).
		Connect("source", "unpinnable", EdgePartitioned).
		Connect("unpinnable", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{Name: "unpinnable", State: StateConfig{JetBlob: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	defer close(gate)
	waitSunk := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); sunk.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("sink saw %d records, want %d", sunk.Load(), n)
			}
		}
	}
	waitSunk(10)

	err = job.CheckpointNow()
	if err == nil || !strings.Contains(err.Error(), "snapshot pin failed") || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("checkpoint of unpinnable state: err = %v, want the pin's gob error", err)
	}
	if got := job.CheckpointAborts(); got != 4 {
		t.Errorf("aborts = %d, want 4 (one attempt, three retries)", got)
	}
	if id := job.LatestSnapshotID(); id != 0 {
		t.Errorf("latest committed = %d after failed pins, want 0", id)
	}
	// The job is alive: records keep flowing past the failed checkpoint.
	waitSunk(sunk.Load() + 10)

	res, err := eng.Query(`SELECT outcome, error FROM sys.checkpoints`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("sys.checkpoints has %d rows, want one per aborted attempt (4): %v", len(res.Rows), res.Rows)
	}
	for _, r := range res.Rows {
		if msg, _ := r[1].(string); r[0] != "pin failed" || !strings.Contains(msg, "not registered") {
			t.Errorf("sys.checkpoints row %v, want outcome 'pin failed' naming the gob error", r)
		}
	}
}

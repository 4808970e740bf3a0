package squery

import (
	"encoding/gob"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// counterState is the running count + total of Figure 2's averaging
// operator.
type counterState struct {
	Count int
	Total int
}

func init() { gob.Register(counterState{}) }

func averageFn(state any, rec Record) (any, []Record) {
	s := counterState{}
	if state != nil {
		s = state.(counterState)
	}
	s.Count++
	s.Total += rec.Value.(int)
	return s, []Record{{Key: rec.Key, Value: float64(s.Total) / float64(s.Count), EventTime: rec.EventTime}}
}

// averagingJob builds Figure 2's pipeline: source → average → sink.
func averagingJob(recs []Record) *DAG {
	return NewDAG().
		AddVertex(SliceSource("source", 1, recs)).
		AddVertex(StatefulMapVertex("average", 2, averageFn)).
		AddVertex(SinkVertex("sink", 1, func(Record) {})).
		Connect("source", "average", EdgePartitioned).
		Connect("average", "sink", EdgePartitioned)
}

func TestEngineEndToEndSQL(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	recs := []Record{
		{Key: 1, Value: 10}, {Key: 1, Value: 30}, {Key: 2, Value: 5},
		{Key: 1, Value: 5}, {Key: 2, Value: 15},
	}
	job, err := eng.SubmitJob(averagingJob(recs), JobSpec{
		Name:  "avg",
		State: StateConfig{Live: true, Snapshots: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	job.Wait()

	// Figure 4's live query: SELECT count, total FROM average WHERE key=1.
	res, err := eng.Query(`SELECT count, total FROM average WHERE partitionKey = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != 3 || res.Rows[0][1] != 45 {
		t.Fatalf("live rows = %v, want [[3 45]]", res.Rows)
	}

	// No snapshot yet: snapshot queries must fail.
	if _, err := eng.Query(`SELECT count FROM snapshot_average`); err == nil {
		t.Fatal("snapshot query before first checkpoint succeeded")
	}
	if err := job.CheckpointNow(); err == nil {
		t.Fatal("checkpoint of drained job should fail (all instances retired)")
	}
}

func TestEngineSnapshotQueryAndVersions(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	gate := make(chan struct{})
	src := GeneratorSource("source", 1, 0, func(instance int, seq int64) (Record, bool) {
		if seq >= 40 {
			select {
			case <-gate:
				return Record{}, false
			default:
			}
			// Hold the stream open without emitting.
			time.Sleep(100 * time.Microsecond)
			return Record{Key: int(seq % 4), Value: 0}, true
		}
		return Record{Key: int(seq % 4), Value: int(seq)}, true
	})
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("average", 2, averageFn)).
		AddVertex(SinkVertex("sink", 1, func(Record) {})).
		Connect("source", "average", EdgePartitioned).
		Connect("average", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{Name: "avg", State: StateConfig{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(gate); job.Stop() }()

	waitFor(t, func() bool { return job.SourceRecords() >= 40 }, "records flowing")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if job.LatestSnapshotID() != 1 {
		t.Fatalf("latest snapshot = %d", job.LatestSnapshotID())
	}
	if got := job.QueryableSnapshots(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("queryable = %v", got)
	}

	res, err := eng.Query(`SELECT COUNT(*), SUM(count) FROM snapshot_average`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(4) {
		t.Fatalf("snapshot keys = %v, want 4", res.Rows[0][0])
	}
	// Counts at the checkpoint might include the padding records; at
	// least the initial 40 must be there.
	if res.Rows[0][1].(int64) < 40 {
		t.Fatalf("snapshot total count = %v, want >= 40", res.Rows[0][1])
	}
}

// TestDirtyReadOnLiveState reproduces Figure 5: a live query observes an
// uncommitted update, the job fails, and after recovery the same query
// shows the rolled-back (older) value — the earlier read was dirty.
func TestDirtyReadOnLiveState(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	cs := &controlledSource{}
	dag := NewDAG().
		AddVertex(&Vertex{Name: "source", Kind: KindSource, Parallelism: 1,
			NewSource: func(int, int) SourceInstance { return cs }}).
		AddVertex(StatefulMapVertex("count", 1, func(state any, rec Record) (any, []Record) {
			n := 0
			if state != nil {
				n = state.(int)
			}
			n++
			return n, nil
		})).
		AddVertex(SinkVertex("sink", 1, func(Record) {})).
		Connect("source", "count", EdgePartitioned).
		Connect("count", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{Name: "counts", State: StateConfig{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	// Figure 5a: state reaches 4, checkpoint with id 1.
	waitFor(t, func() bool {
		v := eng.Object("count").GetLive("counter")
		return v[0] == 4
	}, "counter to reach 4")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	// Figure 5b: one more record; live query returns 5 — a dirty read.
	cs.gate.Store(true)
	waitFor(t, func() bool {
		return eng.Object("count").GetLive("counter")[0] == 5
	}, "counter to reach 5")

	// Figure 5c: failure; recovery restores snapshot 1; live state is 4.
	// Close the gate again so the replayed record stalls and the rolled-
	// back value is observable.
	cs.gate.Store(false)
	if _, err := job.InjectFailure(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Object("count").GetLive("counter")[0]; got != 4 {
		t.Fatalf("live counter after recovery = %v, want 4 (rollback)", got)
	}

	// Releasing the gate replays the lost record exactly once: the
	// counter converges back to 5, not 6.
	cs.gate.Store(true)
	waitFor(t, func() bool {
		return eng.Object("count").GetLive("counter")[0] == 5
	}, "counter to re-reach 5 after replay")

	// Figure 6: the snapshot query pinned to id 1 returns 4 throughout.
	snap, err := eng.Object("count").GetSnapshot(1, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if snap[0] != 4 {
		t.Fatalf("snapshot counter = %v, want 4", snap[0])
	}
}

// controlledSource emits 4 records, idles until its gate opens, emits one
// more, then idles forever. Rewinding replays deterministically: offsets
// 0-3 are pre-gate records, 4 is the post-gate record. The same instance
// survives recovery (the factory returns it again), so the test can open
// and close the gate across the failure.
type controlledSource struct {
	gate atomic.Bool
	pos  int64
}

func (c *controlledSource) Next() (Record, SourceStatus) {
	if c.pos < 4 {
		c.pos++
		return Record{Key: "counter", Value: 1}, SourceOK
	}
	if c.pos == 4 {
		if c.gate.Load() {
			c.pos++
			return Record{Key: "counter", Value: 1}, SourceOK
		}
		return Record{}, SourceIdle
	}
	return Record{}, SourceIdle
}

func (c *controlledSource) Offset() int64  { return c.pos }
func (c *controlledSource) Rewind(o int64) { c.pos = o }

func TestQueryIsolatedEnforcesSnapshotTables(t *testing.T) {
	eng := New(Config{Nodes: 1, Partitions: 8})
	job, err := eng.SubmitJob(averagingJob([]Record{{Key: 1, Value: 1}}), JobSpec{
		Name: "j", State: StateConfig{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	job.Wait()

	// Live query at serializable isolation is impossible.
	if _, err := eng.QueryIsolated(`SELECT count FROM average`, Serializable); err == nil {
		t.Fatal("serializable live query accepted")
	}
	if _, err := eng.QueryIsolated(`SELECT count FROM average`, SnapshotIsolation); err == nil {
		t.Fatal("snapshot-isolation live query accepted")
	}
	// Read-uncommitted live query is fine.
	if _, err := eng.QueryIsolated(`SELECT count FROM average`, ReadUncommitted); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryIsolated(`SELECT count FROM average`, ReadCommitted); err != nil {
		t.Fatal(err)
	}
	for _, l := range []IsolationLevel{ReadUncommitted, ReadCommitted, SnapshotIsolation, Serializable} {
		if l.String() == "" || strings.HasPrefix(l.String(), "IsolationLevel(") {
			t.Errorf("missing String() for %d", int(l))
		}
	}
}

func TestObjectInterfaceMissingKeys(t *testing.T) {
	eng := New(Config{Nodes: 1, Partitions: 8})
	job, err := eng.SubmitJob(averagingJob([]Record{{Key: 1, Value: 10}}), JobSpec{
		Name: "j", State: StateConfig{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	job.Wait()

	got := eng.Object("average").GetLive(1, 999)
	if got[0] == nil || got[1] != nil {
		t.Fatalf("GetLive = %v", got)
	}
	// Snapshot access before any checkpoint errors.
	if _, err := eng.Object("average").GetSnapshot(0, 1); err == nil {
		t.Fatal("GetSnapshot before checkpoint succeeded")
	}
	if err := eng.Object("average").ScanSnapshot(0, func(Key, any, int64) bool { return true }); err == nil {
		t.Fatal("ScanSnapshot before checkpoint succeeded")
	}
	// Unknown operator errors.
	if _, err := eng.Object("nosuch").GetSnapshot(0, 1); err == nil {
		t.Fatal("snapshot access to unknown operator succeeded")
	}
}

func TestScanLiveVisitsAllKeys(t *testing.T) {
	eng := New(Config{Nodes: 2, Partitions: 16})
	recs := make([]Record, 50)
	for i := range recs {
		recs[i] = Record{Key: i % 10, Value: i}
	}
	job, err := eng.SubmitJob(averagingJob(recs), JobSpec{
		Name: "j", State: StateConfig{Live: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	job.Wait()

	seen := 0
	eng.Object("average").ScanLive(func(k Key, v any) bool {
		seen++
		if v.(counterState).Count != 5 {
			t.Errorf("key %v count = %d, want 5", k, v.(counterState).Count)
		}
		return true
	})
	if seen != 10 {
		t.Fatalf("scanned %d keys, want 10", seen)
	}
}

// TestSubmitJobRefusesConflictingState: a state configuration no backend
// can honour is refused at submission, and leaves the operator names free.
func TestSubmitJobRefusesConflictingState(t *testing.T) {
	eng := New(Config{Nodes: 1, Partitions: 8})
	for _, state := range []StateConfig{
		{Snapshots: true, ActiveStandby: true},
		{JetBlob: true, Snapshots: true},
	} {
		if _, err := eng.SubmitJob(averagingJob(nil), JobSpec{Name: "bad", State: state}); err == nil {
			t.Fatalf("job with state %+v accepted", state)
		}
	}
	job, err := eng.SubmitJob(averagingJob(nil), JobSpec{Name: "good", State: StateConfig{Live: true, ActiveStandby: true}})
	if err != nil {
		t.Fatalf("valid job refused after the refused ones: %v", err)
	}
	job.Stop()
}

func TestDuplicateOperatorNamesAcrossJobsRejected(t *testing.T) {
	eng := New(Config{Nodes: 1, Partitions: 8})
	j1, err := eng.SubmitJob(averagingJob([]Record{{Key: 1, Value: 1}}), JobSpec{
		Name: "a", State: StateConfig{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Stop()
	j1.Wait()
	before := sortedRows(t, eng, `SELECT partitionKey, count FROM average`)
	// The refused job carries records of its own: refused before it
	// starts, it must not have written them into the running job's table.
	if _, err := eng.SubmitJob(averagingJob([]Record{{Key: 1, Value: 7}, {Key: 9, Value: 9}}),
		JobSpec{Name: "b", State: StateConfig{Live: true, Snapshots: true}}); err == nil {
		t.Fatal("duplicate operator name across jobs accepted")
	}
	time.Sleep(20 * time.Millisecond) // a refused job that did start would have written by now
	if after := sortedRows(t, eng, `SELECT partitionKey, count FROM average`); after != before {
		t.Fatalf("a refused duplicate changed job a's rows: %s, was %s", after, before)
	}
	// After stopping the first job its tables free up.
	j1.Stop()
	j2, err := eng.SubmitJob(averagingJob(nil), JobSpec{Name: "c", State: StateConfig{Snapshots: true}})
	if err != nil {
		t.Fatalf("resubmission after stop failed: %v", err)
	}
	j2.Stop()
}

// idleAfter emits its records once and then idles, keeping its job live
// for checkpoints.
type idleAfter struct {
	recs []Record
	pos  int64
}

func (s *idleAfter) Next() (Record, SourceStatus) {
	if s.pos < int64(len(s.recs)) {
		s.pos++
		return s.recs[s.pos-1], SourceOK
	}
	return Record{}, SourceIdle
}

func (s *idleAfter) Offset() int64  { return s.pos }
func (s *idleAfter) Rewind(o int64) { s.pos = o }

// TestResubmittedJobStartsEmpty: a job submitted under a stopped job's
// operator name starts from empty state — its live table holds only its
// own keys, and its snapshot ids, which restart at 1, resolve none of the
// stopped job's chains.
func TestResubmittedJobStartsEmpty(t *testing.T) {
	eng := New(Config{Nodes: 1, Partitions: 8})
	run := func(name string, keys ...int) *Job {
		var recs []Record
		for _, k := range keys {
			recs = append(recs, Record{Key: k, Value: 10})
		}
		dag := NewDAG().
			AddVertex(&Vertex{Name: "source", Kind: KindSource, Parallelism: 1,
				NewSource: func(int, int) SourceInstance { return &idleAfter{recs: recs} }}).
			AddVertex(StatefulMapVertex("average", 2, averageFn)).
			AddVertex(SinkVertex("sink", 1, func(Record) {})).
			Connect("source", "average", EdgePartitioned).
			Connect("average", "sink", EdgePartitioned)
		job, err := eng.SubmitJob(dag, JobSpec{Name: name, State: StateConfig{Live: true, Snapshots: true}})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			for _, k := range keys {
				res, err := eng.Query(fmt.Sprintf(`SELECT count FROM average WHERE partitionKey = %d`, k))
				if err != nil || len(res.Rows) != 1 {
					return false
				}
			}
			return true
		}, name+"'s records processed")
		return job
	}
	a := run("a", 1, 2)
	for i := 0; i < 3; i++ {
		if err := a.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	a.Stop()

	c := run("c", 3)
	defer c.Stop()
	if got := sortedRows(t, eng, `SELECT partitionKey, count FROM average`); got != "[[3 1]]" {
		t.Fatalf("resubmitted job's live rows = %s, want [[3 1]]", got)
	}
	if err := c.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if got := c.LatestSnapshotID(); got != 1 {
		t.Fatalf("resubmitted job's first snapshot id = %d, want 1", got)
	}
	if got := sortedRows(t, eng, `SELECT partitionKey, count FROM snapshot_average WHERE ssid = 1`); got != "[[3 1]]" {
		t.Fatalf("resubmitted job's snapshot rows at ssid 1 = %s, want [[3 1]]", got)
	}
}

// sortedRows runs q and returns its rows, sorted, as text.
func sortedRows(t *testing.T, eng *Engine, q string) string {
	t.Helper()
	res, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return "[" + strings.Join(rows, " ") + "]"
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

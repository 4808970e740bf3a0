package squery

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// feed is a record queue a test appends to while its job runs.
type feed struct {
	mu   sync.Mutex
	recs []Record
}

func (f *feed) add(recs ...Record) {
	f.mu.Lock()
	f.recs = append(f.recs, recs...)
	f.mu.Unlock()
}

// feedSource emits its feed's records in order and idles when it has
// emitted them all.
type feedSource struct {
	f   *feed
	pos int64
}

func (s *feedSource) Next() (Record, SourceStatus) {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	if s.pos < int64(len(s.f.recs)) {
		s.pos++
		return s.f.recs[s.pos-1], SourceOK
	}
	return Record{}, SourceIdle
}

func (s *feedSource) Offset() int64  { return s.pos }
func (s *feedSource) Rewind(o int64) { s.pos = o }

// accessHook is a FaultHook that calls a function on every guarded
// partition access.
type accessHook func(from, owner, partition int) error

func (h accessHook) Access(from, owner, partition int) error { return h(from, owner, partition) }

// TestSnapshotJoinHoldsItsIDsAcrossCommits: a snapshot join holds the ids
// it reads while it runs. Two commits, with every key changed before each,
// land after the join has read its first partition — retiring the id it
// reads — and a third commit's drain merges the runs at the moved window.
// The join still returns exactly what it returned before the commits, for
// an id pinned with WHERE ssid = n on the oldest retained id and for the
// default (latest committed) id alike.
func TestSnapshotJoinHoldsItsIDsAcrossCommits(t *testing.T) {
	const keys = 64
	const join = `SELECT l.partitionKey, l.total, r.total AS rtotal FROM snapshot_left l JOIN snapshot_right r ON l.partitionKey = r.partitionKey`
	for _, c := range []struct {
		name  string
		where func(oldest int64) string
	}{
		{"pinned oldest", func(oldest int64) string { return fmt.Sprintf(" WHERE ssid = %d", oldest) }},
		{"default id", func(int64) string { return "" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := New(Config{Nodes: 1, Partitions: 8})
			in := &feed{}
			set := func(scale int) func(any, Record) (any, []Record) {
				return func(_ any, rec Record) (any, []Record) {
					return counterState{Count: 1, Total: scale * rec.Value.(int)}, nil
				}
			}
			dag := NewDAG().
				AddVertex(&Vertex{Name: "source", Kind: KindSource, Parallelism: 1,
					NewSource: func(int, int) SourceInstance { return &feedSource{f: in} }}).
				AddVertex(StatefulMapVertex("left", 2, set(1))).
				AddVertex(StatefulMapVertex("right", 2, set(100))).
				AddVertex(SinkVertex("sink", 1, func(Record) {})).
				Connect("source", "left", EdgePartitioned).
				Connect("source", "right", EdgePartitioned).
				Connect("left", "sink", EdgePartitioned).
				Connect("right", "sink", EdgePartitioned)
			job, err := eng.SubmitJob(dag, JobSpec{Name: "lease", State: StateConfig{Live: true, Snapshots: true, Incremental: true}})
			if err != nil {
				t.Fatal(err)
			}
			defer job.Stop()
			// round changes every key to value v and commits a checkpoint
			// holding the change.
			fed := uint64(0)
			round := func(v int) error {
				recs := make([]Record, keys)
				for k := range recs {
					recs[k] = Record{Key: k, Value: v}
				}
				in.add(recs...)
				fed += keys
				deadline := time.Now().Add(10 * time.Second)
				for job.SourceRecords() < fed {
					if time.Now().After(deadline) {
						return errors.New("timed out waiting for the source")
					}
					time.Sleep(time.Millisecond)
				}
				return job.CheckpointNow()
			}
			for v := 1; v <= 2; v++ {
				if err := round(v); err != nil {
					t.Fatal(err)
				}
			}
			read := job.QueryableSnapshots()
			oldest := read[0]
			q := join + c.where(oldest)
			before := sortedRows(t, eng, q)
			if !strings.Contains(before, "[0 ") {
				t.Fatalf("join before the commits = %s; want a row per key", before)
			}

			var calls atomic.Int32
			var hookErr error
			eng.SetFaultHook(accessHook(func(_, _, _ int) error {
				if calls.Add(1) != 2 {
					return nil
				}
				for v := 3; v <= 4 && hookErr == nil; v++ {
					hookErr = round(v)
				}
				if hookErr == nil {
					hookErr = job.CheckpointNow() // nothing changed: the drain only merges
				}
				return nil
			}))
			res, err := eng.QueryWithOptions(q, QueryOptions{Policy: PolicyRetry, PartitionTimeout: time.Minute, RetryDeadline: time.Minute})
			eng.SetFaultHook(nil)
			if hookErr != nil {
				t.Fatal(hookErr)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range read {
				if job.SnapshotStillQueryable(id) {
					t.Fatalf("snapshot %d is still retained: the commits did not land under the join", id)
				}
			}
			rows := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				rows[i] = fmt.Sprint(r)
			}
			sort.Strings(rows)
			if got := "[" + strings.Join(rows, " ") + "]"; got != before {
				t.Fatalf("join across the commits = %s\nwant, as before them, %s", got, before)
			}
			if c.where(0) != "" {
				if _, err := eng.Query(q); err == nil {
					t.Fatalf("a new query of retired snapshot %d succeeded", oldest)
				}
			}
		})
	}
}

package squery

import (
	"fmt"
	"testing"
	"time"
)

// TestReadCommittedViaActiveStandby exercises the §VII extension: with
// active standby replication enabled, a failure promotes the replica
// instead of rolling back, so a value returned by a live query before the
// crash remains valid after it — the read committed isolation level the
// paper describes for the high-availability setup.
func TestReadCommittedViaActiveStandby(t *testing.T) {
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
			return n + 1, nil
		})).
		AddVertex(SinkVertex("sink", 1, func(Record) {})).
		Connect("source", "count", EdgePartitioned).
		Connect("count", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{
		Name:  "ha-counts",
		State: StateConfig{Live: true, Snapshots: true, ActiveStandby: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	waitFor(t, func() bool {
		return eng.Object("count").GetLive("counter")[0] == 4
	}, "counter to reach 4")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	// One uncommitted update past the checkpoint.
	cs.gate.Store(true)
	waitFor(t, func() bool {
		return eng.Object("count").GetLive("counter")[0] == 5
	}, "counter to reach 5")
	cs.gate.Store(false)
	time.Sleep(5 * time.Millisecond) // let the record clear the pipeline

	// Crash. With a standby, the observed 5 must survive — no rollback,
	// no dirty read.
	if _, err := job.InjectFailure(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Object("count").GetLive("counter")[0]; got != 5 {
		t.Fatalf("live counter after standby failover = %v, want 5 (read committed)", got)
	}
	// And it stays 5: the source does not replay the record (offsets
	// resumed from the live position).
	time.Sleep(20 * time.Millisecond)
	if got := eng.Object("count").GetLive("counter")[0]; got != 5 {
		t.Fatalf("live counter drifted to %v after failover", got)
	}
}

// TestStandbyRecoveryWithZeroSnapshots covers the standby failover path
// before any checkpoint ever committed: there is no snapshot to roll back
// to, but with active standby none is needed — the replicas are promoted,
// the live value survives, and the sources resume from their live offsets
// instead of replaying from zero.
func TestStandbyRecoveryWithZeroSnapshots(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	cs := &controlledSource{}
	dag := NewDAG().
		AddVertex(&Vertex{Name: "source", Kind: KindSource, Parallelism: 1,
			NewSource: func(int, int) SourceInstance { return cs }}).
		AddVertex(StatefulMapVertex("zerosnap", 1, func(state any, rec Record) (any, []Record) {
			n := 0
			if state != nil {
				n = state.(int)
			}
			return n + 1, nil
		})).
		AddVertex(SinkVertex("sink", 1, func(Record) {})).
		Connect("source", "zerosnap", EdgePartitioned).
		Connect("zerosnap", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{
		Name:  "ha-zero",
		State: StateConfig{Live: true, Snapshots: true, ActiveStandby: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	waitFor(t, func() bool {
		return eng.Object("zerosnap").GetLive("counter")[0] == 4
	}, "counter to reach 4")

	// Crash with zero committed snapshots. No rollback-to-nothing, no
	// replay: the promoted replicas carry the full live state.
	ssid, err := job.InjectFailure()
	if err != nil {
		t.Fatal(err)
	}
	if ssid != 0 {
		t.Fatalf("recovered to snapshot %d, want 0 (none ever committed)", ssid)
	}
	if got := eng.Object("zerosnap").GetLive("counter")[0]; got != 4 {
		t.Fatalf("live counter after zero-snapshot failover = %v, want 4", got)
	}

	// Processing continues from the live offsets: exactly one more record.
	cs.gate.Store(true)
	waitFor(t, func() bool {
		return eng.Object("zerosnap").GetLive("counter")[0] == 5
	}, "counter to reach 5 after failover")
	time.Sleep(10 * time.Millisecond)
	if got := eng.Object("zerosnap").GetLive("counter")[0]; got != 5 {
		t.Fatalf("live counter drifted to %v after failover (records replayed?)", got)
	}

	// The machinery is intact: a checkpoint can still commit afterwards.
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if got := job.LatestSnapshotID(); got != 1 {
		t.Fatalf("post-failover checkpoint id = %d, want 1", got)
	}
}

// TestNodeFailureThenJobRecovery is the full §V.A failure story: a
// cluster member dies (its state partitions survive via synchronous
// replication), the job crashes and recovers from the latest committed
// snapshot — whose entries now live on the promoted backup copies — and
// processing converges to exactly-once state.
func TestNodeFailureThenJobRecovery(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27, ReplicateState: true})
	const perInstance = 500
	src := GeneratorSource("src", 2, 3000, func(instance int, seq int64) (Record, bool) {
		if seq >= perInstance {
			return Record{}, false
		}
		return Record{Key: int(seq % 10), Value: 1}, true
	})
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("tally", 3, func(state any, rec Record) (any, []Record) {
			n := 0
			if state != nil {
				n = state.(int)
			}
			return n + rec.Value.(int), nil
		})).
		AddVertex(SinkVertex("sink", 1, func(Record) {})).
		Connect("src", "tally", EdgePartitioned).
		Connect("tally", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{
		Name:  "tally-job",
		State: StateConfig{Live: true, Snapshots: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	waitFor(t, func() bool { return job.SourceRecords() > 150 }, "records flowing")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return job.SourceRecords() > 300 }, "more records")

	// Kill a node, then crash the job; the snapshot map survives through
	// the promoted replicas, so recovery still lands on checkpoint 1.
	eng.FailNode(1)
	ssid, err := job.InjectFailure()
	if err != nil {
		t.Fatal(err)
	}
	if ssid != 1 {
		t.Fatalf("recovered to %d, want 1", ssid)
	}
	job.Wait()

	// Exactly-once: 1000 records over 10 keys = 100 each.
	total := int64(0)
	res, err := eng.Query(`SELECT SUM(value) AS total FROM tally`)
	if err != nil {
		t.Fatal(err)
	}
	total = res.Rows[0][0].(int64)
	if total != perInstance*2 {
		t.Fatalf("total = %d, want %d (exactly-once across node failure + recovery)", total, perInstance*2)
	}
}

// TestPersistedArchiveQueries covers the stable-storage path end to end:
// a job persists its checkpoints to disk; a second engine — a different
// "process" — opens the archive and answers snapshot queries without the
// job running (the audit use case of §III).
func TestPersistedArchiveQueries(t *testing.T) {
	dir := t.TempDir()
	eng := New(Config{Nodes: 3, Partitions: 27})
	recs := make([]Record, 60)
	for i := range recs {
		recs[i] = Record{Key: i % 6, Value: 1}
	}
	gate := make(chan struct{})
	src := GeneratorSource("src", 1, 0, func(instance int, seq int64) (Record, bool) {
		if seq < 60 {
			return recs[seq], true
		}
		select {
		case <-gate:
			return Record{}, false
		default:
		}
		time.Sleep(100 * time.Microsecond)
		return Record{Key: 0, Value: 0}, true
	})
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("tallies", 2, func(state any, rec Record) (any, []Record) {
			n := 0
			if state != nil {
				n = state.(int)
			}
			return n + rec.Value.(int), nil
		})).
		AddVertex(SinkVertex("sink", 1, func(Record) {})).
		Connect("src", "tallies", EdgePartitioned).
		Connect("tallies", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{
		Name:       "archival",
		State:      StateConfig{Snapshots: true},
		PersistDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return job.SourceRecords() >= 60 }, "records")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	close(gate)
	job.Wait()
	job.Stop()

	// "Another process": fresh engine, no job — query the archive.
	eng2 := New(Config{Nodes: 2, Partitions: 16})
	ssid, ops, err := eng2.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ssid != 1 || len(ops) != 1 || ops[0] != "tallies" {
		t.Fatalf("archive = ssid %d, ops %v", ssid, ops)
	}
	res, err := eng2.QueryIsolated(`SELECT SUM(value) AS total, COUNT(*) AS keys FROM snapshot_tallies`, Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) < 60 || res.Rows[0][1] != int64(6) {
		t.Fatalf("archive query = %v", res.Rows)
	}
	// Opening an empty archive fails cleanly.
	if _, _, err := eng2.OpenArchive(t.TempDir()); err == nil {
		t.Fatal("empty archive opened")
	}
}

// TestOpenArchiveRefusesRunningOperator: opening an archive whose operator
// name a running job holds fails before anything is imported, so the
// job's snapshot rows stay as its own checkpoint wrote them.
func TestOpenArchiveRefusesRunningOperator(t *testing.T) {
	tallies := func(per int) (*DAG, chan struct{}) {
		gate := make(chan struct{})
		src := GeneratorSource("src", 1, 0, func(instance int, seq int64) (Record, bool) {
			if seq < 60 {
				return Record{Key: int(seq % 6), Value: per}, true
			}
			select {
			case <-gate:
				return Record{}, false
			default:
			}
			time.Sleep(100 * time.Microsecond)
			return Record{Key: 0, Value: 0}, true
		})
		dag := NewDAG().
			AddVertex(src).
			AddVertex(StatefulMapVertex("tallies", 2, func(state any, rec Record) (any, []Record) {
				n := 0
				if state != nil {
					n = state.(int)
				}
				return n + rec.Value.(int), nil
			})).
			AddVertex(SinkVertex("sink", 1, func(Record) {})).
			Connect("src", "tallies", EdgePartitioned).
			Connect("tallies", "sink", EdgePartitioned)
		return dag, gate
	}
	run := func(eng *Engine, per int, dir string) (*Job, chan struct{}) {
		dag, gate := tallies(per)
		job, err := eng.SubmitJob(dag, JobSpec{Name: "tallies", State: StateConfig{Snapshots: true}, PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return job.SourceRecords() >= 60 }, "records")
		if err := job.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		return job, gate
	}
	dir := t.TempDir()
	eng := New(Config{Nodes: 3, Partitions: 27})
	job, gate := run(eng, 1, dir)
	close(gate)
	job.Wait()
	job.Stop()

	eng2 := New(Config{Nodes: 2, Partitions: 16})
	defer eng2.Close()
	job2, gate2 := run(eng2, 100, "")
	defer func() { close(gate2); job2.Wait(); job2.Stop() }()
	rows := func() string {
		res, err := eng2.Query(`SELECT partitionKey, value FROM snapshot_tallies ORDER BY partitionKey`)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	before := rows()
	if _, _, err := eng2.OpenArchive(dir); err == nil {
		t.Fatal("archive opened under a running job's operator name")
	}
	if after := rows(); after != before {
		t.Fatalf("snapshot rows changed by a refused archive: %s, then %s", before, after)
	}
}

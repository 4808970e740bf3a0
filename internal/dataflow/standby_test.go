package dataflow

import (
	"fmt"
	"strings"
	"testing"

	"squery/internal/cluster"
	"squery/internal/core"
	"squery/internal/kv"
)

// liveTotal sums the counter state across keys via the live map.
func liveTotal(clu *cluster.Cluster) int {
	total := 0
	clu.ClientView().Scan(core.LiveMapName("counter"), func(e kv.Entry) bool {
		total += e.Value.(countingState).Count
		return true
	})
	return total
}

// TestStandbyFailoverNoRollback exercises the §VII read-committed setup:
// with active standby, a failure takes the written-through live state
// over instead of rolling back to the last checkpoint, so observed state
// never regresses. In the failed-node arm the node's live partitions come
// back from their kv backups: the backup is the replica, and the store
// holds no map of its own for it.
func TestStandbyFailoverNoRollback(t *testing.T) {
	for _, failNode := range []bool{false, true} {
		t.Run(fmt.Sprint("failNode=", failNode), func(t *testing.T) {
			clu := testCluster()
			if failNode {
				clu = cluster.New(cluster.Config{Nodes: 3, Partitions: 27, ReplicateState: true})
			}
			const perInstance = 300
			// Throttled so the stream outlives the mid-stream checkpoint and
			// failure injection below.
			src := GeneratorSource("src", 2, 2000, func(instance int, seq int64) (Record, bool) {
				if seq >= perInstance {
					return Record{}, false
				}
				return Record{Key: int(seq % 10), Value: seq}, true
			})
			dag := NewDAG().
				AddVertex(src).
				AddVertex(StatefulMapVertex("counter", 2, countFn)).
				AddVertex(LatencySinkVertexForTest("sink", 2)).
				Connect("src", "counter", EdgePartitioned).
				Connect("counter", "sink", EdgePartitioned)
			job, err := Run(dag, Config{
				Cluster: clu,
				State:   core.Config{Live: true, Snapshots: true, ActiveStandby: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer job.Stop()

			waitFor(t, func() bool { return job.SourceMeter().Count() > 50 }, "records flowing")
			if err := job.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return job.SourceMeter().Count() > 200 }, "more records")

			// Observe live totals just before the crash.
			before := liveTotal(clu)

			if failNode {
				if err := clu.Fail(1); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := job.InjectFailure(); err != nil {
				t.Fatal(err)
			}
			// Promoted state must not be behind what was already observable:
			// no rollback means no dirty reads.
			after := liveTotal(clu)
			if after < before {
				t.Fatalf("live state regressed after standby failover: %d -> %d", before, after)
			}
			job.Wait()

			// The final total can be at most the full stream (no duplicates)
			// and must include everything processed before the crash.
			final := liveTotal(clu)
			if final > perInstance*2 {
				t.Fatalf("duplicates after failover: total %d > %d", final, perInstance*2)
			}
			if final < before {
				t.Fatalf("final total %d below pre-crash observation %d", final, before)
			}
			for _, name := range clu.Store().MapNames() {
				if strings.HasPrefix(name, "__standby_") {
					t.Fatalf("the store holds a standby map %q", name)
				}
			}
		})
	}
}

// TestStandbyChosenByVertices: recovery fails over to the standby that the
// stateful vertices' own state configurations agree on, whatever the
// job-wide one says, and a DAG whose stateful vertices disagree on it is
// refused at submission instead of failing its recovery.
func TestStandbyChosenByVertices(t *testing.T) {
	plain := &core.Config{Live: true, Snapshots: true}
	standby := &core.Config{Live: true, Snapshots: true, ActiveStandby: true}
	build := func(counterCfg, doubleCfg *core.Config) *DAG {
		src := GeneratorSource("src", 2, 2000, func(instance int, seq int64) (Record, bool) {
			if seq >= 300 {
				return Record{}, false
			}
			return Record{Key: int(seq % 10), Value: seq}, true
		})
		counter := StatefulMapVertex("counter", 2, countFn)
		counter.StateOverride = counterCfg
		double := StatefulMapVertex("double", 2, countFn)
		double.StateOverride = doubleCfg
		return NewDAG().
			AddVertex(src).AddVertex(counter).AddVertex(double).
			AddVertex(LatencySinkVertexForTest("sink", 2)).
			Connect("src", "counter", EdgePartitioned).
			Connect("counter", "double", EdgePartitioned).
			Connect("double", "sink", EdgePartitioned)
	}

	if job, err := Run(build(nil, plain), Config{Cluster: testCluster(), State: *standby}); err == nil {
		job.Stop()
		t.Fatal("a DAG whose stateful vertices disagree on ActiveStandby was accepted")
	}

	clu := testCluster()
	job, err := Run(build(standby, standby), Config{Cluster: clu, State: *plain})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	waitFor(t, func() bool { return job.SourceMeter().Count() > 50 }, "records flowing")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return job.SourceMeter().Count() > 200 }, "more records")
	before := liveTotal(clu)
	if _, err := job.InjectFailure(); err != nil {
		t.Fatal(err)
	}
	if after := liveTotal(clu); after < before {
		t.Fatalf("live state rolled back on failover: %d -> %d", before, after)
	}
	job.Wait()
}

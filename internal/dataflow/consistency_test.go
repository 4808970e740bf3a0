package dataflow

import (
	"fmt"
	"testing"
	"time"

	"squery/internal/chaos"
	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
)

// TestSnapshotIsConsistentCut verifies the serializable-isolation claim
// of §VII at the mechanism level: a committed snapshot must be a
// consistent cut across operators. Two stateful operators in series both
// count every record per key; barrier alignment guarantees that any
// committed snapshot contains exactly the same per-key counts in both
// operators — even though the operators run in different goroutines with
// queues between them. A concurrent reader continuously cross-checks the
// two snapshot tables while checkpoints race with processing.
func TestSnapshotIsConsistentCut(t *testing.T) {
	clu := testCluster()
	const perInstance = 4000
	src := GeneratorSource("src", 2, 30_000, func(instance int, seq int64) (Record, bool) {
		if seq >= perInstance {
			return Record{}, false
		}
		return Record{Key: int(seq % 16), Value: seq}, true
	})
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("first", 2, countFn)).
		AddVertex(StatefulMapVertex("second", 3, countFn)).
		AddVertex(LatencySinkVertexForTest("sink", 2)).
		Connect("src", "first", EdgePartitioned).
		Connect("first", "second", EdgePartitioned).
		Connect("second", "sink", EdgePartitioned)
	job, err := Run(dag, Config{
		Cluster:          clu,
		State:            core.Config{Snapshots: true},
		SnapshotInterval: 15 * time.Millisecond,
		Retention:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	// Continuously verify every queryable snapshot while the job runs.
	checked := 0
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ssid := job.Manager().Registry().LatestCommitted()
		if ssid == 0 {
			continue
		}
		// Pin the id; it may be pruned mid-scan if we fall behind, so
		// re-verify queryability afterwards and skip stale reads.
		c1 := snapshotCounts(clu, "first", ssid)
		c2 := snapshotCounts(clu, "second", ssid)
		if !job.Manager().Registry().IsQueryable(ssid) {
			continue
		}
		if len(c1) != len(c2) {
			t.Fatalf("snapshot %d: %d keys in first, %d in second", ssid, len(c1), len(c2))
		}
		for k, n1 := range c1 {
			if n2 := c2[k]; n1 != n2 {
				t.Fatalf("snapshot %d not a consistent cut: key %s first=%d second=%d",
					ssid, k, n1, n2)
			}
		}
		checked++
		if job.SourceMeter().Count() >= perInstance*2 {
			break
		}
	}
	if checked < 10 {
		t.Fatalf("only %d snapshots verified — checkpoints did not flow", checked)
	}
	job.Wait()
}

// TestKillDuringCheckpointAbortsExactlyOnce: a checkpoint that is still in
// phase 1 when the job is killed must be aborted exactly once and its
// snapshot id never published — a half-prepared cut that became queryable
// would break every isolation guarantee built on the registry.
func TestKillDuringCheckpointAbortsExactlyOnce(t *testing.T) {
	clu := testCluster()
	// Swallow one counter ack; with no phase-1 deadline configured the
	// checkpoint then hangs in phase 1 until the kill arrives.
	inj := chaos.New(1).Add(chaos.Rule{
		Kind: chaos.DropAck, Vertex: "counter",
		Instance: chaos.Any, Node: chaos.Any, Partition: chaos.Any, CrashNode: chaos.Any,
		MaxFires: 1,
	})
	release := make(chan struct{})
	src := &Vertex{
		Name: "src", Kind: KindSource, Parallelism: 1,
		NewSource: func(instance, par int) SourceInstance {
			return &gatedSource{release: release, total: 1000}
		},
	}
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("counter", 2, countFn)).
		AddVertex(LatencySinkVertexForTest("sink", 1)).
		Connect("src", "counter", EdgePartitioned).
		Connect("counter", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: clu, State: core.Config{Snapshots: true}, Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return job.SourceMeter().Count() >= 500 }, "records before the gate")

	errCh := make(chan error, 1)
	go func() { errCh <- job.CheckpointNow() }()
	reg := job.Manager().Registry()
	waitFor(t, func() bool { return reg.InProgress() == 1 }, "checkpoint in flight")
	job.Stop() // kill with the checkpoint mid-phase-1

	if err := <-errCh; err == nil {
		t.Fatal("checkpoint interrupted by the kill reported success")
	}
	if got := job.CheckpointAborts(); got != 1 {
		t.Fatalf("aborts = %d, want exactly 1", got)
	}
	if reg.InProgress() != 0 {
		t.Fatalf("snapshot %d still in progress after the kill", reg.InProgress())
	}
	if reg.IsQueryable(1) || reg.LatestCommitted() != 0 {
		t.Fatalf("killed checkpoint published: queryable(1)=%v latest=%d",
			reg.IsQueryable(1), reg.LatestCommitted())
	}
}

func snapshotCounts(clu interface{ Store() *kv.Store }, op string, ssid int64) map[string]int {
	out := map[string]int{}
	core.SnapshotScan(clu.Store(), op, ssid, func(key partition.Key, v core.Versioned) bool {
		out[fmt.Sprintf("%v", key)] = v.Value.(countingState).Count
		return true
	})
	return out
}

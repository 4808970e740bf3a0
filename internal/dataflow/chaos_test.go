package dataflow

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"squery/internal/chaos"
	"squery/internal/cluster"
	"squery/internal/core"
)

// chaosJob builds the standard chaos fixture: a gated source per name
// (emits half its records, idles until release, emits the rest) feeding a
// stateful counter and a sink. Gated sources stay responsive to barriers
// while idle, so checkpoints keep flowing at the gate.
func chaosJob(t *testing.T, clu *cluster.Cluster, sources []string, perSource int, cfg Config) (*Job, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	dag := NewDAG()
	for _, name := range sources {
		total := int64(perSource)
		dag.AddVertex(&Vertex{
			Name: name, Kind: KindSource, Parallelism: 1,
			NewSource: func(instance, par int) SourceInstance {
				return &gatedSource{release: release, total: total}
			},
		})
	}
	dag.AddVertex(StatefulMapVertex("counter", 2, countFn)).
		AddVertex(LatencySinkVertexForTest("sink", 1))
	for _, name := range sources {
		dag.Connect(name, "counter", EdgePartitioned)
	}
	dag.Connect("counter", "sink", EdgePartitioned)
	cfg.Cluster = clu
	if cfg.State.Snapshots == false && cfg.State.Live == false {
		cfg.State = core.Config{Live: true, Snapshots: true}
	}
	job, err := Run(dag, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return job, release
}

// waitLiveCounts polls until every key 0..9 reaches the expected final
// live count — the eventual exactly-once check (a lost record never gets
// there; a duplicated record overshoots and never equals it either).
func waitLiveCounts(t *testing.T, clu *cluster.Cluster, want int) {
	t.Helper()
	waitFor(t, func() bool {
		for k := 0; k < 10; k++ {
			v, ok := clu.ClientView().Get(core.LiveMapName("counter"), k)
			if !ok || v.(countingState).Count != want {
				return false
			}
		}
		return true
	}, "exactly-once final counts")
}

// TestAckLossAbortsAndRetries: a checkpoint that loses one worker ack must
// abort when its phase-1 deadline expires, retry with backoff under a
// fresh snapshot id, and commit; the aborted id is never queryable and no
// record is lost or duplicated.
func TestAckLossAbortsAndRetries(t *testing.T) {
	clu := testCluster()
	inj := chaos.New(1).Add(chaos.Rule{
		Kind: chaos.DropAck, SSIDFrom: 1, Vertex: "counter",
		Instance: chaos.Any, Node: chaos.Any, Partition: chaos.Any, CrashNode: chaos.Any,
		MaxFires: 1,
	})
	job, release := chaosJob(t, clu, []string{"src"}, 200, Config{
		CheckpointTimeout: 50 * time.Millisecond,
		CheckpointRetries: 3,
		CheckpointBackoff: 2 * time.Millisecond,
		Chaos:             inj,
	})
	defer job.Stop()

	waitFor(t, func() bool { return job.SourceMeter().Count() >= 100 }, "first half")
	start := time.Now()
	if err := job.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint did not survive the dropped ack: %v", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("checkpoint committed in %s — the deadline never fired", d)
	}
	if got := job.CheckpointAborts(); got != 1 {
		t.Fatalf("aborts = %d, want 1", got)
	}
	reg := job.Manager().Registry()
	if reg.LatestCommitted() != 2 {
		t.Fatalf("latest committed = %d, want 2 (retry id)", reg.LatestCommitted())
	}
	if reg.IsQueryable(1) {
		t.Fatal("aborted checkpoint 1 is queryable")
	}
	if inj.Fired(chaos.DropAck) != 1 {
		t.Fatalf("drop-ack fired %d times, want 1", inj.Fired(chaos.DropAck))
	}

	close(release)
	job.Wait()
	waitLiveCounts(t, clu, 20) // 200 records, keys 0..9
}

// TestBarrierDropSupersededByRetry: dropping the coordinator's barrier to
// one of two sources leaves downstream workers partially aligned forever;
// the deadline aborts, and the retry's higher barrier must supersede the
// stuck alignment (stash released, alignment restarted) and commit.
func TestBarrierDropSupersededByRetry(t *testing.T) {
	clu := testCluster()
	inj := chaos.New(1).Add(chaos.Rule{
		Kind: chaos.DropBarrier, SSIDFrom: 1, Vertex: "srcB",
		Instance: chaos.Any, Node: chaos.Any, Partition: chaos.Any, CrashNode: chaos.Any,
		MaxFires: 1,
	})
	job, release := chaosJob(t, clu, []string{"srcA", "srcB"}, 200, Config{
		CheckpointTimeout: 50 * time.Millisecond,
		CheckpointRetries: 3,
		CheckpointBackoff: 2 * time.Millisecond,
		Chaos:             inj,
	})
	defer job.Stop()

	waitFor(t, func() bool { return job.SourceMeter().Count() >= 200 }, "both halves before the gate")
	if err := job.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint did not survive the dropped barrier: %v", err)
	}
	if got := job.CheckpointAborts(); got != 1 {
		t.Fatalf("aborts = %d, want 1", got)
	}
	reg := job.Manager().Registry()
	if reg.LatestCommitted() != 2 || reg.IsQueryable(1) {
		t.Fatalf("latest = %d, queryable(1) = %v; want 2, false",
			reg.LatestCommitted(), reg.IsQueryable(1))
	}

	close(release)
	job.Wait()
	waitLiveCounts(t, clu, 40) // 2 sources x 200 records, keys 0..9
}

// TestPreCommitCrashNeverPublishes: the coordinator dies between phase 1
// and commit, taking a cluster node with it (the mid-checkpoint node crash
// of the acceptance criteria). The prepared snapshot must never become
// queryable, recovery must abort it exactly once, and a later checkpoint
// commits with exactly-once state intact.
func TestPreCommitCrashNeverPublishes(t *testing.T) {
	clu := cluster.New(cluster.Config{Nodes: 3, Partitions: 27, ReplicateState: true})
	inj := chaos.New(1).Add(chaos.Rule{
		Kind: chaos.CrashPreCommit, SSIDFrom: 1,
		Instance: chaos.Any, Node: chaos.Any, Partition: chaos.Any,
		CrashNode: 1, MaxFires: 1,
	})
	job, release := chaosJob(t, clu, []string{"src"}, 200, Config{Chaos: inj})
	defer job.Stop()

	waitFor(t, func() bool { return job.SourceMeter().Count() >= 100 }, "first half")
	if err := job.CheckpointNow(); err == nil {
		t.Fatal("checkpoint committed despite the injected pre-commit crash")
	}
	// Recovery runs asynchronously: wait for the node failure, for the
	// in-flight snapshot id to be aborted, and for the restart to finish
	// (running only flips back to true at the end of start()).
	reg := job.Manager().Registry()
	waitFor(t, func() bool {
		job.mu.Lock()
		restarted := job.running
		job.mu.Unlock()
		return clu.Failed(1) && reg.InProgress() == 0 && restarted
	}, "crash recovery")
	if reg.IsQueryable(1) || reg.LatestCommitted() != 0 {
		t.Fatalf("crashed checkpoint published: queryable(1)=%v latest=%d",
			reg.IsQueryable(1), reg.LatestCommitted())
	}
	if got := job.CheckpointAborts(); got != 1 {
		t.Fatalf("aborts = %d, want exactly 1", got)
	}

	// The recovered job checkpoints normally.
	if err := job.CheckpointNow(); err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
	if reg.LatestCommitted() == 0 {
		t.Fatal("no checkpoint committed after recovery")
	}
	close(release)
	waitLiveCounts(t, clu, 20)
}

// scriptedSource emits recs in order up to the offset limit, which every
// instance the job builds shares, and idles beyond it — so a test holds a
// post-crash replay back by lowering the limit before the crash.
type scriptedSource struct {
	recs  []Record
	limit *atomic.Int64
	pos   int64
}

func (s *scriptedSource) Next() (Record, SourceStatus) {
	if s.pos >= s.limit.Load() || s.pos >= int64(len(s.recs)) {
		return Record{}, SourceIdle
	}
	s.pos++
	return s.recs[s.pos-1], SourceOK
}

func (s *scriptedSource) Offset() int64  { return s.pos }
func (s *scriptedSource) Rewind(o int64) { s.pos = o }

// TestPreCommitCrashRestoreShadowsDrainedRound: a round drains its pins
// and the job crashes before it commits, so recovery restores the commit
// before it while the round's runs stay in the store. The next commit,
// taken before the source replays anything, must read the restored state
// and not the crashed round's.
func TestPreCommitCrashRestoreShadowsDrainedRound(t *testing.T) {
	clu := testCluster()
	inj := chaos.New(1).Add(chaos.Rule{
		Kind: chaos.CrashPreCommit, SSIDFrom: 2,
		Instance: chaos.Any, Node: chaos.Any, Partition: chaos.Any,
		CrashNode: chaos.Any, MaxFires: 1,
	})
	var limit atomic.Int64
	limit.Store(1)
	recs := []Record{{Key: "k", Value: 1}, {Key: "k", Value: 2}, {Key: "new", Value: 7}}
	dag := NewDAG().
		AddVertex(&Vertex{Name: "src", Kind: KindSource, Parallelism: 1,
			NewSource: func(int, int) SourceInstance { return &scriptedSource{recs: recs, limit: &limit} }}).
		AddVertex(StatefulMapVertex("last", 2, func(_ any, rec Record) (any, []Record) { return rec.Value, nil })).
		AddVertex(LatencySinkVertexForTest("sink", 1)).
		Connect("src", "last", EdgePartitioned).
		Connect("last", "sink", EdgePartitioned)
	job, err := Run(dag, Config{
		Cluster: clu,
		State:   core.Config{Live: true, Snapshots: true, Incremental: true},
		Chaos:   inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	live := func(key string, want int) func() bool {
		return func() bool {
			v, ok := clu.ClientView().Get(core.LiveMapName("last"), key)
			return ok && v == want
		}
	}

	waitFor(t, live("k", 1), "k = 1")
	if err := job.CheckpointNow(); err != nil { // ssid 1
		t.Fatal(err)
	}
	limit.Store(3)
	waitFor(t, func() bool { return live("k", 2)() && live("new", 7)() }, "k = 2, new = 7")
	// The running source has emitted every record; the one recovery
	// builds rewinds to offset 1 and must stay there until released.
	limit.Store(1)
	if err := job.CheckpointNow(); err == nil { // ssid 2: drains, then crashes
		t.Fatal("checkpoint committed despite the injected pre-commit crash")
	}
	reg := job.Manager().Registry()
	waitFor(t, func() bool {
		job.mu.Lock()
		restarted := job.running
		job.mu.Unlock()
		return reg.InProgress() == 0 && restarted
	}, "crash recovery")
	if err := job.CheckpointNow(); err != nil { // ssid 3
		t.Fatal(err)
	}
	ssid := reg.LatestCommitted()
	if got, ok := core.SnapshotAt(clu.Store(), "last", "k", ssid); !ok || got.Value != 1 {
		t.Fatalf("k at ssid %d = %v, %v; want 1 (the restored value)", ssid, got.Value, ok)
	}
	if got, ok := core.SnapshotAt(clu.Store(), "last", "new", ssid); ok {
		t.Fatalf("new at ssid %d = %v; want absent (only the crashed round wrote it)", ssid, got.Value)
	}
	limit.Store(3)
	waitFor(t, func() bool { return live("k", 2)() && live("new", 7)() }, "replay to k = 2, new = 7")
}

// TestConcurrentCheckpointNow: a second CheckpointNow while one is in
// flight must fail fast with the typed error instead of racing the first
// caller for acks (satellite: explicit mutex guard).
func TestConcurrentCheckpointNow(t *testing.T) {
	clu := testCluster()
	job, release := chaosJob(t, clu, []string{"src"}, 100, Config{})
	defer job.Stop()
	waitFor(t, func() bool { return job.SourceMeter().Count() >= 50 }, "first half")

	job.ckptMu.Lock() // stand in for a caller mid-checkpoint
	err := job.CheckpointNow()
	job.ckptMu.Unlock()
	if !errors.Is(err, ErrConcurrentCheckpoint) {
		t.Fatalf("concurrent CheckpointNow = %v, want ErrConcurrentCheckpoint", err)
	}
	// Once the first caller is done the guard releases.
	if err := job.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint after guard released: %v", err)
	}
	close(release)
	job.Wait()
}

// TestDuplicatedAckIsDeduped: an ack delivered twice must not let a
// checkpoint commit before every instance actually prepared.
func TestDuplicatedAckIsDeduped(t *testing.T) {
	clu := testCluster()
	inj := chaos.New(1).Add(chaos.Rule{
		Kind: chaos.DupAck, Vertex: "counter",
		Instance: chaos.Any, Node: chaos.Any, Partition: chaos.Any, CrashNode: chaos.Any,
	})
	job, release := chaosJob(t, clu, []string{"src"}, 200, Config{Chaos: inj})
	defer job.Stop()
	waitFor(t, func() bool { return job.SourceMeter().Count() >= 100 }, "first half")
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if aborts := job.CheckpointAborts(); aborts != 0 {
		t.Fatalf("aborts = %d, want 0", aborts)
	}
	close(release)
	job.Wait()
	waitLiveCounts(t, clu, 20)
}

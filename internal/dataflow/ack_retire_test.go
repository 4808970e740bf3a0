package dataflow

import (
	"testing"
	"time"

	"squery/internal/chaos"
	"squery/internal/core"
)

// endAfterBarrierSource emits n records, then idles until a checkpoint
// barrier reads its offset while it is idle, and ends right after that
// barrier, closing ended. (The worker also reads the offset after every
// record it emits, but never between an idle Next and the next record.)
type endAfterBarrierSource struct {
	n, pos     int64
	idle, seen bool
	ended      chan struct{}
}

func (s *endAfterBarrierSource) Next() (Record, SourceStatus) {
	switch {
	case s.pos < s.n:
		s.pos++
		return Record{Key: int(s.pos % 5), Value: s.pos}, SourceOK
	case s.seen:
		close(s.ended)
		return Record{}, SourceDone
	}
	s.idle = true
	return Record{}, SourceIdle
}

func (s *endAfterBarrierSource) Offset() int64 {
	if s.idle {
		s.seen = true
	}
	return s.pos
}

func (s *endAfterBarrierSource) Rewind(o int64) { s.pos = o }

// endWithSource emits nothing and ends once ended closes.
type endWithSource struct{ ended chan struct{} }

func (s endWithSource) Next() (Record, SourceStatus) {
	select {
	case <-s.ended:
		return Record{}, SourceDone
	default:
		return Record{}, SourceIdle
	}
}

func (endWithSource) Offset() int64  { return 0 }
func (endWithSource) Rewind(o int64) {}

// delayBarrier holds the barrier injection into one vertex back by d.
type delayBarrier struct {
	vertex string
	d      time.Duration
}

func (h delayBarrier) BarrierFate(_ int64, vertex string, _, _ int) chaos.Fate {
	if vertex == h.vertex {
		return chaos.Fate{Delay: h.d}
	}
	return chaos.Fate{}
}

func (delayBarrier) AckFate(int64, string, int, int) chaos.Fate { return chaos.Fate{} }
func (delayBarrier) CrashPreCommit(int64) (bool, int)           { return false, -1 }
func (delayBarrier) StageDelay(string, int, int) time.Duration  { return 0 }

// TestAckThenRetireCommits: a stateful instance that acks a checkpoint and
// then retires, both before the coordinator reads them, must not abort the
// round — its retirement reaches the coordinator behind its ack. Source a
// ends right after the barrier that finds it idle, and source b ends with
// it while the coordinator still holds b's barrier back, so counter pins,
// acks and retires inside that delay. (A chaos-delayed ack can still
// arrive after its instance's retirement; that round stays an abort.)
func TestAckThenRetireCommits(t *testing.T) {
	for i := 0; i < 20; i++ {
		ended := make(chan struct{})
		sink := &CollectSink{}
		dag := NewDAG().
			AddVertex(&Vertex{Name: "a", Kind: KindSource, Parallelism: 1,
				NewSource: func(int, int) SourceInstance { return &endAfterBarrierSource{n: 20, ended: ended} }}).
			AddVertex(&Vertex{Name: "b", Kind: KindSource, Parallelism: 1,
				NewSource: func(int, int) SourceInstance { return endWithSource{ended: ended} }}).
			AddVertex(StatefulMapVertex("counter", 1, countFn)).
			AddVertex(sink.Vertex("sink", 1)).
			Connect("a", "counter", EdgePartitioned).
			Connect("b", "counter", EdgePartitioned).
			Connect("counter", "sink", EdgePartitioned)
		job, err := Run(dag, Config{
			Cluster:           testCluster(),
			State:             core.Config{Snapshots: true},
			CheckpointTimeout: 10 * time.Second,
			Chaos:             delayBarrier{vertex: "b", d: 30 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return sink.Len() == 20 }, "a's records")
		err = job.CheckpointNow()
		job.Stop()
		if err != nil {
			t.Fatalf("checkpoint %d of 20: %v", i+1, err)
		}
	}
}

// ackFates gives the acks of each named vertex a fixed chaos fate.
type ackFates map[string]chaos.Fate

func (ackFates) BarrierFate(int64, string, int, int) chaos.Fate { return chaos.Fate{} }
func (f ackFates) AckFate(_ int64, vertex string, _, _ int) chaos.Fate {
	return f[vertex]
}
func (ackFates) CrashPreCommit(int64) (bool, int)          { return false, -1 }
func (ackFates) StageDelay(string, int, int) time.Duration { return 0 }

// TestDelayedAckAfterRetirementNotCounted: a finite source whose ack chaos
// delays past its retirement must not count twice — once by retiring,
// once by its late ack — or the round commits before every live instance
// acked. Source a acks late and ends right after the barrier; counter's
// ack is lost, so no attempt may commit.
func TestDelayedAckAfterRetirementNotCounted(t *testing.T) {
	ended, done := make(chan struct{}), make(chan struct{})
	defer close(done)
	sink := &CollectSink{}
	dag := NewDAG().
		AddVertex(&Vertex{Name: "a", Kind: KindSource, Parallelism: 1,
			NewSource: func(int, int) SourceInstance { return &endAfterBarrierSource{n: 20, ended: ended} }}).
		AddVertex(&Vertex{Name: "b", Kind: KindSource, Parallelism: 1,
			NewSource: func(int, int) SourceInstance { return endWithSource{ended: done} }}).
		AddVertex(StatefulMapVertex("counter", 1, countFn)).
		AddVertex(sink.Vertex("sink", 1)).
		Connect("a", "counter", EdgePartitioned).
		Connect("b", "counter", EdgePartitioned).
		Connect("counter", "sink", EdgePartitioned)
	job, err := Run(dag, Config{
		Cluster:           testCluster(),
		State:             core.Config{Snapshots: true},
		CheckpointTimeout: 500 * time.Millisecond,
		Chaos: ackFates{
			"a":       {Delay: 50 * time.Millisecond},
			"counter": {Drop: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	waitFor(t, func() bool { return sink.Len() == 20 }, "a's records")
	if err := job.CheckpointNow(); err == nil {
		t.Fatal("a checkpoint committed without counter's ack")
	}
	select {
	case <-ended:
	default:
		t.Fatal("source a never ended, so its ack never followed its retirement")
	}
}

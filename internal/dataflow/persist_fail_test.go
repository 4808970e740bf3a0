package dataflow

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"squery/internal/core"
	"squery/internal/persist"
)

func init() { gob.Register(countingState{}) }

// phasedSource emits its phases in order, reporting Idle after each one
// until that phase's gate closes — so a test decides exactly which records
// precede which checkpoint while barriers keep flowing.
type phasedSource struct {
	phases [][]Record
	gates  []chan struct{}
	phase  int
	pos    int
	sent   int64
}

func (p *phasedSource) Next() (Record, SourceStatus) {
	for p.phase < len(p.phases) && p.pos == len(p.phases[p.phase]) {
		select {
		case <-p.gates[p.phase]:
			p.phase, p.pos = p.phase+1, 0
		default:
			return Record{}, SourceIdle
		}
	}
	if p.phase == len(p.phases) {
		return Record{}, SourceDone
	}
	r := p.phases[p.phase][p.pos]
	p.pos++
	p.sent++
	return r, SourceOK
}

func (p *phasedSource) Offset() int64 { return p.sent }
func (p *phasedSource) Rewind(int64)  {}

// TestPersistFailureAbortsCheckpoint: stable storage refusing a snapshot
// must cost that checkpoint, not the process. With the snapshot directories
// of the next attempts blocked (a file where each directory would go),
// CheckpointNow reports the I/O error after its retries, every attempt is
// counted as an abort, nothing is published, and the job keeps processing.
// Once storage recovers the next checkpoint commits — and its delta still
// carries the keys that changed only before the failed attempts.
func TestPersistFailureAbortsCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	keys := func(lo, hi, rounds int) []Record {
		var recs []Record
		for r := 0; r < rounds; r++ {
			for k := lo; k < hi; k++ {
				recs = append(recs, Record{Key: k, Value: r})
			}
		}
		return recs
	}
	gates := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	src := &Vertex{
		Name: "src", Kind: KindSource, Parallelism: 1,
		NewSource: func(int, int) SourceInstance {
			return &phasedSource{
				// A: all thirty keys. B: keys 0-4 only. C: keys 5-9 only —
				// a third of the keys, so the commit after C stays a delta.
				phases: [][]Record{keys(0, 30, 1), keys(0, 5, 2), keys(5, 10, 4)},
				gates:  gates,
			}
		},
	}
	sink := &CollectSink{}
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("counter", 2, countFn)).
		AddVertex(sink.Vertex("sink", 1)).
		Connect("src", "counter", EdgePartitioned).
		Connect("counter", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: testCluster(), State: core.Config{Snapshots: true, Incremental: true}, PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	latest := func() int64 { return job.Manager().Registry().LatestCommitted() }

	waitFor(t, func() bool { return sink.Len() == 30 }, "phase A")
	if err := job.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}

	// Storage breaks: ids 2-5 (one attempt and its three retries) cannot
	// create their snapshot directory.
	for id := 2; id <= 5; id++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("ss-%d", id)), []byte("in the way"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	close(gates[0])
	waitFor(t, func() bool { return sink.Len() == 40 }, "phase B")
	err = job.CheckpointNow()
	if err == nil || !strings.Contains(err.Error(), "persisting snapshot") {
		t.Fatalf("checkpoint against broken storage: err = %v", err)
	}
	if errors.Is(err, core.ErrPruneFailed) {
		t.Fatalf("a failed persist reported as a prune failure: %v", err)
	}
	if got := job.CheckpointAborts(); got != 4 {
		t.Errorf("aborts = %d, want 4 (one attempt, three retries)", got)
	}
	if latest() != 1 {
		t.Fatalf("latest committed = %d after failed commits, want 1", latest())
	}

	// The job is alive: phase C flows through.
	for id := 2; id <= 5; id++ {
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("ss-%d", id))); err != nil {
			t.Fatal(err)
		}
	}
	close(gates[1])
	waitFor(t, func() bool { return sink.Len() == 60 }, "phase C after the failed checkpoint")
	if err := job.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint after storage recovered: %v", err)
	}
	if latest() != 6 {
		t.Fatalf("latest committed = %d, want 6", latest())
	}

	// What is durable at 6 is a delta over 1. Keys 0-4 last changed before
	// the failed attempts; they must be in it all the same.
	ps, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ps.ChainLen(6, "counter"); err != nil || n != 1 {
		t.Fatalf("chain length at 6 = %d, %v; want a delta over snapshot 1", n, err)
	}
	state, err := ps.ReadState(6, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 30 {
		t.Fatalf("durable state has %d keys, want 30", len(state))
	}
	for _, e := range state {
		want := 1 // phase A
		switch k := e.Key.(int); {
		case k < 5:
			want += 2 // phase B
		case k < 10:
			want += 4 // phase C
		}
		if got := e.Value.(countingState).Count; got != want {
			t.Errorf("durable count of key %v = %d, want %d", e.Key, got, want)
		}
	}
	close(gates[2])
	job.Wait()
}

package dataflow

import (
	"sync"
	"testing"
	"time"

	"squery/internal/core"
)

// windowEvents builds records with explicit event times: key k at second
// `sec` with value v.
func windowEvent(key any, sec int, v int) Record {
	return Record{Key: key, Value: v, EventTime: time.Unix(int64(sec), 0)}
}

func sumReduce(acc any, rec Record) any {
	n := 0
	if acc != nil {
		n = acc.(int)
	}
	return n + rec.Value.(int)
}

func runWindowJob(t *testing.T, recs []Record, wm *WatermarkPolicy) []Record {
	t.Helper()
	sink := &CollectSink{}
	src := SliceSource("src", 1, recs)
	src.Watermarks = wm
	dag := NewDAG().
		AddVertex(src).
		AddVertex(TumblingWindowVertex("win", 2, 10*time.Second, sumReduce)).
		AddVertex(sink.Vertex("sink", 1)).
		Connect("src", "win", EdgePartitioned).
		Connect("win", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: testCluster(), State: core.Config{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	job.Stop()
	return sink.Records()
}

func TestTumblingWindowAggregates(t *testing.T) {
	recs := []Record{
		windowEvent("a", 1, 10),
		windowEvent("a", 5, 20),
		windowEvent("b", 7, 1),
		windowEvent("a", 12, 100), // next window
		windowEvent("b", 15, 2),
		windowEvent("a", 25, 1000), // third window
	}
	out := runWindowJob(t, recs, &WatermarkPolicy{Every: 1})

	got := map[string]map[int64]int{} // key -> window start sec -> sum
	for _, r := range out {
		wr := r.Value.(WindowResult)
		k := r.Key.(string)
		if got[k] == nil {
			got[k] = map[int64]int{}
		}
		got[k][wr.Start.Unix()] = wr.Value.(int)
		if wr.End.Sub(wr.Start) != 10*time.Second {
			t.Errorf("window span = %v", wr.End.Sub(wr.Start))
		}
	}
	want := map[string]map[int64]int{
		"a": {0: 30, 10: 100, 20: 1000},
		"b": {0: 1, 10: 2},
	}
	for k, ws := range want {
		for start, sum := range ws {
			if got[k][start] != sum {
				t.Errorf("window %s@%d = %d, want %d (all: %v)", k, start, got[k][start], sum, got)
			}
		}
	}
	if len(out) != 5 {
		t.Errorf("windows fired = %d, want 5", len(out))
	}
}

func TestWindowsFireOnWatermarkBeforeEOS(t *testing.T) {
	// With watermarks every record and zero lag, the first window (ends
	// t=10) must fire as soon as an event at t >= 10 arrives — before the
	// stream ends. Use a gated source that never ends within the test.
	sink := &CollectSink{}
	cs := &timedSource{
		recs: []Record{
			windowEvent("k", 2, 5),
			windowEvent("k", 8, 7),
			windowEvent("k", 11, 1), // watermark 11 > window end 10
		},
	}
	src := &Vertex{Name: "src", Kind: KindSource, Parallelism: 1,
		Watermarks: &WatermarkPolicy{Every: 1},
		NewSource:  func(int, int) SourceInstance { return cs },
	}
	dag := NewDAG().
		AddVertex(src).
		AddVertex(TumblingWindowVertex("win", 1, 10*time.Second, sumReduce)).
		AddVertex(sink.Vertex("sink", 1)).
		Connect("src", "win", EdgePartitioned).
		Connect("win", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: testCluster()})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	waitFor(t, func() bool { return sink.Len() >= 1 }, "first window to fire")
	wr := sink.Records()[0].Value.(WindowResult)
	if wr.Value.(int) != 12 || wr.Start.Unix() != 0 {
		t.Fatalf("fired window = %+v", wr)
	}
}

// timedSource drains its records then idles forever; Feed appends more
// records safely while the source is live.
type timedSource struct {
	mu   sync.Mutex
	recs []Record
	pos  int64
}

func (s *timedSource) Next() (Record, SourceStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(s.pos) >= len(s.recs) {
		return Record{}, SourceIdle
	}
	r := s.recs[s.pos]
	s.pos++
	return r, SourceOK
}
func (s *timedSource) Offset() int64  { s.mu.Lock(); defer s.mu.Unlock(); return s.pos }
func (s *timedSource) Rewind(o int64) { s.mu.Lock(); defer s.mu.Unlock(); s.pos = o }
func (s *timedSource) Feed(recs ...Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, recs...)
}
func (s *timedSource) drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.pos) >= len(s.recs)
}

// settle waits until the pipeline is quiescent: every source has consumed
// all fed records and every worker inbox has stayed empty across several
// consecutive polls. "Nothing (more) fired" assertions then check a
// settled pipeline instead of hoping a fixed sleep outlasted delivery.
func settle(t *testing.T, j *Job, sources ...*timedSource) {
	t.Helper()
	stable := 0
	waitFor(t, func() bool {
		for _, s := range sources {
			if !s.drained() {
				stable = 0
				return false
			}
		}
		for _, w := range j.workers {
			if len(w.inbox) != 0 {
				stable = 0
				return false
			}
		}
		stable++
		return stable >= 5
	}, "pipeline to settle")
}

func TestWatermarkLagHoldsWindowsOpen(t *testing.T) {
	// With 20s lag, an event at t=25 produces watermark 5 < 10, so the
	// first window only fires at EOS flush. All windows still fire
	// exactly once overall.
	recs := []Record{
		windowEvent("k", 1, 1),
		windowEvent("k", 25, 2),
	}
	out := runWindowJob(t, recs, &WatermarkPolicy{Every: 1, Lag: 20 * time.Second})
	if len(out) != 2 {
		t.Fatalf("windows = %d, want 2", len(out))
	}
}

func TestWatermarkMinAcrossSources(t *testing.T) {
	// Two sources with different event-time progress: the combined
	// watermark is the minimum, so windows only fire once BOTH sources
	// passed them. The slow source stalls at t=3; nothing may fire until
	// it advances.
	fast := &timedSource{recs: []Record{windowEvent("a", 50, 1)}}
	slow := &timedSource{recs: []Record{windowEvent("b", 3, 1)}}
	sink := &CollectSink{}
	mk := func(name string, s *timedSource) *Vertex {
		return &Vertex{Name: name, Kind: KindSource, Parallelism: 1,
			Watermarks: &WatermarkPolicy{Every: 1},
			NewSource:  func(int, int) SourceInstance { return s },
		}
	}
	dag := NewDAG().
		AddVertex(mk("fast", fast)).
		AddVertex(mk("slow", slow)).
		AddVertex(TumblingWindowVertex("win", 1, 10*time.Second, sumReduce)).
		AddVertex(sink.Vertex("sink", 1)).
		Connect("fast", "win", EdgePartitioned).
		Connect("slow", "win", EdgePartitioned).
		Connect("win", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: testCluster()})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	// Let both events flow through: nothing must fire (combined wm = 3).
	settle(t, job, fast, slow)
	if sink.Len() != 0 {
		t.Fatalf("windows fired with held-back watermark: %v", sink.Records())
	}
	// Advance the slow source: combined watermark becomes min(50, 60) =
	// 50, so exactly the windows ending at or before 50 fire — b's
	// [0,10) — while a's [50,60) and b's [60,70) stay open.
	slow.Feed(windowEvent("b", 60, 1))
	waitFor(t, func() bool { return sink.Len() >= 1 }, "b's first window to fire")
	settle(t, job, fast, slow)
	recs := sink.Records()
	if len(recs) != 1 {
		t.Fatalf("fired %d windows, want exactly 1: %v", len(recs), recs)
	}
	if recs[0].Key != "b" || recs[0].Value.(WindowResult).Start.Unix() != 0 {
		t.Fatalf("fired window = %v", recs[0])
	}
}

func TestWindowStateIsQueryable(t *testing.T) {
	clu := testCluster()
	cs := &timedSource{recs: []Record{
		windowEvent("k1", 2, 5),
		windowEvent("k1", 12, 7), // two open windows for k1
		windowEvent("k2", 3, 1),
	}}
	src := &Vertex{Name: "src", Kind: KindSource, Parallelism: 1,
		// Large lag: windows stay open, visible in state.
		Watermarks: &WatermarkPolicy{Every: 1, Lag: time.Hour},
		NewSource:  func(int, int) SourceInstance { return cs },
	}
	dag := NewDAG().
		AddVertex(src).
		AddVertex(TumblingWindowVertex("win", 2, 10*time.Second, sumReduce)).
		AddVertex(LatencySinkVertexForTest("sink", 1)).
		Connect("src", "win", EdgePartitioned).
		Connect("win", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: clu, State: core.Config{Live: true, Snapshots: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()

	waitFor(t, func() bool {
		v, ok := clu.ClientView().Get(core.LiveMapName("win"), "k1")
		return ok && v.(WindowState).OpenWindows == 2
	}, "open windows in live state")
	v, _ := clu.ClientView().Get(core.LiveMapName("win"), "k1")
	st := v.(WindowState)
	if st.Open[0] != 5 || st.Open[10*int64(time.Second)] != 7 {
		t.Fatalf("open windows = %v", st.Open)
	}
	// A checkpoint snapshots the open windows too.
	if err := job.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if len(core.SnapshotVersions(clu.Store(), "win", "k1")) == 0 {
		t.Fatal("window state missing from snapshot map")
	}
	got, ok := core.SnapshotAt(clu.Store(), "win", "k1", 1)
	if !ok || got.Value.(WindowState).OpenWindows != 2 {
		t.Fatalf("snapshot window state = %+v, %v", got, ok)
	}
}

func TestWindowVertexPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window size accepted")
		}
	}()
	TumblingWindowVertex("w", 1, 0, sumReduce)
}

func TestWindowStartNegativeTimes(t *testing.T) {
	p := &windowProc{size: 10 * time.Second, hop: 10 * time.Second}
	one := func(tt time.Time) int64 {
		starts := p.windowStarts(tt)
		if len(starts) != 1 {
			t.Fatalf("tumbling windowStarts(%v) = %v, want 1", tt, starts)
		}
		return starts[0]
	}
	if got := one(time.Unix(-3, 0)); got != -10*int64(time.Second) {
		t.Fatalf("windowStart(-3s) = %d", got)
	}
	if got := one(time.Unix(0, 0)); got != 0 {
		t.Fatalf("windowStart(0) = %d", got)
	}
	if got := one(time.Unix(10, 0)); got != 10*int64(time.Second) {
		t.Fatalf("windowStart(10s) = %d", got)
	}
}

func TestSlidingWindowsOverlap(t *testing.T) {
	// size 10s, hop 5s: an event at t=7 belongs to windows [0,10) and
	// [5,15); an event at t=2 only to [0,10) and [-5,5)... the latter
	// only if it covers t — t=2 is in [-5,5) and [0,10).
	sink := &CollectSink{}
	src := SliceSource("src", 1, []Record{
		windowEvent("k", 7, 1),
		windowEvent("k", 2, 10),
	})
	src.Watermarks = &WatermarkPolicy{Every: 1}
	dag := NewDAG().
		AddVertex(src).
		AddVertex(SlidingWindowVertex("slide", 1, 10*time.Second, 5*time.Second, sumReduce)).
		AddVertex(sink.Vertex("sink", 1)).
		Connect("src", "slide", EdgePartitioned).
		Connect("slide", "sink", EdgePartitioned)
	job, err := Run(dag, Config{Cluster: testCluster()})
	if err != nil {
		t.Fatal(err)
	}
	job.Wait()
	job.Stop()

	got := map[int64]int{}
	for _, r := range sink.Records() {
		wr := r.Value.(WindowResult)
		got[wr.Start.Unix()] = wr.Value.(int)
	}
	want := map[int64]int{
		-5: 10, // covers t=2 only
		0:  11, // covers both
		5:  1,  // covers t=7 only
	}
	for start, sum := range want {
		if got[start] != sum {
			t.Errorf("window@%d = %d, want %d (all %v)", start, got[start], sum, got)
		}
	}
	if len(got) != 3 {
		t.Errorf("windows = %v, want 3", got)
	}
}

func TestSlidingWindowValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { SlidingWindowVertex("w", 1, 10*time.Second, 3*time.Second, sumReduce) },
		func() { SlidingWindowVertex("w", 1, 10*time.Second, 0, sumReduce) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid sliding window accepted")
				}
			}()
			fn()
		}()
	}
}

func TestWindowStartsCoverEventTime(t *testing.T) {
	p := &windowProc{size: 10 * time.Second, hop: 5 * time.Second}
	for _, sec := range []int64{0, 2, 5, 7, 9, 10, 123, -3} {
		tt := time.Unix(sec, 0)
		starts := p.windowStarts(tt)
		if len(starts) == 0 {
			t.Fatalf("no windows cover t=%d", sec)
		}
		for _, s := range starts {
			if s > tt.UnixNano() || s+int64(p.size) <= tt.UnixNano() {
				t.Fatalf("window [%d,+size) does not cover t=%ds", s, sec)
			}
		}
	}
}

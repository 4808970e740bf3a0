package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("kv", "p0", "gets")
	c2 := r.Counter("kv", "p0", "gets")
	if c1 != c2 {
		t.Fatal("same key returned distinct counters")
	}
	if r.Counter("kv", "p1", "gets") == c1 {
		t.Fatal("distinct ids shared a counter")
	}
	if r.Gauge("kv", "p0", "node") == nil || r.Histogram("kv", "p0", "lat") == nil {
		t.Fatal("gauge/histogram creation failed")
	}
	if r.Log("queries", 8) != r.Log("queries", 99) {
		t.Fatal("same name returned distinct logs")
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "b", "c")
	g := r.Gauge("a", "b", "c")
	h := r.Histogram("a", "b", "c")
	l := r.Log("x", 4)
	c.Inc()
	c.Add(5)
	g.Set(7)
	g.Add(1)
	h.Record(time.Second)
	l.Append(map[string]any{"k": 1})
	if c.Value() != 0 || g.Value() != 0 || len(l.Events()) != 0 {
		t.Fatal("nil instruments retained state")
	}
	if r.PrometheusText() != "" || r.Values("a") != nil || r.HistogramsIn("a") != nil {
		t.Fatal("nil registry produced snapshots")
	}
	if !strings.Contains(r.Dump(), "disabled") {
		t.Fatal("nil registry dump missing disabled marker")
	}
}

func TestEventLogRing(t *testing.T) {
	r := NewRegistry()
	l := r.Log("ckpt", 3)
	for i := 0; i < 5; i++ {
		l.Append(map[string]any{"i": i})
	}
	ev := l.Events()
	if len(ev) != 3 {
		t.Fatalf("retained %d events, want 3", len(ev))
	}
	// Oldest-first with monotone sequence numbers; the first two evicted.
	for j, e := range ev {
		if e.Seq != uint64(3+j) || e.Fields["i"] != 2+j {
			t.Fatalf("event %d = seq %d fields %v", j, e.Seq, e.Fields)
		}
	}
}

func TestRegistryValuesAndDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("kv", "p3", "gets").Add(4)
	r.Gauge("operator", "map/0", "node").Set(2)
	r.Histogram("sql", "exec", "latency").Record(time.Millisecond)
	r.Log("queries", 4).Append(map[string]any{"q": "SELECT 1"})

	vals := r.Values("kv")
	if vals["p3"]["gets"] != 4 {
		t.Fatalf("Values(kv) = %v", vals)
	}
	if len(r.Values("operator")) != 1 || len(r.HistogramsIn("sql")) != 1 {
		t.Fatal("subsystem filtering broken")
	}
	// Dump lists the instruments sorted by (subsystem, id, metric), then
	// the logs.
	d := r.Dump()
	last := -1
	for _, want := range []string{"kv/p3/gets", "operator/map/0/node", "sql/exec/latency", "log queries (1 events)", "q=SELECT 1"} {
		at := strings.Index(d, want)
		if at <= last {
			t.Fatalf("Dump missing %q, or out of order:\n%s", want, d)
		}
		last = at
	}
}

// TestRegistryHammer races get-or-create, instrument updates, and snapshots
// against each other, each goroutine for a fixed number of operations; it
// exists to be run under -race (the `make race` gate). Writers create a
// fresh instrument every few operations to the end, so series-table
// rebuilds race the readers. The cross-layer variant that also scans
// sys.partitions through SQL lives at the repo root (registry_race_test.go)
// to avoid an import cycle.
func TestRegistryHammer(t *testing.T) {
	const writerOps, readerOps = 2000, 100
	r := NewRegistry()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			ids := []string{"p0", "p1", "p2", "p3"}
			for i := 0; i < writerOps; i++ {
				id := ids[i%len(ids)]
				r.Counter("kv", id, "gets").Inc()
				r.Gauge("kv", id, "node").Set(int64(w))
				r.Histogram("kv", id, "lat").Record(time.Duration(i))
				r.Log("events", 64).Append(map[string]any{"w": w, "i": i})
				if i%16 == 0 {
					r.Gauge("kv", fmt.Sprintf("w%d/%d", w, i), "fresh").Set(1)
				}
			}
		}(w)
	}
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < readerOps; i++ {
				r.Capture(time.Now())
				_ = r.History()
				_ = r.Values("kv")
				_ = r.HistogramsIn("kv")
				_ = r.Dump()
				_ = r.PrometheusText()
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := r.Counter("kv", "p0", "gets").Value(); got != 8*writerOps/4 {
		t.Fatalf("p0 gets = %d, want %d", got, 8*writerOps/4)
	}
}

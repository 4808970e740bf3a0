package squery

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"squery/internal/metrics"
)

// liveHeap returns the bytes of heap still reachable after a full
// collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestObservabilityHeapBudget holds the observability plane's memory to
// what it recorded: a bare three-node engine that has captured a minute of
// metric history (60 captures) may hold at most 3 MB more live heap than
// the same engine with metrics off.
func TestObservabilityHeapBudget(t *testing.T) {
	engineHeap := func(cfg Config, captures int) int64 {
		base := liveHeap()
		eng := New(cfg)
		defer eng.Close()
		at := time.Unix(1_000, 0)
		for i := 0; i < captures; i++ {
			eng.Metrics().Capture(at.Add(time.Duration(i) * time.Second))
		}
		used := liveHeap() - base
		runtime.KeepAlive(eng)
		return used
	}
	off := engineHeap(Config{Nodes: 3, DisableMetrics: true}, 0)
	on := engineHeap(Config{Nodes: 3, DisableHistory: true}, 60)
	t.Logf("live heap: metrics off %.2f MB, metrics on after 60 captures %.2f MB", float64(off)/(1<<20), float64(on)/(1<<20))
	if plane := on - off; plane > 3<<20 {
		t.Fatalf("the observability plane holds %.2f MB after 60 captures, budget 3 MB", float64(plane)/(1<<20))
	}
}

// TestHistoryCaptureSharesSeries checks that captures share one series
// table while the instrument set is unchanged, and that sys.history over
// value-only captures reads exactly what the subsystem readers read at
// each capture (the oracle below).
func TestHistoryCaptureSharesSeries(t *testing.T) {
	eng := New(Config{Nodes: 3, DisableHistory: true})
	defer eng.Close()
	reg := eng.Metrics()
	const sub = "histtest"

	at := time.Unix(1_000, 0)
	var ats []time.Time
	// What each capture read, by the subsystem readers Values and
	// HistogramsIn; the test's instruments have one kind per metric name.
	type point struct {
		Key   metrics.InstrumentKey
		Kind  string
		Value int64
	}
	kinds := map[string]string{"events": "counter", "depth": "gauge", "queued": "gauge", "lat": "histogram"}
	var points [][]point
	capture := func(step time.Duration) {
		at = at.Add(step)
		reg.Capture(at)
		var pts []point
		for id, ms := range reg.Values(sub) {
			for m, v := range ms {
				pts = append(pts, point{metrics.InstrumentKey{Subsystem: sub, ID: id, Metric: m}, kinds[m], v})
			}
		}
		for id, ms := range reg.HistogramsIn(sub) {
			for m, h := range ms {
				pts = append(pts, point{metrics.InstrumentKey{Subsystem: sub, ID: id, Metric: m}, kinds[m], int64(h.Count())})
			}
		}
		ats = append(ats, at)
		points = append(points, pts)
	}
	shared := func(i, j int) bool {
		h := reg.History()
		return h[i].SameSeries(h[j])
	}

	c := reg.Counter(sub, "a", "events")
	g := reg.Gauge(sub, "a", "depth")
	h := reg.Histogram(sub, "a", "lat")
	c.Add(5)
	g.Set(3)
	h.Record(time.Millisecond)
	capture(time.Second)
	c.Add(7)
	g.Set(-2)
	h.Record(2 * time.Millisecond)
	capture(time.Second)
	if !shared(0, 1) {
		t.Fatal("two captures of an unchanged instrument set hold different series tables")
	}

	b := reg.Counter(sub, "b", "events")
	b.Add(4)
	c.Add(1)
	capture(500 * time.Millisecond)
	hist := reg.History()
	bKey := metrics.InstrumentKey{Subsystem: sub, ID: "b", Metric: "events"}
	if shared(1, 2) || hist[2].Index(bKey) < 0 || hist[1].Index(bKey) >= 0 {
		t.Fatal("adding an instrument did not produce a new series table holding it")
	}
	c.Add(10)
	b.Add(3)
	h.Record(time.Second)
	capture(2 * time.Second)
	if !shared(2, 3) {
		t.Fatal("captures after the new table do not share it")
	}

	depth := int64(9)
	reg.GaugeFunc(sub, "a", "queued", func() int64 { return depth })
	capture(time.Second)
	depth = 4
	reg.GaugeFunc(sub, "a", "queued", func() int64 { return depth * 2 }) // a restarted worker re-registers
	c.Add(-20)                                                           // a counter that went back reads rate 0
	capture(time.Second)
	if !shared(4, 5) {
		t.Fatal("re-registering a derived gauge changed the series table")
	}
	last := reg.History()[5]
	if v := last.Values[last.Index(metrics.InstrumentKey{Subsystem: sub, ID: "a", Metric: "queued"})]; v != 8 {
		t.Fatalf("re-registered derived gauge captured %d, want 8", v)
	}
	capture(0) // zero interval: rate 0

	var want []string
	var prev map[metrics.InstrumentKey]int64
	for i, pts := range points {
		cur := make(map[metrics.InstrumentKey]int64, len(pts))
		for _, p := range pts {
			cur[p.Key] = p.Value
			rate := 0.0
			if p.Kind == "counter" && prev != nil {
				if pv, ok := prev[p.Key]; ok {
					rate = metrics.Rate(pv, p.Value, ats[i-1], ats[i])
				}
			}
			want = append(want, fmt.Sprint([]any{int64(i), p.Key.Subsystem, p.Key.ID, p.Key.Metric, p.Kind, p.Value, rate}))
		}
		prev = cur
	}
	res, err := eng.Query(`SELECT snapshot, subsystem, id, metric, kind, value, ratePerSec FROM sys.history WHERE subsystem = '` + sub + `'`)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = fmt.Sprint(r)
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sys.history rows differ from the Values/HistogramsIn reader:\ngot  %v\nwant %v", got, want)
	}
}

package squery

import (
	"strings"
	"testing"
	"time"

	"squery/internal/chaos"
)

// healthJob is an endless pipeline for health-plane tests: an unthrottled
// watermarking source into a two-instance stateful stage into a sink. The
// source runs until gate closes.
func healthJob(gate chan struct{}) *DAG {
	src := GeneratorSource("source", 1, 0, func(instance int, seq int64) (Record, bool) {
		select {
		case <-gate:
			return Record{}, false
		default:
		}
		return Record{Key: int(seq % 8), Value: int(seq)}, true
	})
	src.Watermarks = &WatermarkPolicy{Every: 8}
	return NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("average", 2, averageFn)).
		AddVertex(SinkVertex("sink", 1, func(Record) {})).
		Connect("source", "average", EdgePartitioned).
		Connect("average", "sink", EdgePartitioned)
}

// waitRow polls a single-value query until cond holds.
func waitRow(t *testing.T, eng *Engine, q string, cond func(int64) bool, what string) int64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := eng.Query(q)
		if err == nil && len(res.Rows) == 1 {
			if v, ok := res.Rows[0][0].(int64); ok && cond(v) {
				return v
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			t.Fatalf("%s: condition never held (%q -> %v)", what, q, res.Rows)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHealthPlaneAttributesInjectedStall freezes one stage mid-run with a
// chaos StallStage rule and asserts the health plane attributes it: the
// stalled stage reads pressured in sys.backpressure, its watermark freezes
// while its lag grows in sys.watermarks, sys.history has accumulated
// snapshots, and the health queries themselves land in sys.slow_queries
// under an aggressive threshold.
func TestHealthPlaneAttributesInjectedStall(t *testing.T) {
	eng := New(Config{
		Nodes:              2,
		Partitions:         18,
		HistoryInterval:    25 * time.Millisecond,
		HistoryWindow:      10 * time.Second,
		SlowQueryThreshold: time.Nanosecond,
	})
	defer eng.Close()
	inj := chaos.New(7)
	inj.SetTracer(eng.Tracer())
	gate := make(chan struct{})
	job, err := eng.SubmitJob(healthJob(gate), JobSpec{
		Name:            "health",
		State:           StateConfig{Live: true},
		ChannelCapacity: 8,
		Chaos:           inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	defer close(gate)

	// Let the pipeline reach steady state: the operator has processed
	// records and seen at least one watermark.
	waitRow(t, eng, `SELECT MAX(watermarkUs) FROM sys.watermarks WHERE vertex = 'average'`,
		func(v int64) bool { return v > 0 }, "watermark propagation")

	// Freeze the stage: every instance sleeps far longer than the test on
	// its next record, so the inbox backs up and the watermark stops.
	inj.Add(chaos.Rule{
		Kind:     chaos.StallStage,
		Vertex:   "average",
		Instance: chaos.Any,
		Node:     chaos.Any,
		Delay:    30 * time.Second,
	})

	// Backpressure attribution: the stalled stage's inbox fills and its
	// pressure score rises; the upstream source accumulates blocked sends.
	waitRow(t, eng, `SELECT MAX(pressurePermille) FROM sys.backpressure WHERE vertex = 'average'`,
		func(v int64) bool { return v >= 500 }, "pressure on stalled stage")
	waitRow(t, eng, `SELECT SUM(blockedSends) FROM sys.backpressure WHERE vertex = 'source'`,
		func(v int64) bool { return v >= 1 }, "blocked sends upstream of stall")

	// Watermark attribution: frozen watermark, growing lag. An instance
	// stalls on its next *record*; a watermark already in its inbox still
	// passes. Let the reading settle (two equal reads 20ms apart) before
	// calling it frozen — a query now returns in tens of microseconds,
	// well inside that window.
	var wm1 int64
	for last := int64(-1); ; last = wm1 {
		wm1 = waitRow(t, eng, `SELECT MAX(watermarkUs) FROM sys.watermarks WHERE vertex = 'average'`,
			func(v int64) bool { return v > 0 }, "stalled watermark read")
		if wm1 == last {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	lag1 := waitRow(t, eng, `SELECT MAX(lagUs) FROM sys.watermarks WHERE vertex = 'average'`,
		func(v int64) bool { return v > 0 }, "stalled lag read")
	time.Sleep(300 * time.Millisecond)
	wm2 := waitRow(t, eng, `SELECT MAX(watermarkUs) FROM sys.watermarks WHERE vertex = 'average'`,
		func(v int64) bool { return v > 0 }, "stalled watermark re-read")
	lag2 := waitRow(t, eng, `SELECT MAX(lagUs) FROM sys.watermarks WHERE vertex = 'average'`,
		func(v int64) bool { return v > lag1 }, "lag growth")
	if wm2 != wm1 {
		t.Fatalf("watermark moved during stall: %d -> %d", wm1, wm2)
	}
	if lag2-lag1 < 200_000 { // slept 300ms; allow generous scheduling slack
		t.Fatalf("lag grew only %dus over 300ms of stall", lag2-lag1)
	}

	// History: the 25ms retention ticker has captured several snapshots by
	// now, queryable as a time series.
	if v := waitRow(t, eng, `SELECT MAX(snapshot) FROM sys.history`,
		func(v int64) bool { return v >= 1 }, "history snapshots"); v < 1 {
		t.Fatalf("sys.history max snapshot = %d, want >= 1", v)
	}
	waitRow(t, eng, `SELECT COUNT(*) FROM sys.history WHERE metric = 'watermark_lag_us'`,
		func(v int64) bool { return v >= 2 }, "lag series in history")

	// The chaos event fired exactly once (flood suppression) and is
	// attributed to the stalled vertex.
	var stalls int
	for _, ev := range inj.Events() {
		if ev.Kind == chaos.StallStage {
			stalls++
			if ev.Vertex != "average" {
				t.Fatalf("stall event vertex = %q, want average", ev.Vertex)
			}
		}
	}
	if stalls != 1 {
		t.Fatalf("stall events fired = %d, want 1 (first fire only)", stalls)
	}

	// Slow-query accounting: with a 1ns threshold every health query above
	// was mirrored into sys.slow_queries with its resource columns.
	res, err := eng.Query(`SELECT stages FROM sys.slow_queries`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("sys.slow_queries empty under 1ns threshold")
	}
	withStages := 0
	for _, r := range res.Rows {
		if s, _ := r[0].(string); strings.Contains(s, "=") {
			withStages++
		}
	}
	if withStages == 0 {
		t.Fatal("no slow query carries a per-stage wall breakdown")
	}
}

// TestHistoryDisabled verifies the opt-out: with DisableHistory the ring
// stays empty and sys.history returns no rows.
func TestHistoryDisabled(t *testing.T) {
	eng := New(Config{Nodes: 2, Partitions: 18, DisableHistory: true})
	defer eng.Close()
	res, err := eng.Query(`SELECT COUNT(*) FROM sys.history`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].(int64); n != 0 {
		t.Fatalf("sys.history has %d rows with DisableHistory", n)
	}
}

package squery

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"squery/internal/dataflow"
)

// zoneStateFn keys each record's state row by record key with a zone
// column derived from it — five zones, 1/5 selectivity each.
func zoneStateFn(_ any, rec Record) (any, []Record) {
	k := rec.Key.(int)
	return map[string]any{
		"zone":   fmt.Sprintf("z%d", k%5),
		"amount": int64(rec.Value.(int)),
	}, []Record{rec}
}

func sortedResult(t *testing.T, res *Result, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return fmt.Sprint(rows)
}

// TestIndexSurvivesRebalance: a secondary index keeps answering correctly
// — in parity with the full scan — across an online JoinNode and
// LeaveNode, whose migrations replace partition contents wholesale and
// must rebuild the indexes on the flipped partitions. The epoch-fencing
// backstop must never fire.
func TestIndexSurvivesRebalance(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27, ReplicateState: true})
	defer eng.Close()

	const records = 200
	recs := make([]Record, records)
	for i := range recs {
		recs[i] = Record{Key: i, Value: i + 1}
	}
	var sunk atomic.Int64
	dag := NewDAG().
		AddVertex(SliceSource("source", 1, recs)).
		AddVertex(StatefulMapVertex("zones", 2, zoneStateFn)).
		AddVertex(SinkVertex("sink", 1, func(Record) { sunk.Add(1) })).
		Connect("source", "zones", EdgePartitioned).
		Connect("zones", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{Name: "zones", State: StateConfig{Live: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	if err := eng.CreateIndex("zones", "zone", IndexHash); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sunk.Load() >= records }, "records sunk")
	job.Wait()

	const q = `SELECT partitionKey, amount FROM zones WHERE zone = 'z1'`
	parity := func(stage string, reschedules int) {
		t.Helper()
		// A membership change reschedules the job, which replays the
		// source; wait for the reschedule to land and the state to settle
		// so the A and B queries read the same table.
		waitFor(t, func() bool { return job.Reschedules() >= int64(reschedules) }, stage+": reschedule")
		waitFor(t, func() bool {
			res, err := eng.Query(`SELECT COUNT(*) FROM zones`)
			return err == nil && len(res.Rows) == 1 && res.Rows[0][0] == int64(records)
		}, stage+": state to settle")
		onRes, err := eng.QueryWithOptions(q, QueryOptions{})
		on := sortedResult(t, onRes, err)
		offRes, err := eng.QueryWithOptions(q, QueryOptions{DisableIndexes: true})
		off := sortedResult(t, offRes, err)
		if on != off {
			t.Fatalf("%s: index/full-scan mismatch:\n index %s\n full  %s", stage, on, off)
		}
		if len(onRes.Rows) != records/5 {
			t.Fatalf("%s: rows = %d, want %d", stage, len(onRes.Rows), records/5)
		}
		// Parity alone would also pass if the index silently vanished and
		// both sides full-scanned (a reschedule once dropped the map and
		// its index definitions with it). The planner must still *choose*
		// the index, which requires it to exist and estimate cheaper.
		explRes, err := eng.Query(`EXPLAIN ` + q)
		expl := sortedResult(t, explRes, err)
		if want := "access index eq(zone = z1)"; !strings.Contains(expl, want) {
			t.Fatalf("%s: EXPLAIN missing %q — index lost:\n%s", stage, want, expl)
		}
	}
	parity("before rebalance", 0)

	node, err := eng.JoinNode()
	if err != nil {
		t.Fatal(err)
	}
	parity("after join", 1)
	if err := eng.LeaveNode(node); err != nil {
		t.Fatal(err)
	}
	parity("after leave", 2)

	if st := eng.FenceStats(); st.Forced != 0 {
		t.Fatalf("liveness backstop fired: %d forced writes", st.Forced)
	}
}

// TestSysIndexesTable: sys.indexes reports every index with its kind,
// footprint and maintenance/lookup accounting, both via SQL and via the
// programmatic twin.
func TestSysIndexesTable(t *testing.T) {
	eng := New(Config{Nodes: 3, Partitions: 27})
	defer eng.Close()

	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{Key: i, Value: i + 1}
	}
	// The source is held until both indexes exist, so every record is
	// maintained inline: a record mirrored before CreateIndex is indexed by
	// the backfill instead, and with all 100 there the zone index would
	// count no maintenance op.
	var gate atomic.Int64
	done := make(chan struct{})
	close(done)
	src := &Vertex{
		Name:        "source",
		Kind:        KindSource,
		Parallelism: 1,
		NewSource: func(int, int) dataflow.SourceInstance {
			return &phasedParitySource{recs: recs, limit: &gate, done: done}
		},
	}
	var sunk atomic.Int64
	dag := NewDAG().
		AddVertex(src).
		AddVertex(StatefulMapVertex("zix", 2, zoneStateFn)).
		AddVertex(SinkVertex("sink", 1, func(Record) { sunk.Add(1) })).
		Connect("source", "zix", EdgePartitioned).
		Connect("zix", "sink", EdgePartitioned)
	job, err := eng.SubmitJob(dag, JobSpec{Name: "zix", State: StateConfig{Live: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	if err := eng.CreateIndex("zix", "zone", IndexHash); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateIndex("zix", "amount", IndexBTree); err != nil {
		t.Fatal(err)
	}
	gate.Store(int64(len(recs)))
	waitFor(t, func() bool { return sunk.Load() >= 100 }, "records sunk")
	job.Wait()

	// Serve a few lookups so the counter moves.
	for i := 0; i < 3; i++ {
		if _, err := eng.Query(`SELECT partitionKey FROM zix WHERE zone = 'z0'`); err != nil {
			t.Fatal(err)
		}
	}

	infos := eng.IndexInfos()
	if len(infos) != 2 {
		t.Fatalf("IndexInfos = %d entries, want 2", len(infos))
	}
	byCol := map[string]IndexInfo{}
	for _, ix := range infos {
		if ix.Map != "zix" {
			t.Fatalf("index on unexpected map %q", ix.Map)
		}
		byCol[ix.Column] = ix
	}
	zone, amount := byCol["zone"], byCol["amount"]
	if zone.Kind != "hash" || amount.Kind != "btree" {
		t.Fatalf("kinds = %q/%q, want hash/btree", zone.Kind, amount.Kind)
	}
	if zone.Entries != 100 || amount.Entries != 100 {
		t.Fatalf("entries = %d/%d, want 100 each", zone.Entries, amount.Entries)
	}
	if zone.MaintOps == 0 || zone.Bytes == 0 {
		t.Fatalf("zone index accounting empty: maintOps=%d bytes=%d", zone.MaintOps, zone.Bytes)
	}
	if zone.Lookups == 0 {
		t.Fatal("zone index served no lookups despite indexed queries")
	}

	// The same accounting is queryable through plain SQL.
	res, err := eng.Query(`SELECT kind, entries, lookups FROM "sys.indexes" WHERE column = 'zone'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("sys.indexes rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0] != "hash" || res.Rows[0][1].(int64) != 100 {
		t.Fatalf("sys.indexes row = %v", res.Rows[0])
	}
	if res.Rows[0][2].(int64) == 0 {
		t.Fatal("sys.indexes reports zero lookups")
	}
}

package sql

import (
	"fmt"
	"testing"

	"squery/internal/kv"
	"squery/internal/partition"
)

// Allocation gates of the read path (`make bench-smoke`). The fragment
// reads columns by ordinal, reuses one row, one scan buffer and one sink
// per node, and folds into accumulators: what a query allocates must not
// grow with the rows it reads, only with what it returns.

// TestJoinFoldAllocs: Query 3 — a co-partitioned join of two 10 K-row
// snapshot tables, filtered and grouped — allocates under a quarter of an
// object per table row (≈ 5.8 per row when both sides were gathered,
// re-projected by name, hashed, and every group kept its rows).
func TestJoinFoldAllocs(t *testing.T) {
	const n = 10_000
	f := newFixture(t, n, liveSnapCfg())
	q := paperQueries[2]
	res, err := f.ex.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, r := range res.Rows {
		total += r[0].(int64)
	}
	if want := int64((n + 2) / 3); total != want { // states cycle V, N, P
		t.Fatalf("Query 3 counted %d VENDOR_ACCEPTED orders, want %d", total, want)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := f.ex.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / (2 * n); perRow >= 0.25 {
		t.Fatalf("Query 3 over two %d-row tables allocated %.0f objects, %.3f per table row; the gate is 0.25", n, allocs, perRow)
	}
	t.Logf("Query 3 over two %d-row tables: %.0f allocations (%.4f per table row)", n, allocs, allocs/(2*n))
}

// TestScanFoldAllocs: the benchmark's live grouped scan — a pushed
// filter and a fold into per-node groups over a full scan — allocates the
// same over 10 000 rows as over 1 000: each of the 32 partitions then
// spans two chunks instead of one, and nothing a fragment reads or
// evaluates in (scan buffer, batch columns, selections) is allocated per
// chunk or per row. One object per chunk would add 32; the gate allows
// half that, for the buffer pool, which the race detector makes drop
// buffers at random.
func TestScanFoldAllocs(t *testing.T) {
	const q = `SELECT COUNT(*), deliveryZone FROM orderinfo WHERE vendorCategory = 'pharmacy' GROUP BY deliveryZone`
	allocs := func(n int) float64 {
		f := newFixture(t, n, liveSnapCfg())
		res, err := f.ex.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		total := int64(0)
		for _, r := range res.Rows {
			total += r[0].(int64)
		}
		if want := int64(n / 2); total != want { // categories alternate food, pharmacy
			t.Fatalf("the scan counted %d pharmacy orders of %d, want %d", total, n, want)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := f.ex.Query(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if large-small >= 16 {
		t.Fatalf("the grouped scan allocated %.1f objects over 1 000 rows and %.1f over 10 000; the allocations must not grow with rows", small, large)
	}
	t.Logf("grouped scan: %.1f allocations over 1 000 rows, %.1f over 10 000", small, large)
}

// TestKeyLookupAllocs: a `partitionKey = <literal>` read is served by the
// partition's key map — one row examined, not the partition — and parse,
// plan, fragment and result together stay under 100 objects (446 when the
// read copied and filtered its whole partition).
func TestKeyLookupAllocs(t *testing.T) {
	f := newFixture(t, 10_000, liveSnapCfg())
	reg := metered(f)
	q := `SELECT orderState FROM orderstate WHERE partitionKey = 'order-77'`
	res, err := f.ex.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "PICKED_UP" { // 77 % 3 == 2
		t.Fatalf("point read = %v", res.Rows)
	}
	if got := counterVal(t, reg, "sql", "exec", "rows_scanned"); got != 1 {
		t.Fatalf("point read examined %d rows, want 1 (key lookup)", got)
	}
	if evs := logEvents(reg, "queries"); len(evs) != 1 || evs[0].Fields["rowsScanned"] != int64(1) {
		t.Fatalf("sys.queries does not report rows scanned 1: %+v", evs)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.ex.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Fatalf("point read allocated %.0f objects, the gate is 100", allocs)
	}
	t.Logf("point read: %.0f allocations", allocs)
}

// TestStandingAggDeltaAllocs: an aggregate standing query settles a delta
// by adding to and removing from its group's accumulators, not by
// refolding the group's members, so one update folded into a group of 100
// members and into a group of 10 000 allocates the same small number of
// objects — the emitted frame and row, nothing per member. The aggregates
// are float-valued: boxing an int64 result costs nothing below 256 (the
// runtime's small-integer cache), which would make a COUNT of 100 look one
// allocation cheaper than a COUNT of 10 000.
func TestStandingAggDeltaAllocs(t *testing.T) {
	const q = `SELECT deliveryZone, MAX(customerLat), SUM(customerLat), AVG(customerLat) FROM orderinfo GROUP BY deliveryZone`
	perUpdate := func(members int) float64 {
		f := newFixture(t, 0, liveSnapCfg())
		for i := 0; i < members; i++ {
			f.info.Update(fmt.Sprintf("order-%d", i), orderInfo{DeliveryZone: "east", CustomerLat: float64(i)})
		}
		f.info.Flush()
		var out []SubDelta
		sq, err := f.ex.SubscribeQuery(q, frameSink(&out))
		if err != nil {
			t.Fatal(err)
		}
		defer sq.Close()
		// The update moves the group's MAX member up and back down again,
		// so every delta changes the group's row.
		key := fmt.Sprintf("order-%d", members-1)
		ds := updateDeltas(t, sq, key, orderInfo{DeliveryZone: "east", CustomerLat: float64(members) + 0.5})
		n := 0
		allocs := testing.AllocsPerRun(200, func() {
			out = nil
			sq.g.t.deliver(0, ds[n%2:n%2+1])
			n++
			if len(out) != 1 || sq.g.failed != nil {
				t.Fatalf("one update emitted %v (failed: %v), want one changed group row", out, sq.g.failed)
			}
		})
		if g := sq.g.groups[string(fromAny("east").appendGroupKey(nil))]; g == nil || g.members != members {
			t.Fatalf("the group does not hold %d members after the updates", members)
		}
		return allocs
	}
	small, large := perUpdate(100), perUpdate(10_000)
	if small != large || large > 16 {
		t.Fatalf("one update allocated %.1f objects in a group of 100 and %.1f in a group of 10 000; want the same, at most 16", small, large)
	}
	t.Logf("one update: %.0f allocations in a group of 100 and of 10 000", small)
}

// frameSink binds a sink that keeps the deltas of the last frame in out.
func frameSink(out *[]SubDelta) func(*StandingQuery) func(SubEvent) {
	return func(*StandingQuery) func(SubEvent) {
		return func(ev SubEvent) { *out = ev.Deltas }
	}
}

// updateDeltas returns the two deltas that move the row sq's first source
// table holds under key to the value moved and back.
func updateDeltas(t *testing.T, sq *StandingQuery, key string, moved any) [2]kv.Delta {
	t.Helper()
	ref := sq.g.t.pp.srcs[0].ref
	p, _ := ref.PartitionOf(key)
	ks := partition.KeyString(key)
	orig, ok := ref.Lookup(p, ks, 0)
	if !ok {
		t.Fatalf("%s is not in %s", key, ref.Name())
	}
	return [2]kv.Delta{
		{Part: p, Key: orig.Key, KeyS: ks, Value: moved, Old: orig.Raw, HadOld: true},
		{Part: p, Key: orig.Key, KeyS: ks, Value: orig.Raw, Old: moved, HadOld: true},
	}
}

// TestStandingDeltaAllocs: a filter standing query and a co-partitioned
// join standing query fold one update — the retraction of the row it
// replaced, then the insert of its new row — and settle it into one
// changed output row within a ceiling: the frame, the output row and its
// boxed values, and for the join its index entry and display key. The
// ceilings are what a delta cost when each was evaluated row by row;
// evaluating it as a batch of one must add nothing.
func TestStandingDeltaAllocs(t *testing.T) {
	f := newFixture(t, 1000, liveSnapCfg())
	for _, c := range []struct {
		name, q string
		ceiling float64
	}{
		{"filter", `SELECT partitionKey, deliveryZone, customerLat FROM orderinfo WHERE vendorCategory = 'food' AND customerLat > 10`, 4},
		{"join", `SELECT orderinfo.partitionKey, orderState, customerLat FROM orderinfo JOIN orderstate USING(partitionKey) WHERE deliveryZone = 'north'`, 13},
	} {
		var out []SubDelta
		sq, err := f.ex.SubscribeQuery(c.q, frameSink(&out))
		if err != nil {
			t.Fatal(err)
		}
		// order-10 is a north food order; the update moves its latitude
		// and back, so every delta changes its output row.
		const key = "order-10"
		ds := updateDeltas(t, sq, key, orderInfo{DeliveryZone: "north", VendorCategory: "food", CustomerLat: 99.5})
		n := 0
		allocs := testing.AllocsPerRun(200, func() {
			out = nil
			sq.g.t.deliver(0, ds[n%2:n%2+1])
			n++
			if len(out) != 1 || out[0].Delete || sq.g.failed != nil {
				t.Fatalf("%s: one update emitted %v (failed: %v), want one changed row", c.name, out, sq.g.failed)
			}
		})
		sq.Close()
		if allocs > c.ceiling {
			t.Fatalf("%s: one update allocated %.1f objects, the ceiling is %.0f", c.name, allocs, c.ceiling)
		}
		t.Logf("%s: one update allocated %.0f objects", c.name, allocs)
	}
}

// TestStandingDeltaCostFlatInWatchers: a delta folds only into the groups
// of its row's tuple, so one update on a template with one other tuple
// attached and on the same template with 1 000 others, none of which the
// row matches, allocates the same. A template's groups share its scratch and
// each keeps its own batch effects, so a group the delta does not reach
// costs it nothing.
func TestStandingDeltaCostFlatInWatchers(t *testing.T) {
	const q = `SELECT partitionKey, deliveryZone, customerLat FROM orderinfo WHERE vendorCategory = '%s' AND customerLat > 10`
	perUpdate := func(others int) float64 {
		f := newFixture(t, 1000, liveSnapCfg())
		var out []SubDelta
		sq, err := f.ex.SubscribeQuery(fmt.Sprintf(q, "food"), frameSink(&out))
		if err != nil {
			t.Fatal(err)
		}
		defer sq.Close()
		for i := 0; i < others; i++ {
			other, err := f.ex.SubscribeQuery(fmt.Sprintf(q, fmt.Sprintf("cat-%d", i)), discardSink)
			if err != nil {
				t.Fatal(err)
			}
			defer other.Close()
		}
		if tpls := len(f.ex.standing.tpls); tpls != 1 || len(sq.g.t.groups) != others+1 {
			t.Fatalf("%d templates with %d groups, want one template with %d", tpls, len(sq.g.t.groups), others+1)
		}
		ds := updateDeltas(t, sq, "order-10", orderInfo{DeliveryZone: "north", VendorCategory: "food", CustomerLat: 99.5})
		n := 0
		return testing.AllocsPerRun(200, func() {
			out = nil
			sq.g.t.deliver(0, ds[n%2:n%2+1])
			n++
			if len(out) != 1 || out[0].Delete {
				t.Fatalf("one update emitted %v, want one changed row", out)
			}
		})
	}
	one, many := perUpdate(1), perUpdate(1000)
	if one != many {
		t.Fatalf("one update allocated %.1f objects with 1 non-matching tuple attached and %.1f with 1 000; want the same", one, many)
	}
	t.Logf("one update: %.0f allocations with 1 and with 1 000 non-matching tuples attached", one)
}

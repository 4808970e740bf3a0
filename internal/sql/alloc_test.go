package sql

import (
	"fmt"
	"slices"
	"testing"

	"squery/internal/core"
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
// objects — the batch's bookkeeping and the emitted row, nothing per
// member. The aggregates are float-valued: boxing an int64 result costs
// nothing below 256 (the runtime's small-integer cache), which would make
// a COUNT of 100 look one allocation cheaper than a COUNT of 10 000.
func TestStandingAggDeltaAllocs(t *testing.T) {
	const q = `SELECT deliveryZone, MAX(customerLat), SUM(customerLat), AVG(customerLat) FROM orderinfo GROUP BY deliveryZone`
	perUpdate := func(members int) float64 {
		f := newFixture(t, 0, liveSnapCfg())
		f.ex.SetArrangements(core.NewArrangeRegistry(f.store))
		for i := 0; i < members; i++ {
			f.info.Update(fmt.Sprintf("order-%d", i), orderInfo{DeliveryZone: "east", CustomerLat: float64(i)})
		}
		f.info.Flush()
		sq, err := f.ex.SubscribeQuery(q, discardSink)
		if err != nil {
			t.Fatal(err)
		}
		defer sq.Close()
		// The update moves the group's MAX member up and back down again,
		// so every delta changes the group's row.
		key := fmt.Sprintf("order-%d", members-1)
		var orig core.TableRow
		id := sq.arrs[0].Attach(func([]core.ArrDelta) {}, func(_ int, rows []core.TableRow) {
			if i := slices.IndexFunc(rows, func(r core.TableRow) bool { return r.Key == key }); i >= 0 {
				orig = rows[i]
			}
		})
		sq.arrs[0].Detach(id)
		if orig.Key != key {
			t.Fatalf("%s is not in the arrangement", key)
		}
		moved := orig
		moved.Raw = orderInfo{DeliveryZone: "east", CustomerLat: float64(members) + 0.5}
		ds := [2]core.ArrDelta{
			{Row: moved, Old: orig, HadOld: true, KeyS: key},
			{Row: orig, Old: moved, HadOld: true, KeyS: key},
		}
		n := 0
		allocs := testing.AllocsPerRun(200, func() {
			sq.mu.Lock()
			defer sq.mu.Unlock()
			eff := newBatchEff()
			sq.applyDelta(0, &ds[n%2], eff)
			n++
			if out := sq.settleLocked(eff); len(out) != 1 || sq.failed != nil {
				t.Fatalf("one update emitted %v (failed: %v), want one changed group row", out, sq.failed)
			}
		})
		if g := sq.groups[string(fromAny("east").appendGroupKey(nil))]; g == nil || g.members != members {
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

package sql

import (
	"testing"
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

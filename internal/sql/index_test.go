package sql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"squery/internal/core"
)

// paperQueries are Queries 1-4 of §VIII as printed (internal/qcommerce,
// which this package cannot import, holds the same texts).
var paperQueries = []string{
	`SELECT COUNT(*), deliveryZone FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE (orderState='VENDOR_ACCEPTED' AND lateTimestamp<LOCALTIMESTAMP) GROUP BY deliveryZone;`,
	`SELECT COUNT(*), vendorCategory FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE (orderState='NOTIFIED' OR orderState='ACCEPTED') GROUP BY vendorCategory;`,
	`SELECT COUNT(*), deliveryZone FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE (orderState='VENDOR_ACCEPTED') GROUP BY deliveryZone;`,
	`SELECT COUNT(*), deliveryZone FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE orderState='PICKED_UP' OR orderState='LEFT_PICKUP' OR orderState='NEAR_CUSTOMER' GROUP BY deliveryZone;`,
}

// indexFixture is newFixture plus secondary indexes on both operators:
// hash on the string columns, B-tree on the numeric one, covering live
// and snapshot tables.
func indexFixture(t testing.TB, n int) *fixture {
	t.Helper()
	f := newFixture(t, n, liveSnapCfg())
	for _, ix := range []struct {
		table, col string
		kind       core.IndexKind
	}{
		{"orderinfo", "deliveryZone", core.IndexHash},
		{"orderinfo", "customerLat", core.IndexBTree},
		{"orderstate", "orderState", core.IndexHash},
		{"snapshot_orderinfo", "deliveryZone", core.IndexHash},
	} {
		if err := f.cat.CreateIndex(ix.table, ix.col, ix.kind); err != nil {
			t.Fatalf("CreateIndex(%s.%s): %v", ix.table, ix.col, err)
		}
	}
	return f
}

// sortedRows renders a result set order-independently.
func sortedRows(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return fmt.Sprint(rows)
}

// runAB executes the query with indexes enabled and disabled and fails on
// any difference — the core parity contract: an index changes how rows are
// found, never which rows are found.
func runAB(t *testing.T, f *fixture, q string, opts ExecOpts) (*Result, *Result) {
	t.Helper()
	on, err := f.ex.QueryWithOptions(q, opts)
	if err != nil {
		t.Fatalf("indexed %s: %v", q, err)
	}
	optsOff := opts
	optsOff.DisableIndexes = true
	off, err := f.ex.QueryWithOptions(q, optsOff)
	if err != nil {
		t.Fatalf("full-scan %s: %v", q, err)
	}
	if got, want := sortedRows(on), sortedRows(off); got != want {
		t.Fatalf("index/full-scan mismatch for %s:\n index %s\n full  %s", q, got, want)
	}
	return on, off
}

// explainHas asserts the plan for q renders (or does not render) an index
// access path.
func explainHas(t *testing.T, f *fixture, q string, wantIndex bool) string {
	t.Helper()
	text, err := f.ex.Explain(q)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", q, err)
	}
	if got := strings.Contains(text, "access index"); got != wantIndex {
		t.Fatalf("EXPLAIN %s: index path rendered = %v, want %v\n%s", q, got, wantIndex, text)
	}
	return text
}

// TestIndexParity: every query shape the planner can route through an
// index returns exactly the full-scan result — point and range probes,
// aggregates with DISTINCT, joins, LIMIT, and guarded (degradation-policy)
// executions.
func TestIndexParity(t *testing.T) {
	f := indexFixture(t, 120)

	point := `SELECT partitionKey, customerLat FROM orderinfo WHERE deliveryZone = 'north'`
	res, _ := runAB(t, f, point, ExecOpts{})
	if len(res.Rows) != 60 {
		t.Fatalf("point query rows = %d, want 60", len(res.Rows))
	}
	explainHas(t, f, point, true)

	rng := `SELECT partitionKey FROM orderinfo WHERE customerLat >= 60 AND customerLat < 100`
	res, _ = runAB(t, f, rng, ExecOpts{})
	if len(res.Rows) != 40 {
		t.Fatalf("range query rows = %d, want 40", len(res.Rows))
	}
	explainHas(t, f, rng, true)

	runAB(t, f, `SELECT partitionKey FROM orderinfo WHERE customerLat BETWEEN 55 AND 60.5`, ExecOpts{})
	runAB(t, f, `SELECT partitionKey FROM orderinfo WHERE 57 > customerLat`, ExecOpts{})
	// Mixed conjuncts: equality and range on different columns — the
	// planner picks the cheaper path, the other conjunct stays in the
	// pushed filter.
	runAB(t, f, `SELECT partitionKey FROM orderinfo WHERE deliveryZone = 'south' AND customerLat < 70`, ExecOpts{})

	// DISTINCT aggregate over an index-served scan.
	runAB(t, f, `SELECT COUNT(DISTINCT vendorCategory) FROM orderinfo WHERE deliveryZone = 'north'`, ExecOpts{})

	// Joins: index-served sides on both the co-partitioned and the
	// general hash join.
	runAB(t, f, `SELECT a.partitionKey FROM orderinfo a JOIN orderstate b USING(partitionKey) `+
		`WHERE a.deliveryZone = 'north' AND b.orderState = 'NOTIFIED'`, ExecOpts{})
	runAB(t, f, `SELECT a.partitionKey, b.orderState FROM orderinfo a JOIN orderstate b ON a.partitionKey = b.partitionKey `+
		`WHERE a.customerLat > 100 AND b.orderState = 'PICKED_UP'`, ExecOpts{})

	// The paper's four queries, verbatim: every column unqualified, so the
	// planner attributes each conjunct to the one side that has it and the
	// fragment probes the other by key.
	for _, q := range paperQueries {
		runAB(t, f, q, ExecOpts{})
	}

	// A pinned key: the key lookup must return what scanning the pruned
	// partition does, alone and as the driving side of a join.
	keyed := `SELECT deliveryZone, customerLat FROM orderinfo WHERE partitionKey = 'order-7'`
	res, _ = runAB(t, f, keyed, ExecOpts{})
	if len(res.Rows) != 1 {
		t.Fatalf("key lookup rows = %d, want 1", len(res.Rows))
	}
	if text, err := f.ex.Explain(keyed); err != nil || !strings.Contains(text, "access key lookup(partitionKey = order-7)") {
		t.Fatalf("pinned key did not plan a key lookup: %v\n%s", err, text)
	}
	runAB(t, f, `SELECT deliveryZone, orderState FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE partitionKey = 'order-7'`, ExecOpts{})
	runAB(t, f, `SELECT deliveryZone FROM orderinfo WHERE partitionKey = 'no-such-order'`, ExecOpts{})

	// LIMIT: early-stop makes the kept subset nondeterministic, so parity
	// here is count + predicate, not row identity.
	for _, disable := range []bool{false, true} {
		res, err := f.ex.QueryWithOptions(
			`SELECT deliveryZone FROM orderinfo WHERE deliveryZone = 'south' LIMIT 5`,
			ExecOpts{DisableIndexes: disable})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("LIMIT rows = %d, want 5 (DisableIndexes=%v)", len(res.Rows), disable)
		}
		for _, r := range res.Rows {
			if r[0] != "south" {
				t.Fatalf("LIMIT row violates predicate: %v", r)
			}
		}
	}

	// Snapshot table: the chain-union index answers the pinned ssid.
	snap := `SELECT partitionKey FROM "snapshot_orderinfo" WHERE ssid = 1 AND deliveryZone = 'south'`
	res, _ = runAB(t, f, snap, ExecOpts{})
	if len(res.Rows) != 60 {
		t.Fatalf("snapshot point query rows = %d, want 60", len(res.Rows))
	}

	// Degradation policies on a healthy cluster: guarded executions take
	// the same index path and the same rows.
	for _, pol := range []Policy{PolicyRetry, PolicyFailFast, PolicyFallback} {
		runAB(t, f, point, ExecOpts{Policy: pol})
	}

	// No index on vendorCategory: the planner must not fabricate a path.
	explainHas(t, f, `SELECT partitionKey FROM orderinfo WHERE vendorCategory = 'food'`, false)
	// DisablePushdown implies no index selection (nothing is pushed).
	res, err := f.ex.QueryWithOptions(point, ExecOpts{DisablePushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 60 {
		t.Fatalf("DisablePushdown rows = %d, want 60", len(res.Rows))
	}
}

// TestIndexScanStatsAndAnalyze: the chosen path shows up in EXPLAIN
// ANALYZE with estimated and actual candidate counts, and rows_scanned
// drops to the selectivity of the probe instead of the table size.
func TestIndexScanStatsAndAnalyze(t *testing.T) {
	f := indexFixture(t, 120)

	q := `SELECT partitionKey FROM orderinfo WHERE deliveryZone = 'north'`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	res, pp, err := f.ex.execTraced(stmt, ExecOpts{}, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 60 {
		t.Fatalf("rows = %d, want 60", len(res.Rows))
	}
	sc := pp.scans[0]
	if sc.Access == "" || sc.EstRows != 60 {
		t.Fatalf("scan access = %q est %d, want index path with est 60", sc.Access, sc.EstRows)
	}
	// The index probe hands the pushed filter only the matching zone's
	// candidates: examined == selectivity, not the 120-row table.
	if got := sc.Stat().Examined.Load(); got != 60 {
		t.Fatalf("examined = %d, want 60 (index should skip the other zone)", got)
	}
	// Full scan baseline examines everything.
	stmt2, _ := Parse(q)
	_, pp2, err := f.ex.execTraced(stmt2, ExecOpts{DisableIndexes: true}, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := pp2.scans[0].Stat().Examined.Load(); got != 120 {
		t.Fatalf("full-scan examined = %d, want 120", got)
	}
	if pp2.scans[0].Access != "" {
		t.Fatalf("DisableIndexes still chose %q", pp2.scans[0].Access)
	}

	// EXPLAIN ANALYZE renders estimated vs actual.
	out, err := f.ex.QueryWithOptions(`EXPLAIN ANALYZE `+q, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, r := range out.Rows {
		lines = append(lines, fmt.Sprint(r[0]))
	}
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "access index eq(deliveryZone = north)") {
		t.Fatalf("EXPLAIN ANALYZE missing access path:\n%s", text)
	}
	if !strings.Contains(text, "est≈60") || !strings.Contains(text, "60 examined") {
		t.Fatalf("EXPLAIN ANALYZE missing est/actual counts:\n%s", text)
	}
}

// TestIndexRangeBoundsMerge: multiple range conjuncts merge into one
// B-tree probe with the tightest bounds.
func TestIndexRangeBoundsMerge(t *testing.T) {
	f := indexFixture(t, 120)
	q := `SELECT partitionKey FROM orderinfo WHERE customerLat >= 52 AND customerLat >= 60 AND customerLat <= 80 AND customerLat < 200`
	text := explainHas(t, f, q, true)
	if !strings.Contains(text, "index range(customerLat >= 60 and customerLat <= 80)") {
		t.Fatalf("bounds not merged tightest-first:\n%s", text)
	}
	runAB(t, f, q, ExecOpts{})
}

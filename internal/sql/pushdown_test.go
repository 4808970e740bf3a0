package sql

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"squery/internal/metrics"
	"squery/internal/partition"
)

// Streaming-semantics tests: the pipeline must push single-table
// predicates into the partition scans (never run them client-side), stop
// scans early when a LIMIT fills, report the same pruning in EXPLAIN
// ANALYZE that execution performed, and behave identically under the
// degradation policies.

// metered attaches a registry to the fixture's executor and returns it.
func metered(f *fixture) *metrics.Registry {
	reg := metrics.NewRegistry()
	f.ex.SetMetrics(reg)
	return reg
}

func counterVal(t *testing.T, reg *metrics.Registry, sub, id, metric string) int64 {
	t.Helper()
	return reg.Counter(sub, id, metric).Value()
}

func TestPushdownFilterRunsNodeSide(t *testing.T) {
	f := newFixture(t, 40, liveSnapCfg())
	reg := metered(f)

	// White box: a single-table WHERE must compile to a pushed scan
	// filter with no residual Filter node.
	stmt, err := Parse(`SELECT deliveryZone FROM orderinfo WHERE customerLat > 90`)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := f.ex.compile(stmt, ExecOpts{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if pp.residual != nil || pp.filter != nil {
		t.Fatalf("single-table predicate left a client-side residual: %v", pp.residual)
	}
	if pp.scans[0].Filter == "" {
		t.Fatal("scan carries no pushed filter")
	}
	// The select list runs inside the fragment, on the owning node — the
	// scan's rows are not gathered, so only the projected deliveryZone
	// ships; customerLat is read by the pushed predicate alone.
	if pp.scans[0].Gathered || pp.proj == nil || pp.proj.AtClient {
		t.Fatalf("projection did not run node-side: gathered=%v proj=%+v", pp.scans[0].Gathered, pp.proj)
	}
	if c, ok := pp.pushedB[0].e.(Binary).L.(*colRef); !ok || c.src != 0 || c.ord < 0 || c.kind != dFloat {
		t.Fatalf("pushed predicate's column is not bound to a schema ordinal: %+v", pp.pushedB[0].e)
	}

	// Black box: customerLat runs 52..91, so > 90 matches 1 of 40 rows.
	// All 40 must be examined node-side but only the match may ship.
	res, err := f.ex.Query(`SELECT deliveryZone FROM orderinfo WHERE customerLat > 90`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	scanned := counterVal(t, reg, "sql", "exec", "rows_scanned")
	shipped := counterVal(t, reg, "sql", "exec", "rows_shipped")
	if scanned != 40 {
		t.Fatalf("rows_scanned = %d, want 40 (every row examined node-side)", scanned)
	}
	if shipped != 1 {
		t.Fatalf("rows_shipped = %d, want 1 (only the match crosses the client hop)", shipped)
	}
}

// TestPrunedEmptyPartitionStillBinds: a query pinned by partitionKey to a
// partition that holds no row still binds its columns to the table's
// schema, and two standing queries that differ only in a liftable literal
// share a template, whichever partitions happened to be empty when they
// compiled.
func TestPrunedEmptyPartitionStillBinds(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	p := partition.New(32)
	used := map[int]bool{}
	for i := 0; i < 6; i++ {
		used[p.Of(fmt.Sprintf("order-%d", i))] = true
	}
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("absent-%d", i); !used[p.Of(k)] {
			key = k
		}
	}
	q := `SELECT customerLat FROM orderinfo WHERE partitionKey = '` + key + `' AND deliveryZone = '%s'`
	pp, err := f.ex.compile(mustParse(t, fmt.Sprintf(q, "north")), ExecOpts{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if pp.srcs[0].partHint < 0 || pp.srcs[0].schema == nil {
		t.Fatalf("pinned to an empty partition: hint %d, schema %v", pp.srcs[0].partHint, pp.srcs[0].schema != nil)
	}
	a, err := f.ex.SubscribeQuery(fmt.Sprintf(q, "north"), discardSink)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := f.ex.SubscribeQuery(fmt.Sprintf(q, "south"), discardSink)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.g.t != b.g.t {
		t.Fatal("two standing queries differing in a lifted literal do not share a template")
	}
}

func TestPushdownParityWithDisabled(t *testing.T) {
	f := newFixture(t, 30, liveSnapCfg())
	queries := []string{
		`SELECT deliveryZone, customerLat FROM orderinfo WHERE customerLat > 70 ORDER BY customerLat`,
		`SELECT deliveryZone FROM orderinfo WHERE partitionKey = 'order-7'`,
		`SELECT COUNT(*), deliveryZone FROM orderinfo GROUP BY deliveryZone ORDER BY deliveryZone`,
		`SELECT a.deliveryZone, b.orderState FROM orderinfo a JOIN orderstate b USING(partitionKey) WHERE a.customerLat > 75 ORDER BY a.customerLat`,
		`SELECT a.deliveryZone FROM orderinfo a LEFT JOIN orderstate b USING(partitionKey) WHERE b.orderState = 'NOTIFIED' ORDER BY a.customerLat`,
		`SELECT deliveryZone FROM orderinfo WHERE customerLat > 60 ORDER BY customerLat LIMIT 5`,
		`SELECT COUNT(DISTINCT deliveryZone) FROM orderinfo WHERE customerLat > 55`,
	}
	for _, q := range queries {
		want, err := f.ex.QueryWithOptions(q, ExecOpts{DisablePushdown: true})
		if err != nil {
			t.Fatalf("%s (no pushdown): %v", q, err)
		}
		got, err := f.ex.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s:\npushdown:    %v %v\nno pushdown: %v %v", q, got.Columns, got.Rows, want.Columns, want.Rows)
		}
	}
	// The paper's queries as printed: no ORDER BY, so groups compare as a
	// set. Every conjunct is unqualified and must still be pushed.
	for _, q := range paperQueries {
		want, err := f.ex.QueryWithOptions(q, ExecOpts{DisablePushdown: true})
		if err != nil {
			t.Fatalf("%s (no pushdown): %v", q, err)
		}
		got, err := f.ex.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || sortedRows(got) != sortedRows(want) {
			t.Errorf("%s:\npushdown:    %v %s\nno pushdown: %v %s", q, got.Columns, sortedRows(got), want.Columns, sortedRows(want))
		}
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := f.ex.compile(stmt, ExecOpts{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if pp.residual != nil || pp.pushed[1] == nil || !pp.coPart || pp.drive != 1 {
			t.Errorf("%s: residual %v, pushed %v, coPart %v, drive %d; want everything pushed to orderstate, which drives", q, pp.residual, pp.pushed, pp.coPart, pp.drive)
		}
	}
}

func TestLimitEarlyTerminationStopsScans(t *testing.T) {
	f := newFixture(t, 2000, liveSnapCfg())
	reg := metered(f)

	res, err := f.ex.Query(`SELECT deliveryZone FROM orderinfo LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	parts := counterVal(t, reg, "sql", "exec", "partitions_scanned")
	shipped := counterVal(t, reg, "sql", "exec", "rows_shipped")
	// Early stop is racy by design (scans cancel at batch boundaries),
	// but with 2000 rows over 32 partitions a filled LIMIT 10 must leave
	// most of the table unread.
	if parts > 16 {
		t.Fatalf("partitions_scanned = %d, want <= 16 of 32 (early stop)", parts)
	}
	if shipped > 1000 {
		t.Fatalf("rows_shipped = %d, want <= 1000 of 2000 (early stop)", shipped)
	}

	// Without pushdown the same query must ship everything.
	if _, err := f.ex.QueryWithOptions(`SELECT deliveryZone FROM orderinfo LIMIT 10`, ExecOpts{DisablePushdown: true}); err != nil {
		t.Fatal(err)
	}
	fullShipped := counterVal(t, reg, "sql", "exec", "rows_shipped") - shipped
	if fullShipped != 2000 {
		t.Fatalf("rows_shipped without pushdown = %d, want 2000", fullShipped)
	}
}

func TestLimitZeroReturnsNoRows(t *testing.T) {
	f := newFixture(t, 12, liveSnapCfg())
	res, err := f.ex.Query(`SELECT deliveryZone FROM orderinfo LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
}

// scanAnnotation matches "scanned X/Y partitions (Z pruned)".
var scanAnnotation = regexp.MustCompile(`scanned (\d+)/(\d+) partitions \((\d+) pruned\)`)

func TestExplainAnalyzePrunedCountsMatchExecution(t *testing.T) {
	f := newFixture(t, 20, liveSnapCfg())
	reg := metered(f)

	res, err := f.ex.Query(`EXPLAIN ANALYZE SELECT deliveryZone FROM orderinfo WHERE partitionKey = 'order-3'`)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, row := range res.Rows {
		fmt.Fprintln(&text, row[0])
	}
	m := scanAnnotation.FindStringSubmatch(text.String())
	if m == nil {
		t.Fatalf("no scan annotation in plan:\n%s", text.String())
	}
	planScanned, _ := strconv.ParseInt(m[1], 10, 64)
	planTotal, _ := strconv.ParseInt(m[2], 10, 64)
	planPruned, _ := strconv.ParseInt(m[3], 10, 64)

	regScanned := counterVal(t, reg, "sql", "exec", "partitions_scanned")
	regPruned := counterVal(t, reg, "sql", "exec", "partitions_pruned")
	if planScanned != regScanned {
		t.Errorf("plan says scanned %d, registry counted %d", planScanned, regScanned)
	}
	if planPruned != regPruned {
		t.Errorf("plan says pruned %d, registry counted %d", planPruned, regPruned)
	}
	if planScanned != 1 || planPruned != planTotal-1 {
		t.Errorf("pin should scan exactly 1 partition and prune the rest, got %d/%d (%d pruned)",
			planScanned, planTotal, planPruned)
	}
}

func TestExplainAnalyzeRendersExecutedPlanTree(t *testing.T) {
	// EXPLAIN ANALYZE must render from the same plan tree the executor
	// ran: the annotated row counts are execution facts (row survival
	// through filter, shipped counts), not re-derived estimates.
	f := newFixture(t, 24, liveSnapCfg())
	res, err := f.ex.Query(`EXPLAIN ANALYZE SELECT deliveryZone FROM orderinfo WHERE customerLat > 70`)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, row := range res.Rows {
		fmt.Fprintln(&text, row[0])
	}
	plan := text.String()
	// customerLat runs 52..75 over 24 rows: 5 rows match (71..75).
	if !strings.Contains(plan, "5 rows kept (of 24 examined)") {
		t.Fatalf("plan missing executed scan stats:\n%s", plan)
	}
	if !strings.Contains(plan, "pushed filter (customerLat > 70)") {
		t.Fatalf("plan missing pushed filter:\n%s", plan)
	}
	if !strings.Contains(plan, "5 row(s) returned") {
		t.Fatalf("plan missing returned-rows total:\n%s", plan)
	}
}

func TestGuardedPoliciesStreamWithPushdown(t *testing.T) {
	// The guarded scan paths (per-partition timeout goroutines) must
	// apply the same pushdown and produce the same results as the
	// unguarded fast path on a healthy cluster.
	f := newFixture(t, 30, liveSnapCfg())
	reg := metered(f)
	want, err := f.ex.Query(`SELECT deliveryZone, customerLat FROM orderinfo WHERE customerLat > 70 ORDER BY customerLat`)
	if err != nil {
		t.Fatal(err)
	}
	base := counterVal(t, reg, "sql", "exec", "rows_shipped")
	for _, policy := range []Policy{PolicyRetry, PolicyFallback, PolicyFailFast} {
		got, err := f.ex.QueryWithOptions(
			`SELECT deliveryZone, customerLat FROM orderinfo WHERE customerLat > 70 ORDER BY customerLat`,
			ExecOpts{Policy: policy})
		if err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("policy %s rows = %v, want %v", policy, got.Rows, want.Rows)
		}
		shipped := counterVal(t, reg, "sql", "exec", "rows_shipped") - base
		base += shipped
		if shipped != int64(len(want.Rows)) {
			t.Errorf("policy %s shipped %d rows, want %d (pushdown must apply on guarded path)",
				policy, shipped, len(want.Rows))
		}
	}
}

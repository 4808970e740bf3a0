package sql

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
)

// orderInfo / orderState mirror the Delivery Hero schema of §VIII.
type orderInfo struct {
	DeliveryZone   string
	VendorCategory string
	CustomerLat    float64
}

type orderState struct {
	OrderState    string
	LateTimestamp time.Time
}

// fixture builds a 3-node store with the two Delivery Hero operators,
// snapshots their state at ssid 1, applies some live-only updates, and
// returns an executor.
type fixture struct {
	store *kv.Store
	cat   *core.Catalog
	mgr   *core.Manager
	ex    *Executor
	info  *core.Backend
	state *core.Backend
}

func newFixture(t testing.TB, n int, cfg core.Config) *fixture {
	t.Helper()
	return newFixtureOn(t, n, 32, cfg)
}

// newFixtureOn is newFixture over the given number of partitions.
func newFixtureOn(t testing.TB, n, parts int, cfg core.Config) *fixture {
	t.Helper()
	p := partition.New(parts)
	store := kv.NewStore(p, partition.Assign(parts, 3), nil)
	mgr := core.NewManager(store, 2)
	cat := core.NewCatalog(store)
	if err := cat.RegisterJob(mgr.Registry(), "orderinfo", "orderstate"); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"orderinfo", "orderstate"} {
		if err := mgr.RegisterOperator(core.OperatorMeta{Name: op, Parallelism: 1, Config: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	f := &fixture{
		store: store,
		cat:   cat,
		mgr:   mgr,
		ex:    NewExecutor(cat, 3),
		info:  mgr.NewBackend("orderinfo", 0, store.View(0), cfg),
		state: mgr.NewBackend("orderstate", 0, store.View(0), cfg),
	}

	zones := []string{"north", "south"}
	cats := []string{"food", "pharmacy"}
	states := []string{"VENDOR_ACCEPTED", "NOTIFIED", "PICKED_UP"}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("order-%d", i)
		f.info.Update(key, orderInfo{
			DeliveryZone:   zones[i%2],
			VendorCategory: cats[i%2],
			CustomerLat:    52.0 + float64(i),
		})
		f.state.Update(key, orderState{
			OrderState:    states[i%3],
			LateTimestamp: time.Now().Add(-time.Minute),
		})
	}
	f.checkpoint(t)
	return f
}

func (f *fixture) checkpoint(t testing.TB) int64 {
	t.Helper()
	ssid, err := f.mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.info.SnapshotPrepare(ssid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.state.SnapshotPrepare(ssid); err != nil {
		t.Fatal(err)
	}
	f.mgr.Commit(ssid)
	return ssid
}

func liveSnapCfg() core.Config { return core.Config{Live: true, Snapshots: true} }

func TestQueryLiveSimple(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	res, err := f.ex.Query(`SELECT deliveryZone, customerLat FROM orderinfo WHERE partitionKey = 'order-2'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0] != "north" || res.Rows[0][1] != 54.0 {
		t.Fatalf("row = %v", res.Rows[0])
	}
	if res.ColumnIndex("customerLat") != 1 {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestQuerySnapshotDefaultsToLatestCommitted(t *testing.T) {
	f := newFixture(t, 4, liveSnapCfg())
	// Mutate live state after the checkpoint: snapshot queries must not
	// see it.
	f.info.Update("order-0", orderInfo{DeliveryZone: "CHANGED"})
	f.info.Flush() // mirroring is batched; workers flush at quiescence

	res, err := f.ex.Query(`SELECT deliveryZone FROM "snapshot_orderinfo" WHERE partitionKey = 'order-0'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "north" {
		t.Fatalf("snapshot rows = %v", res.Rows)
	}
	// The live table does see it.
	res, err = f.ex.Query(`SELECT deliveryZone FROM orderinfo WHERE partitionKey = 'order-0'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "CHANGED" {
		t.Fatalf("live rows = %v", res.Rows)
	}
}

func TestQuerySnapshotPinnedSSID(t *testing.T) {
	f := newFixture(t, 2, liveSnapCfg())
	f.info.Update("order-0", orderInfo{DeliveryZone: "v2"})
	ssid2 := f.checkpoint(t)

	q := `SELECT deliveryZone FROM "snapshot_orderinfo" WHERE ssid=%d AND partitionKey = 'order-0'`
	res, err := f.ex.Query(fmt.Sprintf(q, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "north" {
		t.Fatalf("ssid 1 row = %v", res.Rows)
	}
	res, err = f.ex.Query(fmt.Sprintf(q, ssid2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "v2" {
		t.Fatalf("ssid 2 row = %v", res.Rows)
	}
	// Pinning an unknown snapshot id errors.
	if _, err := f.ex.Query(fmt.Sprintf(q, 99)); err == nil {
		t.Fatal("query of unknown ssid succeeded")
	}
}

func TestQueryNoCommittedSnapshotFails(t *testing.T) {
	p := partition.New(8)
	store := kv.NewStore(p, partition.Assign(8, 1), nil)
	mgr := core.NewManager(store, 2)
	cat := core.NewCatalog(store)
	cat.RegisterJob(mgr.Registry(), "op")
	ex := NewExecutor(cat, 1)
	if _, err := ex.Query(`SELECT * FROM snapshot_op`); err == nil {
		t.Fatal("snapshot query before first checkpoint succeeded")
	}
}

func TestPaperQuery1Shape(t *testing.T) {
	f := newFixture(t, 30, liveSnapCfg())
	res, err := f.ex.Query(`SELECT COUNT(*), deliveryZone FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE (orderState='VENDOR_ACCEPTED' AND lateTimestamp<LOCALTIMESTAMP) GROUP BY deliveryZone;`)
	if err != nil {
		t.Fatal(err)
	}
	// states cycle V,N,P; zones cycle north,south. VENDOR_ACCEPTED =
	// indices ≡ 0 mod 3 → 10 orders, zones split by parity of i.
	total := int64(0)
	for _, row := range res.Rows {
		total += row[0].(int64)
	}
	if total != 10 {
		t.Fatalf("total VENDOR_ACCEPTED = %d, want 10; rows=%v", total, res.Rows)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("zones = %d, want 2", len(res.Rows))
	}
}

func TestJoinProducesBothSidesColumns(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	res, err := f.ex.Query(`SELECT partitionKey, deliveryZone, orderState FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) ORDER BY partitionKey`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	if res.Rows[0][0] != "order-0" || res.Rows[0][2] != "VENDOR_ACCEPTED" {
		t.Fatalf("first row = %v", res.Rows[0])
	}
}

func TestJoinOnClause(t *testing.T) {
	f := newFixture(t, 4, liveSnapCfg())
	res, err := f.ex.Query(`SELECT COUNT(*) FROM orderinfo AS a JOIN orderstate AS b ON a.partitionKey = b.partitionKey`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(4) {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestLeftJoinKeepsMisses(t *testing.T) {
	f := newFixture(t, 3, liveSnapCfg())
	// Remove one order's state so the left join has a miss.
	f.state.Delete("order-1")
	f.state.Flush() // mirroring is batched; workers flush at quiescence
	res, err := f.ex.Query(`SELECT partitionKey, orderState FROM orderinfo LEFT JOIN orderstate USING(partitionKey) ORDER BY partitionKey`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[1][1] != nil {
		t.Fatalf("miss row = %v, want NULL orderState", res.Rows[1])
	}
}

func TestAggregatesAll(t *testing.T) {
	f := newFixture(t, 10, liveSnapCfg())
	res, err := f.ex.Query(`SELECT COUNT(*), MIN(customerLat), MAX(customerLat), AVG(customerLat), SUM(customerLat) FROM orderinfo`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0] != int64(10) || row[1] != 52.0 || row[2] != 61.0 {
		t.Fatalf("count/min/max = %v", row)
	}
	if avg := row[3].(float64); avg != 56.5 {
		t.Fatalf("avg = %v", avg)
	}
	if sum := row[4].(float64); sum != 565.0 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	f := newFixture(t, 5, liveSnapCfg())
	res, err := f.ex.Query(`SELECT COUNT(*), SUM(customerLat) FROM orderinfo WHERE deliveryZone = 'nowhere'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(0) || res.Rows[0][1] != nil {
		t.Fatalf("empty aggregate = %v", res.Rows)
	}
}

func TestGroupByWithExpression(t *testing.T) {
	f := newFixture(t, 12, liveSnapCfg())
	res, err := f.ex.Query(`SELECT vendorCategory, COUNT(*) * 2 AS doubled FROM orderinfo GROUP BY vendorCategory ORDER BY vendorCategory`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][0] != "food" || res.Rows[0][1] != int64(12) {
		t.Fatalf("row = %v", res.Rows[0])
	}
	if res.Columns[1] != "doubled" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	f := newFixture(t, 8, liveSnapCfg())
	res, err := f.ex.Query(`SELECT customerLat FROM orderinfo ORDER BY customerLat DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0] != 59.0 || res.Rows[2][0] != 57.0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	f := newFixture(t, 2, liveSnapCfg())
	res, err := f.ex.Query(`SELECT * FROM orderinfo LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.ColumnIndex(core.ColPartitionKey) < 0 || res.ColumnIndex("deliveryZone") < 0 {
		t.Fatalf("star columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestStarWithAggregateRejected(t *testing.T) {
	f := newFixture(t, 2, liveSnapCfg())
	if _, err := f.ex.Query(`SELECT *, COUNT(*) FROM orderinfo GROUP BY deliveryZone`); err == nil {
		t.Fatal("star with aggregation succeeded")
	}
}

func TestUnknownTableAndColumnErrors(t *testing.T) {
	f := newFixture(t, 2, liveSnapCfg())
	if _, err := f.ex.Query(`SELECT a FROM nosuchtable`); err == nil {
		t.Fatal("unknown table succeeded")
	}
	if _, err := f.ex.Query(`SELECT nosuchcolumn FROM orderinfo`); err == nil {
		t.Fatal("unknown column succeeded")
	}
}

// TestGuardedComparisonErrors: a comparison that cannot be evaluated (a
// string column against a number) behind an AND whose left side is false
// on every row, or an OR whose left side is true on every row, is never
// reached and raises nothing, in the batch form as in the row form; the
// same comparison reached does raise its error, on every path.
func TestGuardedComparisonErrors(t *testing.T) {
	f := newFixture(t, 600, liveSnapCfg()) // partitions of about 19 rows, under one chunk
	for _, opts := range []ExecOpts{{}, {DisablePushdown: true}} {
		for q, want := range map[string]int64{
			`SELECT COUNT(*) FROM orderinfo WHERE customerLat < 0 AND deliveryZone > 5`:                                   0,
			`SELECT COUNT(*) FROM orderinfo WHERE customerLat > 0 OR deliveryZone > 5`:                                    600,
			`SELECT COUNT(*) FROM orderinfo WHERE NOT (customerLat < 0 AND deliveryZone > 5)`:                             600,
			`SELECT COUNT(*) FROM "snapshot_orderinfo" WHERE customerLat < 0 AND deliveryZone > 5`:                        0,
			`SELECT COUNT(*) FROM orderinfo WHERE deliveryZone IN ('north', 'south', 5)`:                                  600,
			`SELECT COUNT(*) FROM orderinfo JOIN orderstate USING(partitionKey) WHERE customerLat < 0 AND orderState > 5`: 0,
		} {
			res, err := f.ex.QueryWithOptions(q, opts)
			if err != nil {
				t.Fatalf("%s (pushdown off: %v): %v", q, opts.DisablePushdown, err)
			}
			if res.Rows[0][0] != want {
				t.Fatalf("%s (pushdown off: %v) = %v, want %d", q, opts.DisablePushdown, res.Rows[0][0], want)
			}
		}
		for _, q := range []string{
			`SELECT COUNT(*) FROM orderinfo WHERE customerLat > 0 AND deliveryZone > 5`,
			`SELECT COUNT(*) FROM orderinfo WHERE customerLat < 0 OR deliveryZone > 5`,
			`SELECT COUNT(*) FROM orderinfo JOIN orderstate USING(partitionKey) WHERE customerLat > 0 AND orderState > 5`,
		} {
			if _, err := f.ex.QueryWithOptions(q, opts); err == nil || !strings.Contains(err.Error(), "cannot compare string") {
				t.Fatalf("%s (pushdown off: %v): err = %v, want the string-against-number comparison's", q, opts.DisablePushdown, err)
			}
		}
	}
}

func TestSnapshotRowsExposeSSIDColumn(t *testing.T) {
	f := newFixture(t, 2, liveSnapCfg())
	res, err := f.ex.Query(`SELECT ssid, partitionKey FROM "snapshot_orderinfo" ORDER BY partitionKey`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0] != int64(1) {
			t.Fatalf("ssid column = %v, want 1", row[0])
		}
	}
}

func TestIncrementalSnapshotQueryMergesVersions(t *testing.T) {
	cfg := core.Config{Live: true, Snapshots: true, Incremental: true}
	f := newFixture(t, 6, cfg)
	// Change two orders, checkpoint: ssid 2 holds only the delta.
	f.info.Update("order-0", orderInfo{DeliveryZone: "moved", VendorCategory: "food"})
	f.info.Update("order-1", orderInfo{DeliveryZone: "moved", VendorCategory: "pharmacy"})
	f.checkpoint(t)

	res, err := f.ex.Query(`SELECT partitionKey, deliveryZone, ssid FROM "snapshot_orderinfo" ORDER BY partitionKey`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (deltas must merge with base)", len(res.Rows))
	}
	// order-0 is from the delta (ssid 2), order-2 from the base (ssid 1).
	byKey := map[string][]any{}
	for _, row := range res.Rows {
		byKey[row[0].(string)] = row
	}
	if byKey["order-0"][1] != "moved" || byKey["order-0"][2] != int64(2) {
		t.Fatalf("order-0 = %v", byKey["order-0"])
	}
	if byKey["order-2"][1] != "north" || byKey["order-2"][2] != int64(1) {
		t.Fatalf("order-2 = %v", byKey["order-2"])
	}
}

func TestCountDistinct(t *testing.T) {
	f := newFixture(t, 10, liveSnapCfg())
	res, err := f.ex.Query(`SELECT COUNT(DISTINCT deliveryZone) FROM orderinfo`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(2) {
		t.Fatalf("distinct zones = %v", res.Rows[0][0])
	}
}

func TestResultString(t *testing.T) {
	f := newFixture(t, 2, liveSnapCfg())
	res, err := f.ex.Query(`SELECT partitionKey FROM orderinfo ORDER BY partitionKey`)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if s == "" || res.ColumnIndex("nope") != -1 {
		t.Fatal("String()/ColumnIndex misbehave")
	}
}

// sixCols has six columns: its sorted column-name slice grows by doubling
// to capacity eight, leaving the two spare slots that appending the two
// pseudo-columns used to write into — one backing array, shared by every
// row of the type.
type sixCols struct {
	A, B, C string
	D, E, F int64
}

// TestSelectStarConcurrentSixColumns: concurrent SELECT * over a struct
// table must not write the schema's shared column slice. Regression
// (reproduced under -race): TableRow.Columns appended partitionKey and ssid
// to wire.Schema's own slice.
func TestSelectStarConcurrentSixColumns(t *testing.T) {
	f := newFixture(t, 2, liveSnapCfg())
	six := newBackend(t, f, "sixcols")
	for i := 0; i < 20; i++ {
		six.Update(fmt.Sprintf("k-%d", i), sixCols{A: "a", B: "b", C: "c", D: int64(i), E: 2, F: 3})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, opts := range []ExecOpts{{}, {DisablePushdown: true}} {
					res, err := f.ex.QueryWithOptions(`SELECT * FROM sixcols`, opts)
					if err != nil {
						t.Error(err)
						return
					}
					if len(res.Columns) != 8 || len(res.Rows) != 20 || res.ColumnIndex(core.ColSSID) != 7 {
						t.Errorf("SELECT * = %v, %d rows; want 6 columns + partitionKey, ssid and 20 rows", res.Columns, len(res.Rows))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

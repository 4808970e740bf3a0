package sql

import (
	"fmt"
	"strings"
	"testing"

	"squery/internal/core"
	"squery/internal/kv"
)

// TestThreeTableJoin folds two joins: orderinfo ⋈ orderstate ⋈ riderinfo.
func TestThreeTableJoin(t *testing.T) {
	f := newFixture(t, 8, liveSnapCfg())
	// A third operator keyed by the same partitionKey.
	rider := newBackend(t, f, "riderassign")
	for i := 0; i < 8; i++ {
		rider.Update(fmt.Sprintf("order-%d", i), map[string]any{"rider": fmt.Sprintf("r%d", i%3)})
	}
	res, err := f.ex.Query(`SELECT COUNT(*) FROM orderinfo JOIN orderstate USING(partitionKey) JOIN riderassign USING(partitionKey)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(8) {
		t.Fatalf("three-way join count = %v", res.Rows[0][0])
	}
	// Columns from all three sides resolve.
	res, err = f.ex.Query(`SELECT partitionKey, deliveryZone, orderState, rider FROM orderinfo JOIN orderstate USING(partitionKey) JOIN riderassign USING(partitionKey) WHERE partitionKey = 'order-2'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][3] != "r2" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// newBackend registers an extra live-state operator in the fixture's
// catalog and returns its backend.
func newBackend(t *testing.T, f *fixture, op string) *backendHandle {
	t.Helper()
	if err := f.cat.RegisterJob(f.mgr.Registry(), op); err != nil {
		t.Fatal(err)
	}
	return &backendHandle{f: f, op: op}
}

type backendHandle struct {
	f  *fixture
	op string
}

func (b *backendHandle) Update(key string, value any) {
	b.f.store.View(0).Put(b.op, key, value)
}

// Property-flavoured check: the co-partitioned USING(partitionKey) plan
// and the general ON plan must produce identical aggregates.
func TestPartitionedJoinAgreesWithGeneralPlan(t *testing.T) {
	f := newFixture(t, 40, liveSnapCfg())
	usingQ := `SELECT COUNT(*), deliveryZone FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) GROUP BY deliveryZone ORDER BY deliveryZone`
	onQ := `SELECT COUNT(*), deliveryZone FROM "snapshot_orderinfo" AS a JOIN "snapshot_orderstate" AS b ON a.partitionKey = b.partitionKey GROUP BY deliveryZone ORDER BY deliveryZone`
	r1, err := f.ex.Query(usingQ)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.ex.Query(onQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("plans disagree on group count: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		if r1.Rows[i][0] != r2.Rows[i][0] || r1.Rows[i][1] != r2.Rows[i][1] {
			t.Fatalf("row %d: %v vs %v", i, r1.Rows[i], r2.Rows[i])
		}
	}
}

// Per-table ssid pins: each snapshot table can be pinned to a different
// version in one query.
func TestPerTableSSIDPins(t *testing.T) {
	f := newFixture(t, 4, liveSnapCfg())
	f.info.Update("order-0", orderInfo{DeliveryZone: "v2zone"})
	f.state.Update("order-0", orderState{OrderState: "DELIVERED"})
	f.checkpoint(t)

	res, err := f.ex.Query(`SELECT deliveryZone, orderState FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE snapshot_orderinfo.ssid = 1 AND snapshot_orderstate.ssid = 2 AND partitionKey = 'order-0'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "north" || res.Rows[0][1] != "DELIVERED" {
		t.Fatalf("mixed-version join = %v", res.Rows)
	}
}

// An unqualified ssid pin applies to all snapshot tables in the query.
func TestUnqualifiedPinAppliesToAll(t *testing.T) {
	f := newFixture(t, 4, liveSnapCfg())
	f.info.Update("order-0", orderInfo{DeliveryZone: "v2zone"})
	f.state.Update("order-0", orderState{OrderState: "DELIVERED"})
	f.checkpoint(t)

	res, err := f.ex.Query(`SELECT deliveryZone, orderState FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE ssid = 1 AND partitionKey = 'order-0'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "north" || res.Rows[0][1] != "VENDOR_ACCEPTED" {
		t.Fatalf("pinned rows = %v", res.Rows)
	}
}

func TestJoinLiveWithSnapshot(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	// Update live info after the checkpoint; join live info against the
	// snapshotted state: live columns show the update, snapshot side is
	// frozen.
	f.info.Update("order-0", orderInfo{DeliveryZone: "LIVEZONE"})
	f.info.Flush() // mirroring is batched; workers flush at quiescence
	res, err := f.ex.Query(`SELECT deliveryZone, orderState FROM orderinfo JOIN "snapshot_orderstate" USING(partitionKey) WHERE partitionKey = 'order-0'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "LIVEZONE" || res.Rows[0][1] != "VENDOR_ACCEPTED" {
		t.Fatalf("mixed live/snapshot join = %v", res.Rows)
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	res, err := f.ex.Query(`SELECT COUNT(*) FROM orderinfo AS a JOIN orderinfo AS b ON a.partitionKey = b.partitionKey`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(6) {
		t.Fatalf("self join = %v", res.Rows[0][0])
	}
}

// A provider-backed table has no keyed storage to probe: USING(partitionKey)
// against one must join through the general path and still find its rows.
func TestVirtualTableJoinsThroughGeneralPath(t *testing.T) {
	f := newFixture(t, 8, liveSnapCfg())
	f.cat.RegisterVirtual("sys.flags", func() []core.TableRow {
		return []core.TableRow{
			{Key: "order-2", Value: kv.MapRow{"flag": "hot"}},
			{Key: "order-5", Value: kv.MapRow{"flag": "cold"}},
			{Key: "order-99", Value: kv.MapRow{"flag": "gone"}},
		}
	})
	for _, q := range []string{
		`SELECT f.flag, deliveryZone FROM "sys.flags" f JOIN orderinfo USING(partitionKey) ORDER BY f.flag`,
		`SELECT f.flag, deliveryZone FROM orderinfo JOIN "sys.flags" f USING(partitionKey) ORDER BY f.flag`,
	} {
		res, err := f.ex.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != 2 || res.Rows[0][0] != "cold" || res.Rows[1][0] != "hot" || res.Rows[1][1] != "north" {
			t.Fatalf("%s = %v, want the two flagged orders that exist", q, res.Rows)
		}
		text, err := f.ex.Explain(q)
		if err != nil || !strings.Contains(text, "global hash join") {
			t.Fatalf("virtual table planned a keyed probe: %v\n%s", err, text)
		}
	}
}

package sql

import (
	"fmt"
	"strings"
	"testing"

	"squery/internal/core"
)

// planOf runs an EXPLAIN [ANALYZE] statement through the public query path
// and reassembles the single-column plan result into text.
func planOf(t *testing.T, ex *Executor, query string) string {
	t.Helper()
	res, err := ex.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("explain result columns = %v, want [plan]", res.Columns)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%v\n", r[0])
	}
	return b.String()
}

func wantContains(t *testing.T, plan string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(plan, w) {
			t.Errorf("plan missing %q:\n%s", w, plan)
		}
	}
}

func TestExplainAnalyzeScan(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	plan := planOf(t, f.ex, `EXPLAIN ANALYZE SELECT deliveryZone FROM orderinfo`)
	wantContains(t, plan,
		"scan orderinfo",
		"live (read uncommitted)",
		"[analyze: scanned 32/32 partitions (0 pruned), 6 rows",
		"project deliveryZone [analyze: 6 row(s)",
		"analyzed: total",
		"6 row(s) returned, 0 degraded partition(s)",
	)
}

func TestExplainAnalyzePrunedScan(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	plan := planOf(t, f.ex,
		`EXPLAIN ANALYZE SELECT deliveryZone FROM orderinfo WHERE partitionKey = 'order-2'`)
	wantContains(t, plan,
		"pruned to partition",
		"[analyze: scanned 1/32 partitions (31 pruned), 1 rows",
		"filter",
		"1 row(s) returned",
	)
	// Pruning is an optimisation, not a semantic change: the pruned query
	// returns exactly the rows the predicate selects.
	res, err := f.ex.Query(`SELECT deliveryZone FROM orderinfo WHERE partitionKey = 'order-2'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "north" {
		t.Fatalf("pruned query rows = %v", res.Rows)
	}
}

func TestExplainAnalyzeCoPartitionedJoinPrunesBothSides(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	plan := planOf(t, f.ex,
		`EXPLAIN ANALYZE SELECT COUNT(*) FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE partitionKey = 'order-1'`)
	wantContains(t, plan,
		"co-partitioned key-lookup join",
		"[analyze: 1 rows",
		"aggregate (single group), folded per node into partial groups, merged at the client [analyze: 1 group(s) from 1 partial(s) of 1 row(s)",
		// The USING(partitionKey) join key is the partition key on both
		// sides, so the unqualified pin turns the driving side into a key
		// lookup in one partition and the other side is probed with that
		// one key — neither side is scanned.
		"access key lookup(partitionKey = order-1)",
		"scanned 1/32 partitions (31 pruned), 1 rows kept (of 1 examined via key lookup",
		"probed 1 key(s), 1 hit(s)",
	)
	res, err := f.ex.Query(`SELECT COUNT(*) FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE partitionKey = 'order-1'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(1) {
		t.Fatalf("join count = %v, want 1", res.Rows[0][0])
	}
}

func TestExplainAnalyzeAggregate(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	plan := planOf(t, f.ex,
		`EXPLAIN ANALYZE SELECT COUNT(*), deliveryZone FROM orderinfo GROUP BY deliveryZone`)
	wantContains(t, plan,
		"aggregate GROUP BY deliveryZone, folded per node into partial groups, merged at the client [analyze: 2 group(s) from ",
		" of 6 row(s)",
		"2 row(s) returned",
	)
}

func TestExplainAnalyzePinnedSnapshot(t *testing.T) {
	f := newFixture(t, 4, liveSnapCfg())
	f.checkpoint(t) // ssid 2, so pinning to 1 is a real choice
	plan := planOf(t, f.ex,
		`EXPLAIN ANALYZE SELECT deliveryZone FROM "snapshot_orderinfo" WHERE ssid = 1 AND partitionKey = 'order-0'`)
	wantContains(t, plan,
		"snapshot @ ssid 1 (pinned)",
		"scanned 1/32 partitions (31 pruned)",
	)
}

func TestFloatLiteralDoesNotPrune(t *testing.T) {
	// SQL equality coerces int and float, but the partition hash does not:
	// Hash(5.0) != Hash(5). A float pin could prune to the wrong partition,
	// so it must fall back to a full scan.
	f := newFixture(t, 4, liveSnapCfg())
	if err := f.cat.RegisterJob(f.mgr.Registry(), "intorders"); err != nil {
		t.Fatal(err)
	}
	ib := core.NewBackend("intorders", 0, f.store.View(0), liveSnapCfg())
	ib.Update(5, orderInfo{DeliveryZone: "intkey"})
	ib.Update(7, orderInfo{DeliveryZone: "other"})
	ib.Flush() // mirroring is batched; workers flush at quiescence

	plan := planOf(t, f.ex,
		`EXPLAIN ANALYZE SELECT deliveryZone FROM intorders WHERE partitionKey = 5.0`)
	if strings.Contains(plan, "pruned to partition") {
		t.Errorf("float partitionKey literal must not prune:\n%s", plan)
	}
	wantContains(t, plan, "scanned 32/32 partitions (0 pruned)")
	// The full scan finds the int-keyed row SQL equality matches; an int
	// literal, by contrast, prunes safely to the same row.
	res, err := f.ex.Query(`SELECT deliveryZone FROM intorders WHERE partitionKey = 5.0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "intkey" {
		t.Fatalf("float-literal query rows = %v, want [[intkey]]", res.Rows)
	}
	plan = planOf(t, f.ex,
		`EXPLAIN ANALYZE SELECT deliveryZone FROM intorders WHERE partitionKey = 5`)
	wantContains(t, plan, "pruned to partition", "scanned 1/32 partitions (31 pruned), 1 rows")
}

func TestExplainPlanOnlyPrefix(t *testing.T) {
	// Plain EXPLAIN through the query path: plan text, no [analyze:]
	// annotations, and the statement is not executed (no result rows
	// beyond the plan's own lines).
	f := newFixture(t, 4, liveSnapCfg())
	plan := planOf(t, f.ex, `EXPLAIN SELECT deliveryZone FROM orderinfo`)
	wantContains(t, plan, "scan orderinfo", "live (read uncommitted)")
	if strings.Contains(plan, "[analyze:") || strings.Contains(plan, "analyzed:") {
		t.Errorf("plain EXPLAIN must not carry analyze annotations:\n%s", plan)
	}
}

// TestOwnedPartitions pins the scan-routing contract every scan path
// shares: no hint fans out to exactly the node's owned partitions, an
// owned hint narrows to that single partition, an unowned hint empties the
// node (no goroutine, no hop), and virtual tables live wholly on node 0.
func TestOwnedPartitions(t *testing.T) {
	f := newFixture(t, 4, liveSnapCfg())
	ref, err := f.cat.Table("orderinfo")
	if err != nil {
		t.Fatal(err)
	}
	ownedBy := func(node int) []int {
		var out []int
		for p := 0; p < ref.Partitions(); p++ {
			if ref.PartitionOwner(p) == node {
				out = append(out, p)
			}
		}
		return out
	}
	hint := 7
	owner := ref.PartitionOwner(hint)
	other := (owner + 1) % 3

	cases := []struct {
		name string
		src  tableSrc
		node int
		want []int
	}{
		{"all-nodes fan-out node 0", tableSrc{ref: ref, partHint: -1}, 0, ownedBy(0)},
		{"all-nodes fan-out node 2", tableSrc{ref: ref, partHint: -1}, 2, ownedBy(2)},
		{"hint on owner", tableSrc{ref: ref, partHint: hint}, owner, []int{hint}},
		{"hint on other node (empty)", tableSrc{ref: ref, partHint: hint}, other, nil},
	}
	for _, c := range cases {
		got := f.ex.ownedPartitions(c.src, c.node)
		if len(got) != len(c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: got %v, want %v", c.name, got, c.want)
			}
		}
	}

	// Virtual tables: one pseudo-partition on node 0.
	f.cat.RegisterVirtual("sys.test", func() []core.TableRow { return nil })
	vref, err := f.cat.Table("sys.test")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.ex.ownedPartitions(tableSrc{ref: vref, partHint: -1}, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("virtual node 0 partitions = %v, want [0]", got)
	}
	if got := f.ex.ownedPartitions(tableSrc{ref: vref, partHint: -1}, 1); got != nil {
		t.Fatalf("virtual node 1 partitions = %v, want none", got)
	}
}

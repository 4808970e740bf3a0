package sql

import (
	"strings"
	"testing"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
)

func TestExplainSingleTable(t *testing.T) {
	f := newFixture(t, 4, liveSnapCfg())
	plan, err := f.ex.Explain(`SELECT deliveryZone FROM orderinfo WHERE customerLat > 50 ORDER BY deliveryZone LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"scan orderinfo",
		"live (read uncommitted)",
		"filter (customerLat > 50)",
		"sort deliveryZone ASC",
		"limit 3",
		"project deliveryZone",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainCoPartitionedJoin(t *testing.T) {
	f := newFixture(t, 4, liveSnapCfg())
	plan, err := f.ex.Explain(`SELECT COUNT(*), deliveryZone FROM "snapshot_orderinfo" JOIN "snapshot_orderstate" USING(partitionKey) WHERE orderState='NOTIFIED' GROUP BY deliveryZone`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"snapshot @ ssid 1 (latest committed)",
		"co-partitioned key-lookup join",
		// The unqualified orderState is attributed to the one source whose
		// schema has it, pushed there, and that side — the smaller after
		// its filter — drives.
		"scan snapshot_orderstate snapshot @ ssid 1 (latest committed), scatter-gather over 3 nodes, pushed filter (orderState = 'NOTIFIED')",
		"probe snapshot_orderinfo snapshot @ ssid 1 (latest committed), key lookup by the driving row's partitionKey",
		"aggregate GROUP BY deliveryZone, folded per node into partial groups, merged at the client",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainGlobalJoinAndPinnedSSID(t *testing.T) {
	f := newFixture(t, 4, liveSnapCfg())
	plan, err := f.ex.Explain(`SELECT COUNT(*) FROM "snapshot_orderinfo" AS a JOIN "snapshot_orderstate" AS b ON a.partitionKey = b.partitionKey WHERE a.ssid = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "global hash join") {
		t.Errorf("plan missing global join:\n%s", plan)
	}
	if !strings.Contains(plan, "(pinned)") {
		t.Errorf("plan missing pinned ssid note:\n%s", plan)
	}
	if !strings.Contains(plan, "aggregate (single group)") {
		t.Errorf("plan missing single-group aggregate:\n%s", plan)
	}
}

func TestExplainErrors(t *testing.T) {
	f := newFixture(t, 2, liveSnapCfg())
	if _, err := f.ex.Explain(`SELECT FROM`); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := f.ex.Explain(`SELECT x FROM nosuchtable`); err == nil {
		t.Error("unknown table not surfaced")
	}
	// Unresolvable snapshot (none committed) still explains, with a note.
	p := partition.New(8)
	store := kv.NewStore(p, partition.Assign(8, 1), nil)
	mgr := core.NewManager(store, 2)
	cat := core.NewCatalog(store)
	if err := cat.RegisterJob(mgr.Registry(), "bare"); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat, 1)
	plan, err := ex.Explain(`SELECT count FROM snapshot_bare`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "unresolvable now") {
		t.Errorf("plan missing unresolvable note:\n%s", plan)
	}
}

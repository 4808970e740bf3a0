package core

import (
	"testing"

	"squery/internal/kv"
	"squery/internal/partition"
	"squery/internal/snapshot"
)

func checkpoint(t *testing.T, m *Manager, backends ...*Backend) int64 {
	t.Helper()
	ssid, err := m.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for _, b := range backends {
		if _, err := b.SnapshotPrepare(ssid); err != nil {
			t.Fatalf("prepare: %v", err)
		}
	}
	m.Commit(ssid)
	return ssid
}

func TestManagerRegisterValidation(t *testing.T) {
	m := NewManager(newTestStore(), 2)
	if err := m.RegisterOperator(OperatorMeta{Name: "", Parallelism: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if err := m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 0}); err == nil {
		t.Error("zero parallelism accepted")
	}
	if err := m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1}); err != nil {
		t.Errorf("valid operator rejected: %v", err)
	}
	if err := m.RegisterOperator(OperatorMeta{Name: "OP", Parallelism: 1}); err == nil {
		t.Error("duplicate (case-folded) name accepted")
	}
	if len(m.Operators()) != 1 {
		t.Errorf("Operators() = %d entries", len(m.Operators()))
	}
}

func TestManagerCommitPrunesChains(t *testing.T) {
	store := newTestStore()
	m := NewManager(store, 2)
	cfg := Config{Snapshots: true}
	if err := m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	b := m.NewBackend("op", 0, store.View(0), cfg)
	for i := 0; i < 50; i++ {
		b.Update(i, i)
	}
	for i := 0; i < 5; i++ {
		checkpoint(t, m, b)
	}
	// Retention 2 of 5 snapshots: chains must hold at most base+2 versions.
	store.View(0).Scan(SnapshotMapName("op"), func(e kv.Entry) bool {
		c := e.Value.(*Chain)
		if c.Len() > 3 {
			t.Errorf("key %v chain has %d versions after pruning", e.Key, c.Len())
			return false
		}
		return true
	})
	if got := m.Registry().LatestCommitted(); got != 5 {
		t.Fatalf("latest = %d, want 5", got)
	}
	if m.Registry().IsQueryable(3) || !m.Registry().IsQueryable(4) {
		t.Fatal("retention window wrong")
	}
}

func TestManagerPruneDropsDeletedKeys(t *testing.T) {
	store := newTestStore()
	m := NewManager(store, 1)
	cfg := Config{Snapshots: true, Incremental: true}
	m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg})
	b := m.NewBackend("op", 0, store.View(0), cfg)
	b.Update("k", 1)
	checkpoint(t, m, b) // ssid 1: k=1
	b.Delete("k")
	checkpoint(t, m, b) // ssid 2: tombstone; ssid 1 evicted
	checkpoint(t, m, b) // ssid 3: nothing dirty; ssid 2 evicted
	// After the tombstone's version is the only retained history, the
	// entry must disappear from the snapshot map entirely.
	if n := store.GetMap(SnapshotMapName("op")).Size(); n != 0 {
		t.Fatalf("snapshot map still holds %d entries, want 0", n)
	}
}

func TestManagerPrunesBlobSnapshots(t *testing.T) {
	store := newTestStore()
	m := NewManager(store, 2)
	cfg := Config{JetBlob: true}
	m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 2, Config: cfg})
	b0 := m.NewBackend("op", 0, store.View(0), cfg)
	b1 := m.NewBackend("op", 1, store.View(0), cfg)
	b0.Update("a", 1)
	b1.Update("b", 2)
	for i := 0; i < 4; i++ {
		checkpoint(t, m, b0, b1)
	}
	// 4 snapshots, retention 2 → blobs for ssids 3,4 remain: 2 insts × 2.
	if n := store.GetMap(blobMapName("op")).Size(); n != 4 {
		t.Fatalf("blob map has %d entries, want 4", n)
	}
}

func TestManagerAbort(t *testing.T) {
	m := NewManager(newTestStore(), 2)
	ssid, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	m.Abort(ssid)
	if m.Registry().LatestCommitted() != snapshot.NoSnapshot {
		t.Fatal("aborted checkpoint committed")
	}
	if _, err := m.Begin(); err != nil {
		t.Fatalf("Begin after abort: %v", err)
	}
}

func TestCatalogResolution(t *testing.T) {
	store := newTestStore()
	cat := NewCatalog(store)
	reg := snapshot.NewRegistry(2)
	if err := cat.RegisterJob(reg, "average", "orderinfo"); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterJob(reg, "average"); err == nil {
		t.Fatal("duplicate registration accepted")
	}

	live, err := cat.Table("average")
	if err != nil || live.IsSnapshot() {
		t.Fatalf("live table: %v, snapshot=%v", err, live.IsSnapshot())
	}
	snap, err := cat.Table("snapshot_average")
	if err != nil || !snap.IsSnapshot() {
		t.Fatalf("snapshot table: %v", err)
	}
	if _, err := cat.Table("nosuch"); err == nil {
		t.Fatal("unknown table resolved")
	}

	// No committed snapshot yet: unpinned snapshot queries must fail.
	if _, err := snap.ResolveSSID(0); err == nil {
		t.Fatal("ResolveSSID(0) with no committed snapshot succeeded")
	}
	id, _ := reg.Begin()
	reg.Commit(id)
	got, err := snap.ResolveSSID(0)
	if err != nil || got != id {
		t.Fatalf("ResolveSSID(0) = %d, %v; want %d", got, err, id)
	}
	if _, err := snap.ResolveSSID(99); err == nil {
		t.Fatal("ResolveSSID of uncommitted id succeeded")
	}
	// Live tables ignore pinning.
	if got, err := live.ResolveSSID(42); err != nil || got != 0 {
		t.Fatalf("live ResolveSSID = %d, %v", got, err)
	}

	cat.UnregisterJob("average", "orderinfo")
	if _, err := cat.Table("average"); err == nil {
		t.Fatal("table resolvable after unregister")
	}
}

func TestTableScanLiveAndSnapshot(t *testing.T) {
	store := newTestStore()
	cat := NewCatalog(store)
	reg := snapshot.NewRegistry(2)
	cat.RegisterJob(reg, "op")

	cfg := Config{Live: true, Snapshots: true}
	b := NewBackend("op", 0, store.View(0), cfg)
	b.Update(1, avgState{Count: 3, Total: 45})
	b.Update(2, avgState{Count: 1, Total: 5})
	ssid, _ := reg.Begin()
	b.SnapshotPrepare(ssid)
	reg.Commit(ssid)
	b.Update(2, avgState{Count: 2, Total: 20}) // live-only update
	b.Flush()                                  // mirroring is batched; workers flush at quiescence

	live, _ := cat.Table("op")
	t.Run("live sees the uncommitted update", func(t *testing.T) {
		var got int
		live.Scan(0, func(r TableRow) bool {
			if partition.KeyString(r.Key) == "2" {
				v, _ := r.Field("count")
				got = v.(int)
			}
			return true
		})
		if got != 2 {
			t.Fatalf("live count for key 2 = %d, want 2", got)
		}
	})
	t.Run("snapshot sees the committed version", func(t *testing.T) {
		snapTab, _ := cat.Table("snapshot_op")
		target, err := snapTab.ResolveSSID(0)
		if err != nil {
			t.Fatal(err)
		}
		var got int
		var gotSSID int64
		snapTab.Scan(target, func(r TableRow) bool {
			if partition.KeyString(r.Key) == "2" {
				v, _ := r.Field("count")
				got = v.(int)
				s, _ := r.Field(ColSSID)
				gotSSID = s.(int64)
			}
			return true
		})
		if got != 1 || gotSSID != ssid {
			t.Fatalf("snapshot count for key 2 = %d (ssid %d), want 1 (ssid %d)", got, gotSSID, ssid)
		}
	})
	t.Run("pseudo columns present", func(t *testing.T) {
		live.Scan(0, func(r TableRow) bool {
			if _, ok := r.Field(ColPartitionKey); !ok {
				t.Error("partitionKey missing")
			}
			cols := r.Columns()
			found := false
			for _, c := range cols {
				if c == ColPartitionKey {
					found = true
				}
			}
			if !found {
				t.Error("partitionKey not in Columns()")
			}
			return false
		})
	})
}

// TableRowValue is a test helper fetching a named field.
func TableRowValue(name string, r TableRow) any {
	v, _ := r.Field(name)
	return v
}

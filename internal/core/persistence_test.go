package core

import (
	"testing"

	"squery/internal/persist"
)

func TestPersistedCommitAndColdStart(t *testing.T) {
	dir := t.TempDir()
	p, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First lifetime: run checkpoints with persistence attached.
	store := newTestStore()
	mgr := NewManager(store, 2)
	cfg := Config{Snapshots: true}
	if err := mgr.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	mgr.SetPersister(p)
	b := mgr.NewBackend("op", 0, store.View(0), cfg)
	for i := 0; i < 40; i++ {
		b.Update(i, i*i)
	}
	checkpoint(t, mgr, b)
	for i := 0; i < 10; i++ {
		b.Update(i, -i)
	}
	checkpoint(t, mgr, b)

	latest, err := p.Latest()
	if err != nil || latest != 2 {
		t.Fatalf("persisted latest = %d, %v", latest, err)
	}
	entries, err := p.ReadSegment(2, "op")
	if err != nil || len(entries) != 40 {
		t.Fatalf("segment = %d entries, %v", len(entries), err)
	}

	// Second lifetime: brand-new store + manager cold-start from disk.
	store2 := newTestStore()
	mgr2 := NewManager(store2, 2)
	if err := mgr2.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	p2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := mgr2.ImportPersisted(p2)
	if err != nil {
		t.Fatal(err)
	}
	if imported != 2 {
		t.Fatalf("imported ssid = %d, want 2", imported)
	}
	if mgr2.Registry().LatestCommitted() != 2 {
		t.Fatalf("registry latest = %d", mgr2.Registry().LatestCommitted())
	}

	// Snapshot queries against the imported state see the second
	// checkpoint's values.
	cat := NewCatalog(store2)
	if err := cat.RegisterJob(mgr2.Registry(), "op"); err != nil {
		t.Fatal(err)
	}
	tab, err := cat.Table("snapshot_op")
	if err != nil {
		t.Fatal(err)
	}
	target, err := tab.HoldSSID(0)
	if err != nil || target != 2 {
		t.Fatalf("HoldSSID = %d, %v", target, err)
	}
	defer tab.ReleaseSSID(target)
	got := map[int]int{}
	tab.Scan(target, func(r TableRow) bool {
		got[r.Key.(int)] = r.Raw.(int)
		return true
	})
	if len(got) != 40 {
		t.Fatalf("imported rows = %d, want 40", len(got))
	}
	if got[3] != -3 || got[20] != 400 {
		t.Fatalf("imported values wrong: %v, %v", got[3], got[20])
	}

	// Restored state can also repopulate an operator backend.
	b2 := mgr2.NewBackend("op", 0, store2.View(0), cfg)
	if err := b2.Restore(2); err != nil {
		t.Fatal(err)
	}
	if b2.Size() != 40 {
		t.Fatalf("backend restored %d keys", b2.Size())
	}

	// New checkpoints continue after the imported id.
	ssid := checkpoint(t, mgr2, b2)
	if ssid != 3 {
		t.Fatalf("next checkpoint = %d, want 3", ssid)
	}
	if latest, _ := p2.Latest(); latest != 2 {
		t.Fatalf("second lifetime persisted without a persister: latest = %d", latest)
	}
}

// TestImportedChainsSurviveNextCommit covers what a cold start hands the
// O(delta) commit walk: chains ImportPersisted installed were never
// reported to the changed-key index. The next persisted commit must not
// write them again (its segment is a delta of the keys touched since),
// must not lose them (the durable state at the new id still holds every
// key), and pruning the imported id must leave them readable.
func TestImportedChainsSurviveNextCommit(t *testing.T) {
	dir := t.TempDir()
	p, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Snapshots: true, Incremental: true}
	store := newTestStore()
	mgr := NewManager(store, 2)
	mgr.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg})
	mgr.SetPersister(p)
	b := mgr.NewBackend("op", 0, store.View(0), cfg)
	for i := 0; i < 40; i++ {
		b.Update(i, i*i)
	}
	checkpoint(t, mgr, b) // ssid 1, a full segment of 40

	store2 := newTestStore()
	mgr2 := NewManager(store2, 2)
	mgr2.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg})
	p2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if imported, err := mgr2.ImportPersisted(p2); err != nil || imported != 1 {
		t.Fatalf("ImportPersisted = %d, %v; want 1", imported, err)
	}
	mgr2.SetPersister(p2)
	b2 := mgr2.NewBackend("op", 0, store2.View(0), cfg)
	if err := b2.Restore(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b2.Update(i, -1)
	}
	if ssid := checkpoint(t, mgr2, b2); ssid != 2 {
		t.Fatalf("checkpoint after import = %d, want 2", ssid)
	}
	base, delta, err := p2.ReadDeltaSegment(2, "op")
	if err != nil || base != 1 || len(delta) != 3 {
		t.Fatalf("commit after import wrote base %d, %d entries, %v; want a 3-entry delta on 1", base, len(delta), err)
	}
	checkState := func(ssid int64) {
		t.Helper()
		entries, err := p2.ReadState(ssid, "op")
		if err != nil || len(entries) != 40 {
			t.Fatalf("durable state at %d = %d entries, %v; want 40", ssid, len(entries), err)
		}
		for _, e := range entries {
			want := e.Key.(int) * e.Key.(int)
			if e.Key.(int) < 3 {
				want = -1
			}
			if e.Value != want {
				t.Fatalf("durable state at %d: key %v = %v, want %d", ssid, e.Key, e.Value, want)
			}
		}
	}
	checkState(2)
	// Two more commits evict the imported id from the in-memory window;
	// untouched imported chains keep their one base version.
	checkpoint(t, mgr2, b2)
	checkpoint(t, mgr2, b2)
	if mgr2.Registry().IsQueryable(1) {
		t.Fatal("imported snapshot still retained after two evictions")
	}
	if n := store2.GetMap(SnapshotMapName("op")).Size(); n != 40 {
		t.Fatalf("snapshot map holds %d chains after pruning, want 40", n)
	}
	checkState(4)
}

func TestImportPersistedEmptyStore(t *testing.T) {
	p, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(newTestStore(), 2)
	got, err := mgr.ImportPersisted(p)
	if err != nil || got != 0 {
		t.Fatalf("ImportPersisted on empty = %d, %v", got, err)
	}
}

func TestPersistPrunesWithRetention(t *testing.T) {
	p, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := newTestStore()
	mgr := NewManager(store, 2)
	cfg := Config{Snapshots: true}
	mgr.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg})
	mgr.SetPersister(p)
	b := mgr.NewBackend("op", 0, store.View(0), cfg)
	b.Update("k", 1)
	for i := 0; i < 5; i++ {
		checkpoint(t, mgr, b)
	}
	ids, err := p.Committed()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 4 || ids[1] != 5 {
		t.Fatalf("persisted ids = %v, want [4 5]", ids)
	}
}

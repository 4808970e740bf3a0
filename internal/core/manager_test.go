package core

import (
	"testing"

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
	// The drainers' post-commit pass: a commit moves the retention window.
	for _, b := range backends {
		b.Compact()
	}
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
	for name, cfg := range map[string]Config{
		"standby": {ActiveStandby: true, Snapshots: true},
		"blob":    {JetBlob: true, Snapshots: true},
	} {
		if err := m.RegisterOperator(OperatorMeta{Name: name, Parallelism: 1, Config: cfg}); err == nil {
			t.Errorf("operator with config %+v accepted", cfg)
		}
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
	for i := 0; i < 50; i++ {
		if n := len(SnapshotVersions(store, "op", i)); n > 3 {
			t.Fatalf("key %v has %d versions after pruning", i, n)
		}
	}
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

// TestManagerAbortDropsBlobs: an aborted round's blobs go with it, so ten
// JetBlob rounds, half of them aborted, leave only the retained ones.
func TestManagerAbortDropsBlobs(t *testing.T) {
	store := newTestStore()
	m := NewManager(store, 2)
	cfg := Config{JetBlob: true}
	if err := m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	b := m.NewBackend("op", 0, store.View(0), cfg)
	b.Update("a", 1)
	for round := 0; round < 10; round++ {
		ssid, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.SnapshotPrepare(ssid); err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			m.Abort(ssid)
			continue
		}
		if _, err := m.Commit(ssid); err != nil {
			t.Fatal(err)
		}
	}
	if n := store.GetMap(blobMapName("op")).Size(); n != 2 {
		t.Fatalf("blob map holds %d blobs after 5 commits and 5 aborts, want the 2 retained", n)
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
	if _, err := snap.HoldSSID(0); err == nil {
		t.Fatal("HoldSSID(0) with no committed snapshot succeeded")
	}
	id, _ := reg.Begin()
	reg.Commit(id)
	got, err := snap.HoldSSID(0)
	if err != nil || got != id {
		t.Fatalf("HoldSSID(0) = %d, %v; want %d", got, err, id)
	}
	snap.ReleaseSSID(got)
	if _, err := snap.HoldSSID(99); err == nil {
		t.Fatal("HoldSSID of uncommitted id succeeded")
	}
	// Live tables ignore pinning.
	if got, err := live.HoldSSID(42); err != nil || got != 0 {
		t.Fatalf("live HoldSSID = %d, %v", got, err)
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
		target, err := snapTab.HoldSSID(0)
		if err != nil {
			t.Fatal(err)
		}
		defer snapTab.ReleaseSSID(target)
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

// TestManagerCommitWrongIDFails: committing an id that is not in progress
// fails with nothing published, and the id in progress still commits.
func TestManagerCommitWrongIDFails(t *testing.T) {
	m := NewManager(newTestStore(), 2)
	id, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(id + 1); err == nil {
		t.Fatal("Commit of an id not in progress succeeded")
	}
	if m.Registry().LatestCommitted() != 0 || m.Registry().InProgress() != id {
		t.Fatalf("after a refused commit: latest %d, in progress %d", m.Registry().LatestCommitted(), m.Registry().InProgress())
	}
	if _, err := m.Commit(id); err != nil {
		t.Fatalf("Commit of the id in progress: %v", err)
	}
}

// TestLeaseKeepsRetiredIDReadable: a read that holds snapshot n reads it
// correctly after n retires and the drains merge past it; once released,
// the next commit's merges keep only what the retention window needs.
func TestLeaseKeepsRetiredIDReadable(t *testing.T) {
	const keys = 200
	store := newTestStore()
	m := NewManager(store, 2)
	cfg := Config{Live: true, Snapshots: true, Incremental: true}
	if err := m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(store)
	if err := cat.RegisterJob(m.Registry(), "op"); err != nil {
		t.Fatal(err)
	}
	ref, err := cat.Table("snapshot_op")
	if err != nil {
		t.Fatal(err)
	}
	b := m.NewBackend("op", 0, store.View(0), cfg)
	// Every key changes before every checkpoint: key k holds 1000*ssid+k
	// at ssid.
	round := func() int64 {
		next := m.Registry().LatestCommitted() + 1
		for k := 0; k < keys; k++ {
			b.Update(k, int(1000*next)+k)
		}
		return checkpoint(t, m, b)
	}
	read := func(n int64) map[int]int {
		got := make(map[int]int)
		ref.Scan(n, func(r TableRow) bool {
			got[r.Key.(int)] = r.Raw.(int)
			return true
		})
		return got
	}
	rows := func() int {
		snap, n := store.GetMap(SnapshotMapName("op")), 0
		for p := 0; p < store.Partitioner().Count(); p++ {
			n += asRuns(snap.PeekFrozen(p)).rows()
		}
		return n
	}
	round()
	round()
	n, err := ref.HoldSSID(m.Registry().OldestRetained())
	if err != nil {
		t.Fatal(err)
	}
	round()
	round() // n retires; the drains merge at floor n
	if m.Registry().IsQueryable(n) {
		t.Fatalf("snapshot %d still retained", n)
	}
	b.Compact()
	got := read(n)
	if len(got) != keys {
		t.Fatalf("read at held %d found %d keys, want %d", n, len(got), keys)
	}
	for k, v := range got {
		if want := int(1000*n) + k; v != want {
			t.Fatalf("key %d at held %d = %d, want %d", k, n, v, want)
		}
	}
	if _, err := ref.HoldSSID(n); err == nil {
		t.Fatalf("a new read could hold retired snapshot %d", n)
	}
	ref.ReleaseSSID(n)
	round()
	b.Compact()
	// The window [5, 6] needs each key's versions at 5 and 6 only: 5
	// shadows every older version for every retained read.
	if got := rows(); got != 2*keys {
		t.Fatalf("after the release the store holds %d rows, want %d", got, 2*keys)
	}
}

package core

import (
	"fmt"
	"testing"

	"squery/internal/kv"
	"squery/internal/snapshot"
)

// scanWithPath collects an indexed (or full) partition-sweep of the table.
func scanWithPath(t *TableRef, ssid int64, path *AccessPath, filter func(TableRow) bool) map[string]int64 {
	out := map[string]int64{}
	for p := 0; p < t.Partitions(); p++ {
		t.ScanPartitionSpec(p, ScanSpec{SSID: ssid, Path: path}, func(rows []TableRow) bool {
			for _, r := range rows {
				if filter == nil || filter(r) {
					out[fmt.Sprint(r.Key)] = r.SSID
				}
			}
			return true
		})
	}
	return out
}

func eqZone(want string) func(TableRow) bool {
	return func(r TableRow) bool {
		f, ok := r.Field("zone")
		if !ok {
			return false
		}
		s, ok := f.(string)
		return ok && s == want
	}
}

// TestLiveIndexPathParity: an index-served live scan returns exactly what
// the full scan returns for the same filter.
func TestLiveIndexPathParity(t *testing.T) {
	store := newTestStore()
	cat := NewCatalog(store)
	reg := snapshot.NewRegistry(4)
	if err := cat.RegisterJob(reg, "orders"); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateIndex("orders", "zone", IndexHash); err != nil {
		t.Fatal(err)
	}
	b := NewBackend("orders", 0, store.View(0), Config{Live: true})
	for i := 0; i < 300; i++ {
		b.Update(i, map[string]any{"zone": fmt.Sprintf("z%d", i%3), "amount": i})
	}
	b.Flush()
	ref, err := cat.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if !ref.HasIndex("zone", false) {
		t.Fatal("HasIndex(zone) = false after CreateIndex")
	}
	if ref.HasIndex("zone", true) {
		t.Fatal("hash index claimed to serve ranges")
	}
	path := &AccessPath{Kind: IndexEq, Column: "zone", Eq: "z1"}
	idx := scanWithPath(ref, 0, path, eqZone("z1"))
	full := scanWithPath(ref, 0, nil, eqZone("z1"))
	if len(idx) != 100 || len(idx) != len(full) {
		t.Fatalf("indexed scan %d rows, full scan %d, want 100", len(idx), len(full))
	}
	if n, ok := ref.EstimatePath(path); !ok || n != 100 {
		t.Fatalf("EstimatePath = %d, %v; want 100, true", n, ok)
	}
	if n, ok := ref.EstimatePath(nil); !ok || n != 300 {
		t.Fatalf("EstimatePath(full) = %d, %v; want 300, true", n, ok)
	}
}

// TestSnapshotIndexPathParity: the chain-union index must answer at every
// queryable SSID — older pins included — with exactly the rows the full
// snapshot scan resolves, including keys whose match exists only at an
// older version and keys tombstoned at the target.
func TestSnapshotIndexPathParity(t *testing.T) {
	store := newTestStore()
	cat := NewCatalog(store)
	reg := snapshot.NewRegistry(8)
	if err := cat.RegisterJob(reg, "op"); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateIndex("snapshot_op", "zone", IndexHash); err != nil {
		t.Fatal(err)
	}
	b := NewBackend("op", 0, store.View(0), Config{Snapshots: true})
	for i := 0; i < 60; i++ {
		b.Update(i, map[string]any{"zone": "old"})
	}
	commit := func() int64 {
		ssid, err := reg.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.SnapshotPrepare(ssid); err != nil {
			t.Fatal(err)
		}
		reg.Commit(ssid)
		return ssid
	}
	s1 := commit()
	// Move half the keys to a new zone, delete a few, snapshot again.
	for i := 0; i < 30; i++ {
		b.Update(i, map[string]any{"zone": "new"})
	}
	for i := 55; i < 60; i++ {
		b.Delete(i)
	}
	s2 := commit()

	ref, err := cat.Table("snapshot_op")
	if err != nil {
		t.Fatal(err)
	}
	pathOld := &AccessPath{Kind: IndexEq, Column: "zone", Eq: "old"}
	for _, ssid := range []int64{s1, s2} {
		idx := scanWithPath(ref, ssid, pathOld, eqZone("old"))
		full := scanWithPath(ref, ssid, nil, eqZone("old"))
		if len(idx) != len(full) {
			t.Fatalf("ssid %d: indexed %d rows, full %d", ssid, len(idx), len(full))
		}
	}
	// At s1 every key is "old"; at s2 only the untouched survivors are.
	if got := len(scanWithPath(ref, s1, pathOld, eqZone("old"))); got != 60 {
		t.Fatalf("ssid %d zone=old: %d rows, want 60", s1, got)
	}
	if got := len(scanWithPath(ref, s2, pathOld, eqZone("old"))); got != 25 {
		t.Fatalf("ssid %d zone=old: %d rows, want 25 (30 moved, 5 deleted)", s2, got)
	}
	// "new" exists only at s2.
	pathNew := &AccessPath{Kind: IndexEq, Column: "zone", Eq: "new"}
	if got := len(scanWithPath(ref, s1, pathNew, eqZone("new"))); got != 0 {
		t.Fatalf("ssid %d zone=new: %d rows, want 0", s1, got)
	}
	if got := len(scanWithPath(ref, s2, pathNew, eqZone("new"))); got != 30 {
		t.Fatalf("ssid %d zone=new: %d rows, want 30", s2, got)
	}
	// sys.indexes counts the runs' references — one per version that is
	// not a tombstone: 60 at s1, the 55 live keys of the full snapshot at
	// s2 — and the probes they served.
	infos := store.IndexInfos()
	if len(infos) != 1 || infos[0].Entries != 115 || infos[0].Bytes == 0 || infos[0].Lookups == 0 {
		t.Fatalf("IndexInfos = %+v; want one index with 115 entries, bytes and lookups", infos)
	}
}

// TestAccessPathMisc covers rendering and guard rails.
func TestAccessPathMisc(t *testing.T) {
	if got := (&AccessPath{Kind: IndexEq, Column: "zone", Eq: "z1"}).String(); got != "index eq(zone = z1)" {
		t.Fatalf("String() = %q", got)
	}
	r := &AccessPath{Kind: IndexRange, Column: "lat", Lo: 10, Hi: 20}
	if got := r.String(); got != "index range(lat >= 10 and lat <= 20)" {
		t.Fatalf("String() = %q", got)
	}
	var nilPath *AccessPath
	if got := nilPath.String(); got != "full scan" {
		t.Fatalf("nil path String() = %q", got)
	}
	cat := NewCatalog(newTestStore())
	cat.RegisterVirtual("sys.things", func() []TableRow { return nil })
	if err := cat.CreateIndex("sys.things", "x", IndexHash); err == nil {
		t.Fatal("indexed a virtual table")
	}
	if err := cat.CreateIndex("op", ColPartitionKey, IndexHash); err == nil {
		t.Fatal("indexed a pseudo-column")
	}
	// kv-level guard: a scan with a path nobody indexed falls back.
	store := newTestStore()
	cat2 := NewCatalog(store)
	if err := cat2.RegisterJob(snapshot.NewRegistry(4), "op"); err != nil {
		t.Fatal(err)
	}
	b := NewBackend("op", 0, store.View(0), Config{Live: true})
	b.Update(1, map[string]any{"zone": "z"})
	b.Flush()
	ref, _ := cat2.Table("op")
	rows := scanWithPath(ref, 0, &AccessPath{Kind: IndexEq, Column: "zone", Eq: "z"}, eqZone("z"))
	if len(rows) != 1 {
		t.Fatalf("unserved path did not fall back to full scan: %d rows", len(rows))
	}
	_ = kv.IndexHash // keep the kv import honest if constants change
}

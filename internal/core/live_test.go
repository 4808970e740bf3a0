package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"squery/internal/kv"
)

// deltaLog is a tap that records every delta it is handed.
type deltaLog struct {
	mu     sync.Mutex
	deltas []kv.Delta
}

func (l *deltaLog) OnDeltas(ds []kv.Delta) {
	l.mu.Lock()
	l.deltas = append(l.deltas, ds...)
	l.mu.Unlock()
}

func (l *deltaLog) take() []kv.Delta {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.deltas
	l.deltas = nil
	return out
}

// TestRestoreHandsTapsOnlyChangedKeys: a Live instance's restore replaces
// its partitions of the live map wholesale, and a tap on the map is handed
// only the keys that differ from the checkpoint — here 10 of 1 000 —
// each as the delta that undoes the post-checkpoint write. The map's index
// answers every probe exactly as a full scan does afterwards.
func TestRestoreHandsTapsOnlyChangedKeys(t *testing.T) {
	store := newTestStore()
	cfg := Config{Live: true, Snapshots: true, Incremental: true}
	b := NewBackend("op", 0, store.View(0), cfg)
	live := store.GetMap(LiveMapName("op"))
	if _, err := live.CreateIndex("n", kv.IndexBTree, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		b.Update(i, kv.MapRow{"n": i})
	}
	if _, err := b.SnapshotPrepare(1); err != nil {
		t.Fatal(err)
	}
	tap := &deltaLog{}
	live.AttachTap(tap)
	// After the checkpoint: 5 rewrites, 3 deletes, 2 new keys.
	changed := map[int]bool{}
	for i := 0; i < 5; i++ {
		b.Update(i, kv.MapRow{"n": -i - 1})
		changed[i] = true
	}
	for i := 500; i < 503; i++ {
		b.Delete(i)
		changed[i] = true
	}
	for i := 5000; i < 5002; i++ {
		b.Update(i, kv.MapRow{"n": i})
		changed[i] = true
	}
	b.Flush()
	if n := len(tap.take()); n != 10 {
		t.Fatalf("post-checkpoint writes handed %d deltas, want 10", n)
	}

	restored := NewBackend("op", 0, store.View(0), cfg)
	if err := restored.Restore(1); err != nil {
		t.Fatal(err)
	}
	ds := tap.take()
	if len(ds) != len(changed) {
		t.Fatalf("restore handed %d deltas, want %d (only the changed keys)", len(ds), len(changed))
	}
	for _, d := range ds {
		k := d.Key.(int)
		if !changed[k] {
			t.Fatalf("restore handed a delta for unchanged key %d", k)
		}
		if wantTomb := k >= 5000; d.Tombstone != wantTomb {
			t.Fatalf("key %d: tombstone = %v, want %v", k, d.Tombstone, wantTomb)
		}
		if !d.Tombstone && d.Value.(kv.MapRow)["n"] != k {
			t.Fatalf("key %d restored to %v", k, d.Value)
		}
	}
	if n := restored.Size(); n != 1000 {
		t.Fatalf("restored Size = %d, want 1000", n)
	}

	// The index holds one pair per entry and agrees with a full scan.
	var pairs int64
	for _, info := range store.IndexInfos() {
		if info.Map == live.Name() {
			pairs += info.Entries
		}
	}
	if pairs != 1000 {
		t.Fatalf("index holds %d pairs, want 1000", pairs)
	}
	for p := 0; p < store.Partitioner().Count(); p++ {
		var byIndex, byScan []int
		lk := kv.IndexLookup{Col: "n", Range: true, Lo: 0, Hi: math.MaxInt32}
		if !live.ScanPartitionIndexed(p, lk, kv.ScanOpts{}, func(e kv.Entry) bool {
			byIndex = append(byIndex, e.Key.(int))
			return true
		}) {
			t.Fatalf("partition %d: range probe not served by the index", p)
		}
		live.ScanPartition(p, func(e kv.Entry) bool {
			byScan = append(byScan, e.Key.(int))
			return true
		})
		sort.Ints(byIndex)
		sort.Ints(byScan)
		if fmt.Sprint(byIndex) != fmt.Sprint(byScan) {
			t.Fatalf("partition %d: index finds %v, scan %v", p, byIndex, byScan)
		}
	}
}

// TestLiveStateHeldOnce: a Live backend's state is the live map, so a
// backend of 100 000 keys, once a pin has taken its dirty set, holds no
// more live heap than the same writes sent straight into the map through
// PutBatch — within 4 B/key of slack for the backend itself.
func TestLiveStateHeldOnce(t *testing.T) {
	const n = 100_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	direct := heapHeld(func() any {
		store := newTestStore()
		view := store.View(0)
		ops := make([]kv.Op, 0, mirrorBatch)
		for i, k := range keys {
			ops = append(ops, kv.Op{Key: k, Value: i})
			if len(ops) == mirrorBatch {
				view.PutBatch(LiveMapName("op"), ops)
				ops = ops[:0]
			}
		}
		view.PutBatch(LiveMapName("op"), ops)
		return store
	})
	backend := heapHeld(func() any {
		store := newTestStore()
		b := NewBackend("op", 0, store.View(0), Config{Live: true, Snapshots: true, Incremental: true})
		for i, k := range keys {
			b.Update(k, i)
		}
		if _, err := b.SnapshotPin(1); err != nil {
			t.Fatal(err)
		}
		return []any{store, b}
	})
	runtime.KeepAlive(keys) // freed inside the second measurement otherwise
	perKey := (backend - direct) / n
	t.Logf("live heap: backend %.1f B/key, PutBatch %.1f B/key, difference %.1f B/key",
		backend/n, direct/n, perKey)
	if perKey > 4 {
		t.Fatalf("a Live backend holds %.1f B/key more than its live map alone; want at most 4", perKey)
	}
}

// heapHeld returns how many bytes of live heap what build returns keeps
// reachable, measured between two forced collections.
func heapHeld(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

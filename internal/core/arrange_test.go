package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"squery/internal/kv"
	"squery/internal/partition"
)

// arrSink buffers listener deltas — the only thing a listener is allowed
// to do, since it runs on the applier with the arrangement lock held.
type arrSink struct {
	mu sync.Mutex
	ds []ArrDelta
}

func (s *arrSink) listen(ds []ArrDelta) {
	s.mu.Lock()
	s.ds = append(s.ds, ds...)
	s.mu.Unlock()
}

func (s *arrSink) deltas() []ArrDelta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ArrDelta(nil), s.ds...)
}

// fold applies the sink's deltas over a base snapshot, returning the
// resulting key -> raw value view.
func (s *arrSink) fold(base []TableRow) map[string]any {
	view := map[string]any{}
	for _, r := range base {
		view[partition.KeyString(r.Key)] = r.Raw
	}
	for _, d := range s.deltas() {
		if d.Tombstone {
			delete(view, d.KeyS)
		} else {
			view[d.KeyS] = d.Row.Raw
		}
	}
	return view
}

func arrWaitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// storeContent reads the live map's current entries directly.
func storeContent(s *kv.Store, op string) map[string]any {
	out := map[string]any{}
	m := s.GetMap(LiveMapName(op))
	for p := 0; p < s.Partitioner().Count(); p++ {
		entries, _ := m.SnapshotPartition(p)
		for _, e := range entries {
			out[partition.KeyString(e.Key)] = e.Value
		}
	}
	return out
}

func sameView(a, b map[string]any) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestArrangementSnapshotPlusDeltas: the first reader sees the pre-attach
// rows as its snapshot and every later mutation as a delta, tombstones
// included, converging to exactly the store's content.
func TestArrangementSnapshotPlusDeltas(t *testing.T) {
	store := newTestStore()
	v := store.View(0)
	name := LiveMapName("orders")
	for i := 0; i < 10; i++ {
		v.Put(name, fmt.Sprintf("o%d", i), i)
	}
	reg := NewArrangeRegistry(store)
	a, err := reg.Acquire("orders")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()

	sink := &arrSink{}
	base, wm, id := a.Attach(sink.listen)
	defer a.Detach(id)
	if len(base) != 10 {
		t.Fatalf("attach snapshot has %d rows, want 10", len(base))
	}
	if wm != a.Watermark() {
		t.Fatalf("attach watermark %d != arrangement watermark %d", wm, a.Watermark())
	}

	v.Put(name, "o3", 333)  // upsert
	v.Put(name, "o99", 99)  // insert
	v.Delete(name, "o0")    // tombstone
	v.Delete(name, "gone")  // no-op: never existed
	v.Put(name, "o99", 100) // second upsert of the same key

	arrWaitFor(t, "deltas to apply", func() bool {
		return sameView(sink.fold(base), storeContent(store, "orders"))
	})
	// Each delta names the row it replaced: none on a first insert, the
	// previous value on an update or a tombstone (the missing-key delete
	// must not surface at all).
	type step struct {
		key       string
		val, old  any
		tombstone bool
	}
	want := []step{
		{key: "o3", val: 333, old: 3},
		{key: "o99", val: 99},
		{key: "o0", old: 0, tombstone: true},
		{key: "o99", val: 100, old: 99},
	}
	got := sink.deltas()
	if len(got) != len(want) {
		t.Fatalf("saw %d deltas, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		d := got[i]
		if d.KeyS != partition.KeyString(w.key) || d.Tombstone != w.tombstone || d.Row.Raw != w.val {
			t.Errorf("delta %d = %+v, want key %s value %v tombstone %v", i, d, w.key, w.val, w.tombstone)
		}
		if d.HadOld != (w.old != nil) || d.Old.Raw != w.old {
			t.Errorf("delta %d (%s) replaced %v (had %v), want %v", i, w.key, d.Old.Raw, d.HadOld, w.old)
		}
	}
}

// TestArrangementSharing: N readers share one maintained view — same
// pointer, one tap on the map, refcounted teardown at zero readers.
func TestArrangementSharing(t *testing.T) {
	store := newTestStore()
	v := store.View(0)
	name := LiveMapName("orders")
	v.Put(name, "k", 1)

	reg := NewArrangeRegistry(store)
	a1, err := reg.Acquire("orders")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := reg.Acquire("orders")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("two readers got distinct arrangements — no sharing")
	}
	if got := store.GetMap(name).TapCount(); got != 1 {
		t.Fatalf("TapCount = %d, want 1 shared tap for 2 readers", got)
	}
	infos := reg.Infos()
	if len(infos) != 1 || infos[0].Refs != 2 || infos[0].Rows != 1 {
		t.Fatalf("Infos = %+v, want one arrangement with refs=2 rows=1", infos)
	}

	a1.Release()
	if infos := reg.Infos(); len(infos) != 1 || infos[0].Refs != 1 {
		t.Fatalf("after one release Infos = %+v, want refs=1", infos)
	}
	// The view is still maintained for the surviving reader.
	v.Put(name, "k2", 2)
	arrWaitFor(t, "surviving reader to apply", func() bool { return reg.Infos()[0].Rows == 2 })

	a2.Release()
	if infos := reg.Infos(); len(infos) != 0 {
		t.Fatalf("after last release Infos = %+v, want empty", infos)
	}
	if got := store.GetMap(name).TapCount(); got != 0 {
		t.Fatalf("TapCount after teardown = %d, want 0 (tap leaked)", got)
	}
	// A fresh Acquire rebuilds from scratch and sees everything.
	a3, err := reg.Acquire("orders")
	if err != nil {
		t.Fatal(err)
	}
	defer a3.Release()
	if got := reg.Infos()[0].Rows; got != 2 {
		t.Fatalf("rebuilt arrangement has %d rows, want 2", got)
	}
}

// TestArrangementResetDiff: a wholesale partition replace makes the
// arrangement re-derive from a fresh snapshot and emit only genuine
// differences — a contents-preserving reset (the migration-flip shape)
// emits nothing, an emptying reset emits exactly the tombstones.
func TestArrangementResetDiff(t *testing.T) {
	store := newTestStore()
	v := store.View(0)
	name := LiveMapName("orders")
	for i := 0; i < 8; i++ {
		v.Put(name, fmt.Sprintf("o%d", i), i)
	}
	reg := NewArrangeRegistry(store)
	a, err := reg.Acquire("orders")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	sink := &arrSink{}
	base, _, id := a.Attach(sink.listen)
	defer a.Detach(id)

	// Contents-preserving resets: index rebuilds replace nothing.
	for p := 0; p < store.Partitioner().Count(); p++ {
		store.RebuildPartitionIndexes(p)
	}
	arrWaitFor(t, "resets to be re-derived", func() bool {
		infos := reg.Infos()
		return len(infos) == 1 && infos[0].Resets >= int64(store.Partitioner().Count())
	})
	if got := len(sink.deltas()); got != 0 {
		t.Fatalf("no-op resets emitted %d deltas, want 0: %+v", got, sink.deltas())
	}

	// A reset whose re-snapshot runs ahead of the buffered deltas (held back
	// here by the view lock) reports the write itself, naming the row the
	// view held; the overtaken delta is then skipped as already covered.
	a.mu.Lock()
	for p := 0; p < store.Partitioner().Count(); p++ {
		store.RebuildPartitionIndexes(p)
	}
	v.Put(name, "o3", 333)
	a.mu.Unlock()
	arrWaitFor(t, "overtaking reset to diff through", func() bool {
		return sameView(sink.fold(base), storeContent(store, "orders"))
	})
	ds := sink.deltas()
	if len(ds) != 1 || ds[0].KeyS != partition.KeyString("o3") || ds[0].Tombstone ||
		ds[0].Row.Raw != 333 || !ds[0].HadOld || ds[0].Old.Raw != 3 {
		t.Fatalf("overtaking reset emitted %+v, want one upsert of o3 = 333 replacing 3", ds)
	}

	// An emptying reset diffs down to tombstones, one per live row, each
	// naming the row that went.
	store.ClearMap(name)
	arrWaitFor(t, "clear to diff through", func() bool { return len(sink.fold(base)) == 0 })
	was := map[string]any{}
	for _, r := range base {
		was[partition.KeyString(r.Key)] = r.Raw
	}
	was[partition.KeyString("o3")] = 333
	ds = sink.deltas()[1:]
	if len(ds) != 8 {
		t.Fatalf("emptying reset emitted %d deltas, want 8 tombstones: %+v", len(ds), ds)
	}
	for _, d := range ds {
		if !d.Tombstone || !d.HadOld || d.Old.Raw != was[d.KeyS] {
			t.Errorf("reset-diff delta %+v, want a tombstone replacing %v", d, was[d.KeyS])
		}
	}
}

// TestArrangementAttachCleanCut: attaching while writes race never loses
// or duplicates a delta — the snapshot plus the delta stream fold to
// exactly the final store content, and no (partition, seq) stamp is
// delivered twice. Run with -race.
func TestArrangementAttachCleanCut(t *testing.T) {
	store := newTestStore()
	v := store.View(0)
	name := LiveMapName("orders")
	v.Put(name, "seed", -1)

	reg := NewArrangeRegistry(store)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			v.Put(name, fmt.Sprintf("k%d", i%100), i)
			if i%17 == 0 {
				v.Delete(name, fmt.Sprintf("k%d", (i+3)%100))
			}
		}
	}()

	a, err := reg.Acquire("orders")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	sink := &arrSink{}
	base, _, id := a.Attach(sink.listen)
	defer a.Detach(id)
	<-done

	arrWaitFor(t, "racing writes to settle", func() bool {
		return sameView(sink.fold(base), storeContent(store, "orders"))
	})
	seen := map[[2]uint64]bool{}
	for _, d := range sink.deltas() {
		stamp := [2]uint64{uint64(d.Part), d.Seq}
		if seen[stamp] {
			t.Fatalf("delta stamp part=%d seq=%d delivered twice", d.Part, d.Seq)
		}
		seen[stamp] = true
	}
}

package core

import (
	"fmt"
	"sync"
	"testing"

	"squery/internal/kv"
	"squery/internal/partition"
)

// arrSink buffers listener deltas — the only thing a listener is allowed
// to do, since it runs on the writer under its segment lock.
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

// seedSink is an attach seed that records every partition's rows and which
// partitions have been seeded. Like a listener it runs under a segment
// lock, so it only copies.
type seedSink struct {
	mu     sync.Mutex
	rows   []TableRow
	seeded map[int]bool
}

func (s *seedSink) seed(p int, rows []TableRow) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seeded == nil {
		s.seeded = map[int]bool{}
	}
	s.seeded[p] = true
	s.rows = append(s.rows, rows...)
}

// attach attaches a seedSink-backed reader whose listener files into sink
// only the deltas of partitions already seeded — the rule a standing query
// follows: a delta of a partition not yet seeded is in its seed.
func attach(a *Arrangement, sink *arrSink) (*seedSink, int) {
	seeds := &seedSink{}
	id := a.Attach(func(ds []ArrDelta) {
		seeds.mu.Lock()
		seeded := seeds.seeded[ds[0].Part]
		seeds.mu.Unlock()
		if seeded {
			sink.listen(ds)
		}
	}, seeds.seed)
	return seeds, id
}

// fold applies the sink's deltas over the seeded rows, returning the
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

// storeContent reads the live map's current entries directly.
func storeContent(s *kv.Store, op string) map[string]any {
	out := map[string]any{}
	m := s.GetMap(LiveMapName(op))
	for p := 0; p < s.Partitioner().Count(); p++ {
		m.ReadPartition(p, func(entries func(func(kv.Entry) bool)) {
			entries(func(e kv.Entry) bool {
				out[partition.KeyString(e.Key)] = e.Value
				return true
			})
		})
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
	seeds, id := attach(a, sink)
	defer a.Detach(id)
	if len(seeds.rows) != 10 || len(seeds.seeded) != store.Partitioner().Count() {
		t.Fatalf("attach seeded %d rows over %d partitions, want 10 over all %d", len(seeds.rows), len(seeds.seeded), store.Partitioner().Count())
	}

	v.Put(name, "o3", 333)  // upsert
	v.Put(name, "o99", 99)  // insert
	v.Delete(name, "o0")    // tombstone
	v.Delete(name, "gone")  // no-op: never existed
	v.Put(name, "o99", 100) // second upsert of the same key

	// Fan-out is synchronous: every write has reached the listener when it
	// returns.
	if got, want := sink.fold(seeds.rows), storeContent(store, "orders"); !sameView(got, want) {
		t.Fatalf("snapshot + deltas = %v, store holds %v", got, want)
	}
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

// TestArrangementSharing: N readers share one arrangement — same pointer,
// one tap on the map, refcounted teardown at zero readers.
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
	// The tap still delivers for the surviving reader, listened to or not.
	handed := reg.Infos()[0].Applied
	v.Put(name, "k2", 2)
	if info := reg.Infos()[0]; info.Rows != 2 || info.Applied != handed+1 || info.DeltasIn != info.Applied {
		t.Fatalf("after a write Infos = %+v, want rows=2 and one more delta handed on", info)
	}

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

// TestArrangementResetDiff: a wholesale partition replace reaches the
// listeners as the difference it made — a contents-preserving reset (the
// migration-flip shape) emits nothing, an emptying reset emits exactly the
// tombstones, each naming the row that went.
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
	seeds, id := attach(a, sink)
	defer a.Detach(id)

	// Contents-preserving resets: index rebuilds replace nothing.
	for p := 0; p < store.Partitioner().Count(); p++ {
		store.RebuildPartitionIndexes(p)
	}
	if infos := reg.Infos(); len(infos) != 1 || infos[0].Resets != int64(store.Partitioner().Count()) {
		t.Fatalf("Infos = %+v, want one reset counted per rebuilt partition", infos)
	}
	if got := len(sink.deltas()); got != 0 {
		t.Fatalf("no-op resets emitted %d deltas, want 0: %+v", got, sink.deltas())
	}

	// An emptying reset diffs down to tombstones, one per live row, each
	// naming the row that went.
	store.ClearMap(name)
	if view := sink.fold(seeds.rows); len(view) != 0 {
		t.Fatalf("after ClearMap the folded view still holds %v", view)
	}
	was := map[string]any{}
	for _, r := range seeds.rows {
		was[partition.KeyString(r.Key)] = r.Raw
	}
	ds := sink.deltas()
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
// or duplicates a delta — the seeded rows plus the deltas of partitions
// already seeded fold to exactly the final store content, and no key is
// seeded twice. Run with -race.
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
	seeds, id := attach(a, sink)
	defer a.Detach(id)
	<-done

	if got, want := sink.fold(seeds.rows), storeContent(store, "orders"); !sameView(got, want) {
		t.Fatalf("seeded rows + deltas of seeded partitions = %v, store holds %v", got, want)
	}
	seen := map[string]bool{}
	for _, r := range seeds.rows {
		ks := partition.KeyString(r.Key)
		if seen[ks] {
			t.Fatalf("key %s seeded twice", ks)
		}
		seen[ks] = true
	}
}

package kv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"squery/internal/partition"
	"squery/internal/transport"
)

func testStore() *Store {
	p := partition.New(partition.DefaultCount)
	return NewStore(p, partition.Assign(p.Count(), 3), nil)
}

func TestPutGetDelete(t *testing.T) {
	v := testStore().View(0)
	v.Put("m", "a", 1)
	v.Put("m", "b", 2)
	if got, ok := v.Get("m", "a"); !ok || got != 1 {
		t.Fatalf(`Get("a") = %v, %v; want 1, true`, got, ok)
	}
	if got, ok := v.Get("m", "b"); !ok || got != 2 {
		t.Fatalf(`Get("b") = %v, %v; want 2, true`, got, ok)
	}
	if _, ok := v.Get("m", "missing"); ok {
		t.Fatal("Get on missing key returned ok")
	}
	if !v.Delete("m", "a") {
		t.Fatal("Delete existing key returned false")
	}
	if v.Delete("m", "a") {
		t.Fatal("Delete missing key returned true")
	}
	if _, ok := v.Get("m", "a"); ok {
		t.Fatal("key still present after Delete")
	}
}

func TestPutOverwrites(t *testing.T) {
	v := testStore().View(0)
	v.Put("m", 7, "old")
	v.Put("m", 7, "new")
	got, _ := v.Get("m", 7)
	if got != "new" {
		t.Fatalf("Get = %v, want new", got)
	}
	if n := v.Store().GetMap("m").Size(); n != 1 {
		t.Fatalf("Size = %d, want 1", n)
	}
}

func TestMapsAreIndependent(t *testing.T) {
	v := testStore().View(0)
	v.Put("live_avg", "k", 1)
	v.Put("snapshot_avg", "k", 2)
	a, _ := v.Get("live_avg", "k")
	b, _ := v.Get("snapshot_avg", "k")
	if a == b {
		t.Fatal("maps share entries")
	}
}

func TestSizeAndClear(t *testing.T) {
	v := testStore().View(0)
	for i := 0; i < 500; i++ {
		v.Put("m", i, i*i)
	}
	m := v.Store().GetMap("m")
	if m.Size() != 500 {
		t.Fatalf("Size = %d, want 500", m.Size())
	}
	m.Clear()
	if m.Size() != 0 {
		t.Fatalf("Size after Clear = %d", m.Size())
	}
}

func TestScanVisitsAll(t *testing.T) {
	v := testStore().View(0)
	want := map[string]bool{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		v.Put("m", k, i)
		want[k] = true
	}
	seen := map[string]bool{}
	v.Scan("m", func(e Entry) bool {
		seen[partition.KeyString(e.Key)] = true
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("scan saw %d keys, want %d", len(seen), len(want))
	}
}

func TestScanEarlyStop(t *testing.T) {
	v := testStore().View(0)
	for i := 0; i < 100; i++ {
		v.Put("m", i, i)
	}
	n := 0
	v.Scan("m", func(Entry) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("scan visited %d entries after early stop, want 10", n)
	}
}

func TestGetAllPreservesOrderAndMisses(t *testing.T) {
	v := testStore().View(0)
	v.Put("m", "x", 10)
	v.Put("m", "z", 30)
	got := v.GetAll("m", []partition.Key{"x", "y", "z"})
	if got[0] != 10 || got[1] != nil || got[2] != 30 {
		t.Fatalf("GetAll = %v, want [10 <nil> 30]", got)
	}
}

func TestMapNamesSortedAndDrop(t *testing.T) {
	s := testStore()
	s.GetMap("b")
	s.GetMap("a")
	if !s.HasMap("a") || s.HasMap("zz") {
		t.Fatal("HasMap wrong")
	}
	names := s.MapNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("MapNames = %v", names)
	}
	s.DropMap("a")
	if s.HasMap("a") {
		t.Fatal("map a still present after drop")
	}
}

// Property: the store behaves exactly like a plain map under any sequence
// of puts and deletes.
func TestStoreMatchesModelMap(t *testing.T) {
	type op struct {
		Key    uint8
		Value  int
		Delete bool
	}
	f := func(ops []op) bool {
		v := testStore().View(0)
		model := map[string]int{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key)
			if o.Delete {
				delete(model, k)
				v.Delete("m", k)
			} else {
				model[k] = o.Value
				v.Put("m", k, o.Value)
			}
		}
		if v.Store().GetMap("m").Size() != len(model) {
			return false
		}
		for k, want := range model {
			got, ok := v.Get("m", k)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentPutsDistinctKeys(t *testing.T) {
	v := testStore().View(0)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v.Put("m", fmt.Sprintf("w%d-%d", w, i), i)
			}
		}(w)
	}
	wg.Wait()
	if n := v.Store().GetMap("m").Size(); n != workers*per {
		t.Fatalf("Size = %d, want %d", n, workers*per)
	}
}

func TestConcurrentReadWriteSameKey(t *testing.T) {
	v := testStore().View(0)
	v.Put("m", "hot", 0)
	var wg sync.WaitGroup
	stop := atomic.Bool{}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= 2000; i++ {
			v.Put("m", "hot", i)
		}
		stop.Store(true)
	}()
	go func() {
		defer wg.Done()
		last := -1
		for !stop.Load() {
			got, ok := v.Get("m", "hot")
			if !ok {
				t.Error("hot key vanished")
				return
			}
			if got.(int) < last {
				t.Errorf("read went backwards: %d after %d", got, last)
				return
			}
			last = got.(int)
		}
	}()
	wg.Wait()
}

func TestNetworkChargesRemoteOnly(t *testing.T) {
	p := partition.New(16)
	a := partition.Assign(16, 4)
	tr := transport.NewSim(transport.SimConfig{})
	s := NewStore(p, a, tr)
	hops := func() uint64 { return tr.Stats().Messages }

	// A put from the owning node must be free; from any other node it
	// must cost exactly one hop.
	key := "some-key"
	owner := a.Owner(p.Of(key))
	s.View(owner).Put("m", key, 1)
	if hops() != 0 {
		t.Fatalf("local put charged %d hops", hops())
	}
	other := (owner + 1) % 4
	s.View(other).Put("m", key, 2)
	if hops() != 1 {
		t.Fatalf("remote put charged %d hops, want 1", hops())
	}

	// A client scan touches each node once.
	before := hops()
	s.View(ClientNode).Scan("m", func(Entry) bool { return true })
	if got := hops() - before; got != 4 {
		t.Fatalf("client scan charged %d hops, want 4 (one per node)", got)
	}
}

func TestGetAllBatchesHops(t *testing.T) {
	p := partition.New(16)
	a := partition.Assign(16, 4)
	tr := transport.NewSim(transport.SimConfig{})
	s := NewStore(p, a, tr)
	v := s.View(ClientNode)
	keys := make([]partition.Key, 64)
	for i := range keys {
		keys[i] = i
		v.Put("m", i, i)
	}
	before := tr.Stats()
	v.GetAll("m", keys)
	after := tr.Stats()
	if got := after.Messages - before.Messages; got > 4 {
		t.Fatalf("batched GetAll charged %d hops, want <= 4", got)
	}
	// Every key still counts as a logical operation.
	if got := after.Ops - before.Ops; got != 64 {
		t.Fatalf("batched GetAll accounted %d ops, want 64", got)
	}
}

func TestPutBatchSemanticsMatchUnary(t *testing.T) {
	p := partition.New(16)
	a := partition.Assign(16, 4)
	batched := NewStore(p, a, nil)
	unary := NewStore(p, a, nil)
	bv, uv := batched.View(0), unary.View(0)

	var ops []Op
	for i := 0; i < 200; i++ {
		ops = append(ops, Op{Key: i, Value: i * i})
		uv.Put("m", i, i*i)
	}
	// Overwrites and deletes inside the same batch, in order.
	ops = append(ops, Op{Key: 7, Value: "last-write-wins"})
	uv.Put("m", 7, "last-write-wins")
	ops = append(ops, Op{Key: 8, Delete: true})
	uv.Delete("m", 8)
	bv.PutBatch("m", ops)

	if bs, us := batched.GetMap("m").Size(), unary.GetMap("m").Size(); bs != us {
		t.Fatalf("batched size %d != unary size %d", bs, us)
	}
	for i := 0; i < 200; i++ {
		bg, bok := bv.Get("m", i)
		ug, uok := uv.Get("m", i)
		if bok != uok || bg != ug {
			t.Fatalf("key %d: batched (%v, %v) != unary (%v, %v)", i, bg, bok, ug, uok)
		}
	}
}

func TestPutBatchChargesPerPartitionGroup(t *testing.T) {
	p := partition.New(16)
	a := partition.Assign(16, 4)
	tr := transport.NewSim(transport.SimConfig{})
	s := NewStore(p, a, tr)
	v := s.View(ClientNode) // remote to every partition

	var ops []Op
	for i := 0; i < 256; i++ {
		ops = append(ops, Op{Key: i, Value: i})
	}
	v.PutBatch("m", ops)
	st := tr.Stats()
	// 256 keys over 16 partitions: at most one message per partition
	// group, never one per key.
	if st.Messages > 16 {
		t.Fatalf("PutBatch sent %d messages for 256 ops over 16 partitions, want <= 16", st.Messages)
	}
	if st.Ops != 256 {
		t.Fatalf("PutBatch accounted %d ops, want 256", st.Ops)
	}
}

func TestPutBatchReplicates(t *testing.T) {
	p := partition.New(16)
	a := partition.Assign(16, 4)
	s := NewStore(p, a, nil)
	if err := s.SetReplicated(); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	var ops []Op
	for i := 0; i < 100; i++ {
		ops = append(ops, Op{Key: i, Value: i})
	}
	v.PutBatch("m", ops)
	if got := s.GetMap("m").BackupSize(); got != 100 {
		t.Fatalf("BackupSize = %d, want 100", got)
	}
	// Batched deletes reach the backups too.
	ops = ops[:0]
	for i := 0; i < 50; i++ {
		ops = append(ops, Op{Key: i, Delete: true})
	}
	v.PutBatch("m", ops)
	if got := s.GetMap("m").BackupSize(); got != 50 {
		t.Fatalf("BackupSize after batched deletes = %d, want 50", got)
	}
}

func TestApplyBatchReadModifyWrite(t *testing.T) {
	p := partition.New(16)
	a := partition.Assign(16, 4)
	tr := transport.NewSim(transport.SimConfig{})
	s := NewStore(p, a, tr)
	v := s.View(0)
	for i := 0; i < 100; i++ {
		v.Put("m", i, i)
	}

	keys := make([]partition.Key, 120) // 100 present + 20 absent
	for i := range keys {
		keys[i] = i
	}
	before := tr.Stats().Messages
	v.ApplyBatch("m", keys, func(i int, key partition.Key, cur any, ok bool) (any, bool) {
		if i < 100 {
			if !ok || cur != i {
				t.Errorf("key %v: merge saw (%v, %v), want (%d, true)", key, cur, ok, i)
			}
			if i%10 == 0 {
				return nil, false // delete every 10th
			}
			return cur.(int) + 1000, true
		}
		if ok {
			t.Errorf("absent key %v: merge saw ok=true", key)
		}
		return "created", true
	})
	used := tr.Stats().Messages - before
	// One round trip per remote partition group — 16 partitions, 3/4 of
	// them remote to node 0 on average, but never more than 16 and far
	// below the 240 a Get+Put-per-key loop would cost.
	if used > 16 {
		t.Fatalf("ApplyBatch used %d messages, want <= 16", used)
	}

	for i := 0; i < 100; i++ {
		got, ok := v.Get("m", i)
		if i%10 == 0 {
			if ok {
				t.Fatalf("key %d should have been deleted, got %v", i, got)
			}
			continue
		}
		if !ok || got != i+1000 {
			t.Fatalf("key %d = (%v, %v), want (%d, true)", i, got, ok, i+1000)
		}
	}
	for i := 100; i < 120; i++ {
		if got, ok := v.Get("m", i); !ok || got != "created" {
			t.Fatalf("key %d = (%v, %v), want (created, true)", i, got, ok)
		}
	}
}

func TestApplyBatchReplicates(t *testing.T) {
	p := partition.New(16)
	a := partition.Assign(16, 4)
	s := NewStore(p, a, nil)
	if err := s.SetReplicated(); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	keys := make([]partition.Key, 80)
	for i := range keys {
		keys[i] = i
	}
	v.ApplyBatch("m", keys, func(i int, _ partition.Key, _ any, _ bool) (any, bool) {
		return i, i%2 == 0 // keep evens only
	})
	if got := s.GetMap("m").BackupSize(); got != 40 {
		t.Fatalf("BackupSize = %d, want 40", got)
	}
	if got := s.GetMap("m").Size(); got != 40 {
		t.Fatalf("Size = %d, want 40", got)
	}
}

func TestBatchConcurrentWithUnary(t *testing.T) {
	s := testStore()
	v := s.View(0)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for r := 0; r < 20; r++ {
			var ops []Op
			for i := 0; i < 100; i++ {
				ops = append(ops, Op{Key: fmt.Sprintf("b-%d", i), Value: r})
			}
			v.PutBatch("m", ops)
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 20; r++ {
			keys := make([]partition.Key, 100)
			for i := range keys {
				keys[i] = fmt.Sprintf("b-%d", i)
			}
			v.ApplyBatch("m", keys, func(_ int, _ partition.Key, cur any, ok bool) (any, bool) {
				if !ok {
					return 0, true
				}
				return cur, true
			})
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 2000; r++ {
			v.Put("m", fmt.Sprintf("u-%d", r%50), r)
			v.Get("m", fmt.Sprintf("b-%d", r%100))
		}
	}()
	wg.Wait()
	if n := s.GetMap("m").Size(); n != 150 {
		t.Fatalf("Size = %d, want 150", n)
	}
}

func TestStorePanicsOnMismatchedAssignment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStore with mismatched assignment did not panic")
		}
	}()
	NewStore(partition.New(8), partition.Assign(16, 2), nil)
}

func TestScanPartitionWithFilter(t *testing.T) {
	s := testStore()
	v := s.View(0)
	for i := 0; i < 200; i++ {
		v.Put("m", fmt.Sprintf("key-%d", i), i)
	}
	m := s.GetMap("m")
	seen := 0
	for p := 0; p < s.Partitioner().Count(); p++ {
		m.ScanPartitionWith(p, ScanOpts{}, func(es []Entry) bool {
			if len(es) > ScanBatch {
				t.Fatalf("chunk of %d entries, more than ScanBatch", len(es))
			}
			for _, e := range es {
				if e.Value.(int)%2 == 0 {
					seen++
				}
			}
			return true
		})
	}
	if seen != 100 {
		t.Fatalf("filtered scan saw %d entries, want 100", seen)
	}
}

func TestScanPartitionWithDoneStopsEarly(t *testing.T) {
	s := testStore()
	v := s.View(0)
	// Pile more than one chunk's worth of keys into one partition, so the
	// done poll between chunks must trigger mid-scan.
	var target int
	n := 0
	for i := 0; n < 2*ScanBatch; i++ {
		p := s.Partitioner().Of(i)
		if n == 0 {
			target = p
		}
		if p == target {
			v.Put("m", i, i)
			n++
		}
	}
	done := make(chan struct{})
	visited := 0
	s.GetMap("m").ScanPartitionWith(target, ScanOpts{Done: done}, func(es []Entry) bool {
		if visited == 0 {
			close(done)
		}
		visited += len(es)
		return true
	})
	if visited != ScanBatch {
		t.Fatalf("done channel did not stop the scan after the first chunk (visited %d of %d)", visited, 2*ScanBatch)
	}
}

func TestScanPartitionBackupWithFilter(t *testing.T) {
	s := testStore()
	if err := s.SetReplicated(); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	for i := 0; i < 50; i++ {
		v.Put("m", i, i)
	}
	m := s.GetMap("m")
	seen := 0
	for p := 0; p < s.Partitioner().Count(); p++ {
		m.ScanPartitionBackupWith(p, ScanOpts{}, func(es []Entry) bool {
			for _, e := range es {
				if e.Value.(int) < 5 {
					seen++
				}
			}
			return true
		})
	}
	if seen != 5 {
		t.Fatalf("filtered backup scan saw %d entries, want 5", seen)
	}
}

// Benchmarks for the batched vs unary write path: `make bench-smoke`
// watches these for regressions in the mirror-flush hot path.
func benchStore() (*Store, NodeView) {
	p := partition.New(128)
	s := NewStore(p, partition.Assign(128, 3), nil)
	return s, s.View(0)
}

func BenchmarkPutUnary(b *testing.B) {
	_, v := benchStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Put("m", i%4096, i)
	}
}

func BenchmarkPutBatch256(b *testing.B) {
	_, v := benchStore()
	ops := make([]Op, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j] = Op{Key: (i*256 + j) % 4096, Value: j}
		}
		v.PutBatch("m", ops)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/op256")
}

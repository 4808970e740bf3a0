package kv

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"squery/internal/partition"
	"squery/internal/transport"
)

// collectIndexed gathers the indexed scan's output across every partition;
// served is false if any partition could not be served from an index.
func collectIndexed(m *Map, lk IndexLookup, filter func(Entry) bool) (map[string]any, bool) {
	out := map[string]any{}
	for p := 0; p < m.store.part.Count(); p++ {
		ok := m.ScanPartitionIndexedWith(p, lk, ScanOpts{}, func(es []Entry) bool {
			for _, e := range es {
				if filter == nil || filter(e) {
					out[partition.KeyString(e.Key)] = e.Value
				}
			}
			return true
		})
		if !ok {
			return nil, false
		}
	}
	return out, true
}

func collectFull(m *Map, filter func(Entry) bool) map[string]any {
	out := map[string]any{}
	for p := 0; p < m.store.part.Count(); p++ {
		m.ScanPartition(p, func(e Entry) bool {
			if filter == nil || filter(e) {
				out[partition.KeyString(e.Key)] = e.Value
			}
			return true
		})
	}
	return out
}

func sameResults(t *testing.T, label string, idx, full map[string]any) {
	t.Helper()
	if len(idx) != len(full) {
		t.Fatalf("%s: indexed scan found %d rows, full scan %d", label, len(idx), len(full))
	}
	for k := range full {
		if _, ok := idx[k]; !ok {
			t.Fatalf("%s: indexed scan missed key %s", label, k)
		}
	}
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func zoneIs(want string) func(Entry) bool {
	return func(e Entry) bool {
		f, ok := AsRow(e.Value).Field("zone")
		if !ok {
			return false
		}
		s, ok := f.(string)
		return ok && s == want
	}
}

func latBetween(lo, hi float64) func(Entry) bool {
	return func(e Entry) bool {
		f, ok := AsRow(e.Value).Field("lat")
		if !ok {
			return false
		}
		x, ok := asFloat(f)
		return ok && x >= lo && x <= hi
	}
}

// TestIndexScanParity drives a map with hash and B-tree indexes through
// puts, overwrites, deletes and batches, and asserts indexed scans agree
// with full scans under the same filter — the index may only change how
// candidates are found, never which rows come out.
func TestIndexScanParity(t *testing.T) {
	s := testStore()
	m := s.GetMap("orders")
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateIndex("lat", IndexBTree, nil); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	rng := rand.New(rand.NewSource(42))
	zones := []string{"z0", "z1", "z2", "z3"}
	for i := 0; i < 2000; i++ {
		v.Put("orders", i, MapRow{
			"zone": zones[rng.Intn(len(zones))],
			"lat":  50 + rng.Float64()*100,
		})
	}
	// Overwrites that move rows between postings.
	for i := 0; i < 500; i++ {
		k := rng.Intn(2000)
		v.Put("orders", k, MapRow{
			"zone": zones[rng.Intn(len(zones))],
			"lat":  50 + rng.Float64()*100,
		})
	}
	// Deletes, unary and batched.
	for i := 0; i < 200; i++ {
		v.Delete("orders", rng.Intn(2000))
	}
	ops := make([]Op, 0, 300)
	for i := 0; i < 300; i++ {
		if rng.Intn(3) == 0 {
			ops = append(ops, Op{Key: rng.Intn(2000), Delete: true})
		} else {
			ops = append(ops, Op{Key: rng.Intn(2000), Value: MapRow{
				"zone": zones[rng.Intn(len(zones))],
				"lat":  50 + rng.Float64()*100,
			}})
		}
	}
	v.PutBatch("orders", ops)
	// Read-modify-write batch (the snapshot-chain write path).
	keys := make([]partition.Key, 100)
	for i := range keys {
		keys[i] = rng.Intn(2000)
	}
	v.ApplyBatch("orders", keys, func(i int, key partition.Key, cur any, ok bool) (any, bool) {
		if !ok || rng.Intn(5) == 0 {
			return nil, false
		}
		r := cur.(MapRow)
		return MapRow{"zone": r["zone"], "lat": 50 + rng.Float64()*100}, true
	})

	for _, z := range zones {
		idx, served := collectIndexed(m, IndexLookup{Col: "zone", Eq: z}, zoneIs(z))
		if !served {
			t.Fatalf("zone=%s not served from index", z)
		}
		sameResults(t, "zone="+z, idx, collectFull(m, zoneIs(z)))
	}
	for _, r := range [][2]float64{{60, 80}, {50, 150}, {149, 200}, {0, 49}} {
		lk := IndexLookup{Col: "lat", Range: true, Lo: r[0], Hi: r[1]}
		idx, served := collectIndexed(m, lk, latBetween(r[0], r[1]))
		if !served {
			t.Fatalf("lat in [%v,%v] not served from index", r[0], r[1])
		}
		sameResults(t, fmt.Sprintf("lat in [%v,%v]", r[0], r[1]), idx, collectFull(m, latBetween(r[0], r[1])))
	}
	// Half-open ranges.
	idx, served := collectIndexed(m, IndexLookup{Col: "lat", Range: true, Lo: 100.0}, latBetween(100, 1e9))
	if !served {
		t.Fatal("lat >= 100 not served")
	}
	sameResults(t, "lat>=100", idx, collectFull(m, latBetween(100, 1e9)))
}

// TestIndexIntFloatCoercion: SQL equality coerces ints and floats, so an
// index over int-valued cells must answer float probes (and vice versa),
// including range bounds of mixed numeric types.
func TestIndexIntFloatCoercion(t *testing.T) {
	s := testStore()
	m := s.GetMap("m")
	if _, err := m.CreateIndex("n", IndexBTree, nil); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	for i := 0; i < 100; i++ {
		v.Put("m", i, MapRow{"n": i}) // stored as int
	}
	eq := func(want float64) func(Entry) bool {
		return func(e Entry) bool {
			f, _ := AsRow(e.Value).Field("n")
			x, ok := asFloat(f)
			return ok && x == want
		}
	}
	idx, served := collectIndexed(m, IndexLookup{Col: "n", Eq: float64(42)}, eq(42))
	if !served {
		t.Fatal("float probe over int cells not served")
	}
	if len(idx) != 1 {
		t.Fatalf("n = 42.0 over int cells found %d rows, want 1", len(idx))
	}
	lk := IndexLookup{Col: "n", Range: true, Lo: float64(10), Hi: 19}
	idx, served = collectIndexed(m, lk, latWith("n", 10, 19))
	if !served {
		t.Fatal("mixed-type range bounds not served")
	}
	if len(idx) != 10 {
		t.Fatalf("n in [10.0, 19] found %d rows, want 10", len(idx))
	}
}

func latWith(col string, lo, hi float64) func(Entry) bool {
	return func(e Entry) bool {
		f, ok := AsRow(e.Value).Field(col)
		if !ok {
			return false
		}
		x, ok := asFloat(f)
		return ok && x >= lo && x <= hi
	}
}

// TestIndexOddAndForeignKinds: rows with a missing, nil or
// differently-typed cell must still reach the filter — a full scan would
// have examined them (and possibly errored), so the index may not hide
// them.
func TestIndexOddAndForeignKinds(t *testing.T) {
	s := testStore()
	m := s.GetMap("m")
	if _, err := m.CreateIndex("n", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	v.Put("m", "num", MapRow{"n": 7})
	v.Put("m", "str", MapRow{"n": "seven"}) // foreign kind
	v.Put("m", "missing", MapRow{"other": 1})
	v.Put("m", "nil", MapRow{"n": nil})
	v.Put("m", "odd", MapRow{"n": []int{1, 2}}) // unindexable type

	seenAll := func(e Entry) bool { return true }
	idx, served := collectIndexed(m, IndexLookup{Col: "n", Eq: 7}, seenAll)
	if !served {
		t.Fatal("not served")
	}
	for _, want := range []string{"num", "str", "missing", "nil", "odd"} {
		ks := partition.KeyString(want)
		if _, ok := idx[ks]; !ok {
			t.Fatalf("candidate set for n=7 is missing %q: a full scan would have examined it", want)
		}
	}
	// A homogeneous probe over a different value still excludes same-kind
	// non-matches: key "num" must NOT be a candidate for n=8.
	idx, _ = collectIndexed(m, IndexLookup{Col: "n", Eq: 8}, seenAll)
	if _, ok := idx[partition.KeyString("num")]; ok {
		t.Fatal("same-kind non-match leaked into the candidate set")
	}
}

// TestIndexEstimate checks EstimateLookup tracks actual candidate counts.
func TestIndexEstimate(t *testing.T) {
	s := testStore()
	m := s.GetMap("m")
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	for i := 0; i < 400; i++ {
		v.Put("m", i, MapRow{"zone": fmt.Sprintf("z%d", i%4)})
	}
	n, ok := m.EstimateLookup(IndexLookup{Col: "zone", Eq: "z1"})
	if !ok || n != 100 {
		t.Fatalf("EstimateLookup(zone=z1) = %d, %v; want 100, true", n, ok)
	}
	if _, ok := m.EstimateLookup(IndexLookup{Col: "nope", Eq: 1}); ok {
		t.Fatal("estimate served for unindexed column")
	}
	if _, ok := m.EstimateLookup(IndexLookup{Col: "zone", Range: true, Lo: "a", Hi: "z"}); ok {
		t.Fatal("range estimate served from a hash index")
	}
}

// TestIndexRebuildOnFailNode: backup promotion swaps a partition's entries
// wholesale; the indexes must be re-derived or every lookup after a
// failover would serve the dead node's postings.
func TestIndexRebuildOnFailNode(t *testing.T) {
	p := partition.New(partition.DefaultCount)
	s := NewStore(p, partition.Assign(p.Count(), 3), nil)
	if err := s.SetReplicated(); err != nil {
		t.Fatal(err)
	}
	m := s.GetMap("m")
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	for i := 0; i < 500; i++ {
		v.Put("m", i, MapRow{"zone": fmt.Sprintf("z%d", i%4)})
	}
	var parts []int
	for q := 0; q < p.Count(); q++ {
		if s.assign.Owner(q) == 1 {
			parts = append(parts, q)
		}
	}
	s.FailNode(parts)
	idx, served := collectIndexed(m, IndexLookup{Col: "zone", Eq: "z2"}, zoneIs("z2"))
	if !served {
		t.Fatal("not served after failover")
	}
	sameResults(t, "post-failover zone=z2", idx, collectFull(m, zoneIs("z2")))
}

// TestIndexClear: Clear must reset the indexes along with the entries.
func TestIndexClear(t *testing.T) {
	s := testStore()
	m := s.GetMap("m")
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	for i := 0; i < 100; i++ {
		v.Put("m", i, MapRow{"zone": "z"})
	}
	m.Clear()
	idx, served := collectIndexed(m, IndexLookup{Col: "zone", Eq: "z"}, nil)
	if !served || len(idx) != 0 {
		t.Fatalf("after Clear: served=%v rows=%d, want true, 0", served, len(idx))
	}
	infos := s.IndexInfos()
	if len(infos) != 1 || infos[0].Entries != 0 {
		t.Fatalf("after Clear: IndexInfos = %+v, want one index with 0 entries", infos)
	}
}

// TestCreateIndexConcurrentWrites builds an index while writers are live;
// publish-then-rebuild must end with the index exactly matching the map.
func TestCreateIndexConcurrentWrites(t *testing.T) {
	s := testStore()
	m := s.GetMap("m")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := s.View(0)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := w*10000 + rng.Intn(500)
				if rng.Intn(10) == 0 {
					v.Delete("m", k)
				} else {
					v.Put("m", k, MapRow{"zone": fmt.Sprintf("z%d", rng.Intn(4))})
				}
			}
		}(w)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	idx, served := collectIndexed(m, IndexLookup{Col: "zone", Eq: "z3"}, zoneIs("z3"))
	if !served {
		t.Fatal("not served")
	}
	sameResults(t, "concurrent build zone=z3", idx, collectFull(m, zoneIs("z3")))
}

// TestIndexEpochFenceRegression: a writer holding a stale partition table
// must not be able to dirty an index across a migration flip. The
// partition is frozen, the stale write bounces (MigratingError →
// StaleEpochError path), the epoch flips and the index is rebuilt; the
// retried write lands once, fenced at the new epoch, and the index agrees
// with the map — with the forced backstop cold.
func TestIndexEpochFenceRegression(t *testing.T) {
	p := partition.New(partition.DefaultCount)
	s := NewStore(p, partition.Assign(p.Count(), 3), nil)
	m := s.GetMap("m")
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	fv := s.FencedView(0)
	for i := 0; i < 200; i++ {
		fv.Put("m", i, MapRow{"zone": fmt.Sprintf("z%d", i%4)})
	}
	const key = 7
	part := m.PartitionOf(key)

	if !s.BeginPartitionMigration(part) {
		t.Fatal("could not freeze partition")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Stamped with the pre-flip epoch; bounces until thaw + refresh.
		fv.Put("m", key, MapRow{"zone": "moved"})
	}()
	time.Sleep(2 * time.Millisecond) // let the writer hit the fence
	s.assign.Apply([]partition.Change{{Partition: part, Owner: s.assign.Owner(part), Backup: s.assign.Backup(part)}})
	s.RebuildPartitionIndexes(part)
	s.EndPartitionMigration(part)
	<-done

	if f := s.FenceStats(); f.Rejects == 0 {
		t.Fatal("the stale write never bounced — the fence did not engage")
	} else if f.Forced != 0 {
		t.Fatalf("forced writes = %d, want 0", f.Forced)
	}
	idx, served := collectIndexed(m, IndexLookup{Col: "zone", Eq: "moved"}, zoneIs("moved"))
	if !served {
		t.Fatal("not served")
	}
	if len(idx) != 1 {
		t.Fatalf("zone=moved found %d rows in the rebuilt index, want exactly 1", len(idx))
	}
	sameResults(t, "post-flip", idx, collectFull(m, zoneIs("moved")))
	// And the old posting must not retain the key.
	old, _ := collectIndexed(m, IndexLookup{Col: "zone", Eq: "z3"}, zoneIs("z3"))
	if _, stale := old[partition.KeyString(key)]; stale {
		t.Fatal("stale posting survived the flip rebuild")
	}
}

// TestIndexInfos sanity-checks the sys.indexes source.
func TestIndexInfos(t *testing.T) {
	s := testStore()
	m := s.GetMap("m")
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateIndex("lat", IndexBTree, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateIndex("zone", IndexBTree, nil); err == nil {
		t.Fatal("second index on the same column with a different kind was accepted")
	}
	if ix, err := m.CreateIndex("zone", IndexHash, nil); err != nil || ix == nil {
		t.Fatalf("re-creating the same index errored: %v", err)
	}
	v := s.View(0)
	for i := 0; i < 100; i++ {
		v.Put("m", i, MapRow{"zone": "z", "lat": float64(i)})
	}
	collectIndexed(m, IndexLookup{Col: "zone", Eq: "z"}, nil)
	infos := s.IndexInfos()
	if len(infos) != 2 {
		t.Fatalf("IndexInfos returned %d indexes, want 2", len(infos))
	}
	// Sorted by map, column: lat before zone.
	if infos[0].Column != "lat" || infos[0].Kind != "btree" {
		t.Fatalf("infos[0] = %+v, want lat/btree", infos[0])
	}
	z := infos[1]
	if z.Entries != 100 || z.Bytes <= 0 || z.MaintOps < 100 || z.Lookups == 0 {
		t.Fatalf("zone index info = %+v", z)
	}
}

// TestBTreeOrderAndCompaction exercises the tree directly: ordered range
// iteration across splits, and compaction after mass emptying.
func TestBTreeOrderAndCompaction(t *testing.T) {
	tr := &btree{kind: 'N'}
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(5000)
	for _, k := range keys {
		p, isNew := tr.getOrInsert(numIxKey(float64(k)))
		if !isNew {
			t.Fatalf("duplicate insert for %d", k)
		}
		tr.live++
		p.add(fmt.Sprintf("k%d", k))
	}
	var got []uint64
	lo, hi := numIxKey(1000), numIxKey(1999)
	tr.ascendRange(&lo, &hi, func(it btItem) bool {
		got = append(got, it.k.num)
		return true
	})
	if len(got) != 1000 {
		t.Fatalf("range walk visited %d items, want 1000", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("range walk out of order")
		}
	}
	// Empty most postings; compaction must kick in and keep the rest.
	for k := 0; k < 4900; k++ {
		p := tr.get(numIxKey(float64(k)))
		p.remove(fmt.Sprintf("k%d", k))
		tr.live--
		tr.empty++
		tr.maybeCompact()
	}
	n := 0
	tr.each(func(it btItem) bool {
		if len(it.post.keys) > 0 {
			n++
		}
		return true
	})
	if n != 100 {
		t.Fatalf("%d live postings after compaction, want 100", n)
	}
	if tr.empty > tr.live {
		t.Fatalf("compaction never ran: empty=%d live=%d", tr.empty, tr.live)
	}
}

// TestClearMapKeepsIndexes: ClearMap wipes data but not schema — index
// definitions survive, postings reset, and inline maintenance resumes on
// the next write. (DropMap on a recovery path once silently discarded the
// table's indexes; the recreated map answered every probe with a full
// scan.)
func TestClearMapKeepsIndexes(t *testing.T) {
	s := testStore()
	m := s.GetMap("m")
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	v := s.View(0)
	for i := 0; i < 100; i++ {
		v.Put("m", i, MapRow{"zone": fmt.Sprintf("z%d", i%4)})
	}
	s.ClearMap("m")
	infos := s.IndexInfos()
	if len(infos) != 1 || infos[0].Entries != 0 {
		t.Fatalf("after ClearMap: infos = %+v, want 1 index with 0 entries", infos)
	}
	if got := collectFull(m, nil); len(got) != 0 {
		t.Fatalf("after ClearMap: %d entries survived", len(got))
	}
	// New writes are indexed again.
	for i := 0; i < 40; i++ {
		v.Put("m", i, MapRow{"zone": fmt.Sprintf("z%d", i%4)})
	}
	lk := IndexLookup{Col: "zone", Eq: "z1"}
	idx, served := collectIndexed(m, lk, nil)
	if !served {
		t.Fatal("index did not serve after ClearMap")
	}
	if len(idx) != 10 {
		t.Fatalf("indexed probe found %d rows, want 10", len(idx))
	}
	// ClearMap on an unknown map is a no-op, not a panic.
	s.ClearMap("nosuch")
}

// TestIndexedPutAllocs gates the inline-maintenance allocation cost of an
// overwrite whose indexed column does not change — the common case on the
// operator update path. The single-value fast path extracts and compares
// old vs new keys with no slice boxing, so maintenance must add ZERO
// allocations over the unindexed put (itself 2: the key string and the
// boxed key).
func TestIndexedPutAllocs(t *testing.T) {
	s := testStore()
	row := MapRow{"zone": "z1"}
	v := s.View(0)
	v.Put("plain", 1, row)
	base := testing.AllocsPerRun(200, func() {
		v.Put("plain", 1, row)
	})
	m := s.GetMap("m")
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	v.Put("m", 1, row)
	avg := testing.AllocsPerRun(200, func() {
		v.Put("m", 1, row)
	})
	if avg > base {
		t.Fatalf("indexed overwrite costs %.1f allocs/op, unindexed %.1f — maintenance must be allocation-free", avg, base)
	}
}

// TestGetAllAllocs gates the direct-object read: a GetAll of string keys
// from the client view — every key remote — allocates its result slice and
// nothing else. The per-owner message counts live in node-indexed stack
// arrays and each key is hashed once.
func TestGetAllAllocs(t *testing.T) {
	s := testStore()
	keys := make([]partition.Key, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("rider-%d", i*31)
		s.View(0).Put("m", keys[i], i)
	}
	v := s.View(ClientNode)
	if got := v.GetAll("m", keys); len(got) != len(keys) || got[3] != 3 {
		t.Fatalf("GetAll = %v", got)
	}
	if a := testing.AllocsPerRun(200, func() { v.GetAll("m", keys) }); a != 1 {
		t.Fatalf("GetAll of %d string keys allocated %.1f times, want 1 (the result slice)", len(keys), a)
	}
}

// TestGetAllChargesInFirstTouchOrder: one message per remote owner, its
// share of the keys as the op count, owners in the order the keys first
// touch them — the order the transport's jitter sequence depends on.
func TestGetAllChargesInFirstTouchOrder(t *testing.T) {
	s := testStore()
	rec := &recordingTransport{Transport: s.tr}
	s.tr = rec
	keys := make([]partition.Key, 12)
	var wantOrder []int
	wantOps := map[int]int{}
	for i := range keys {
		keys[i] = fmt.Sprintf("rider-%d", i*17)
		owner := s.assign.Owner(s.part.Of(keys[i]))
		if wantOps[owner] == 0 {
			wantOrder = append(wantOrder, owner)
		}
		wantOps[owner]++
	}
	s.View(ClientNode).GetAll("m", keys)
	if len(rec.msgs) != len(wantOrder) {
		t.Fatalf("GetAll sent %d messages, want one per owner (%d)", len(rec.msgs), len(wantOrder))
	}
	for i, m := range rec.msgs {
		if m.To != wantOrder[i] || m.Ops != wantOps[m.To] || m.From != ClientNode {
			t.Fatalf("message %d = %+v, want to node %d carrying %d ops", i, m, wantOrder[i], wantOps[wantOrder[i]])
		}
	}
}

// recordingTransport records the messages sent through it.
type recordingTransport struct {
	transport.Transport
	msgs []transport.Msg
}

func (r *recordingTransport) Send(m transport.Msg) {
	r.msgs = append(r.msgs, m)
	r.Transport.Send(m)
}

// BenchmarkIndexedPut measures the inline index maintenance overhead of
// the unary put path against BenchmarkPutUnary (same shape, no index) —
// `make bench-smoke` prints both so the write-overhead budget (<= 10%
// target on row values) is visible in CI logs.
func BenchmarkIndexedPut(b *testing.B) {
	_, v := benchStore()
	m := v.Store().GetMap("m")
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		b.Fatal(err)
	}
	rows := make([]MapRow, 4)
	for i := range rows {
		rows[i] = MapRow{"zone": fmt.Sprintf("z%d", i), "v": i}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Put("m", i%4096, rows[i%4])
	}
}

// BenchmarkUnindexedRowPut is the control for BenchmarkIndexedPut: same
// row values, no index.
func BenchmarkUnindexedRowPut(b *testing.B) {
	_, v := benchStore()
	rows := make([]MapRow, 4)
	for i := range rows {
		rows[i] = MapRow{"zone": fmt.Sprintf("z%d", i), "v": i}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Put("m", i%4096, rows[i%4])
	}
}

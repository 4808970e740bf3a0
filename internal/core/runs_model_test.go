package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"squery/internal/kv"
	"squery/internal/partition"
)

// modelRow is the state object of the snapshot model tests: one column a
// hash index serves and one a B-tree index serves.
type modelRow struct {
	Zone   string
	Amount int
}

// snapModel is the naive reference of snapshot state: every version ever
// drained per key, resolved with the version-chain semantics — a read at n
// sees the version with the largest ssid ≤ n, a tombstone reads as absent,
// and a second drain at one ssid replaces the first.
type snapModel map[string][]Versioned

func (sm snapModel) drain(ks string, v Versioned) {
	sm[ks] = insertBySSID(sm[ks], v)
}

func (sm snapModel) at(ks string, n int64) (any, bool) {
	var got *Versioned
	for i := range sm[ks] {
		if sm[ks][i].SSID <= n {
			got = &sm[ks][i]
		}
	}
	if got == nil || got.Tombstone {
		return nil, false
	}
	return got.Value, true
}

// state returns every key's value at n.
func (sm snapModel) state(n int64) map[string]any {
	out := make(map[string]any)
	for ks := range sm {
		if v, ok := sm.at(ks, n); ok {
			out[ks] = v
		}
	}
	return out
}

// modelRun drives a Manager-made backend and the model through the same
// random sequence of updates, drains (two at one ssid included), commits,
// aborts, merges, restores and read leases taken and released on retained
// ids, taking each choice from next, and compares every read path against
// the model after each step — at every retained id, the newest drained one
// and every held one, retired or not.
func modelRun(t testing.TB, steps int, next func(n int) int) {
	const parts, keys = 8, 24
	p := partition.New(parts)
	store := kv.NewStore(p, partition.Assign(parts, 2), nil)
	if err := store.SetReplicated(); err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(store, 2)
	cfg := Config{Live: true, Snapshots: true, Incremental: true}
	if err := mgr.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog(store)
	if err := cat.RegisterJob(mgr.Registry(), "op"); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateIndex("snapshot_op", "Zone", IndexHash); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateIndex("snapshot_op", "Amount", IndexBTree); err != nil {
		t.Fatal(err)
	}
	ref, err := cat.Table("snapshot_op")
	if err != nil {
		t.Fatal(err)
	}
	b := mgr.NewBackend("op", 0, store.View(0), cfg)
	model := snapModel{}
	live := map[string]any{}
	dirty := map[string]bool{}
	var inflight, newest int64
	var committed, held []int64

	drain := func() {
		for ks := range dirty {
			v, ok := live[ks]
			model.drain(ks, Versioned{SSID: inflight, Value: v, Tombstone: !ok})
		}
		clear(dirty)
		if _, err := b.SnapshotPrepare(inflight); err != nil {
			t.Fatal(err)
		}
		newest = max(newest, inflight)
	}
	for step := 0; step < steps; step++ {
		switch op := next(10); {
		case op < 4:
			k := next(keys)
			ks := fmt.Sprint(k)
			if next(5) == 0 {
				b.Delete(k)
				delete(live, ks)
			} else {
				v := modelRow{Zone: fmt.Sprint("z", next(3)), Amount: next(50)}
				b.Update(k, v)
				live[ks] = v
			}
			dirty[ks] = true
		case op < 6:
			if inflight == 0 {
				if inflight, err = mgr.Begin(); err != nil {
					t.Fatal(err)
				}
			}
			drain()
		case op == 6 && inflight != 0:
			if next(3) == 0 {
				mgr.Abort(inflight)
			} else {
				if _, err := mgr.Commit(inflight); err != nil {
					t.Fatal(err)
				}
				committed = append(committed, inflight)
			}
			inflight = 0
		case op == 7:
			b.compact(store.GetMap(SnapshotMapName("op")))
		case op == 8 && inflight == 0 && len(committed) > 0:
			retained := committed[max(0, len(committed)-2):]
			s := retained[next(len(retained))]
			if err := b.Restore(s); err != nil {
				t.Fatal(err)
			}
			// The runs may hold newer versions than s's (drained by
			// aborted rounds, or committed after s): the restore re-files
			// every key whose restored value differs from its newest
			// drained version, a key present on one side only included.
			live = model.state(s)
			clear(dirty)
			newest := model.state(math.MaxInt64)
			for ks := range model {
				v, ok := live[ks]
				w, wok := newest[ks]
				if ok != wok || ok && !reflect.DeepEqual(v, w) {
					dirty[ks] = true
				}
			}
		case op == 9 && len(held) > 0 && next(2) == 0:
			i := next(len(held))
			mgr.Registry().Release(held[i])
			held = slices.Delete(held, i, i+1)
		case op == 9 && len(committed) > 0:
			retained := committed[max(0, len(committed)-2):]
			s := retained[next(len(retained))]
			if !mgr.Registry().Hold(s) {
				t.Fatalf("step %d: could not hold retained snapshot %d", step, s)
			}
			held = append(held, s)
		default:
			continue
		}
		reads := append([]int64(nil), committed[max(0, len(committed)-2):]...)
		if newest > 0 {
			reads = append(reads, newest)
		}
		reads = append(reads, held...)
		for _, n := range reads {
			checkModel(t, ref, model, n, keys, fmt.Sprintf("step %d", step))
		}
	}
}

// checkModel compares the snapshot table at ssid n with the model through
// the full scan, the point lookup, both index probes and the backup
// replica.
func checkModel(t testing.TB, ref *TableRef, model snapModel, n int64, keys int, where string) {
	t.Helper()
	want := model.state(n)
	collect := func(read func(p int, fn func([]TableRow) bool), keep func(modelRow) bool) map[string]any {
		got := make(map[string]any)
		for p := 0; p < ref.Partitions(); p++ {
			read(p, func(rows []TableRow) bool {
				for _, r := range rows {
					if keep(r.Raw.(modelRow)) {
						got[partition.KeyString(r.Key)] = r.Raw
					}
				}
				return true
			})
		}
		return got
	}
	filter := func(keep func(modelRow) bool) map[string]any {
		out := make(map[string]any)
		for ks, v := range want {
			if keep(v.(modelRow)) {
				out[ks] = v
			}
		}
		return out
	}
	all := func(modelRow) bool { return true }
	scan := func(path *AccessPath) func(p int, fn func([]TableRow) bool) {
		return func(p int, fn func([]TableRow) bool) {
			ref.ScanPartitionSpec(p, ScanSpec{SSID: n, Path: path}, fn)
		}
	}
	if got := collect(scan(nil), all); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: scan at %d = %v, want %v", where, n, got, want)
	}
	backup := func(p int, fn func([]TableRow) bool) {
		ref.ScanPartitionFallbackSpec(p, ScanSpec{SSID: n}, fn)
	}
	if got := collect(backup, all); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: backup scan at %d = %v, want %v", where, n, got, want)
	}
	for z := 0; z < 3; z++ {
		zone := fmt.Sprint("z", z)
		keep := func(r modelRow) bool { return r.Zone == zone }
		path := &AccessPath{Kind: IndexEq, Column: "Zone", Eq: zone}
		if got, w := collect(scan(path), keep), filter(keep); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: hash probe %s at %d = %v, want %v", where, zone, n, got, w)
		}
	}
	keep := func(r modelRow) bool { return r.Amount >= 10 && r.Amount <= 30 }
	path := &AccessPath{Kind: IndexRange, Column: "Amount", Lo: 10, Hi: 30}
	if got, w := collect(scan(path), keep), filter(keep); !reflect.DeepEqual(got, w) {
		t.Fatalf("%s: b-tree probe at %d = %v, want %v", where, n, got, w)
	}
	for k := 0; k < keys; k++ {
		ks := fmt.Sprint(k)
		p, _ := ref.PartitionOf(k)
		r, ok := ref.Lookup(p, ks, n)
		w, wok := want[ks]
		if ok != wok || ok && r.Raw != w {
			t.Fatalf("%s: lookup %s at %d = %v, %v; want %v, %v", where, ks, n, r.Raw, ok, w, wok)
		}
	}
}

// TestSnapshotRunsMatchModel checks the run-set store against the naive
// version-chain model over random operation sequences.
func TestSnapshotRunsMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			modelRun(t, 300, rng.Intn)
		})
	}
}

// FuzzSnapshotRuns drives the same model comparison from fuzz input, one
// byte per choice.
func FuzzSnapshotRuns(f *testing.F) {
	f.Add([]byte{0, 1, 2, 5, 5, 6, 6, 0, 3, 4, 5, 6, 7, 8, 1})
	f.Add([]byte{4, 4, 4, 5, 6, 6, 1, 5, 5, 6, 2, 7, 8, 0, 9, 5, 6, 6})
	f.Fuzz(func(t *testing.T, in []byte) {
		// Every step re-reads the table through six paths at up to three
		// ids; longer inputs only slow the minimizer down.
		if len(in) > 500 {
			in = in[:500]
		}
		i := 0
		next := func(n int) int {
			if i >= len(in) {
				return 0
			}
			i++
			return int(in[i-1]) % n
		}
		modelRun(t, len(in), next)
	})
}

// TestPromoteStandbyKeepsChangedKeys: a failover promotes the standby
// replica with the failed primary's dirty set gone, yet the next snapshot
// still carries every key that changed since the last one.
func TestPromoteStandbyKeepsChangedKeys(t *testing.T) {
	store := newTestStore()
	m := NewManager(store, 2)
	cfg := Config{Live: true, Snapshots: true, Incremental: true, ActiveStandby: true}
	if err := m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	b := m.NewBackend("op", 0, store.View(0), cfg)
	b.Update(1, 1)
	b.Update(3, 3)
	checkpoint(t, m, b) // ssid 1
	b.Update(1, 2)
	b.Delete(3)
	if err := b.PromoteStandby(); err != nil {
		t.Fatal(err)
	}
	ssid := checkpoint(t, m, b) // ssid 2
	if got, ok := SnapshotAt(store, "op", 1, ssid); !ok || got.Value != 2 {
		t.Fatalf("key 1 at ssid %d = %v, %v; want 2 (its value at the failover)", ssid, got.Value, ok)
	}
	if got, ok := SnapshotAt(store, "op", 3, ssid); ok {
		t.Fatalf("key 3 at ssid %d = %v; want absent (deleted before the failover)", ssid, got.Value)
	}
}

// TestRestoreShadowsAbortedRound: a round drains its pin and aborts, and
// the state is restored to the commit before it. The aborted round's runs
// stay in the store, so the next committed snapshot must shadow them: it
// reads the restored state, not the aborted round's.
func TestRestoreShadowsAbortedRound(t *testing.T) {
	for _, incremental := range []bool{true, false} {
		t.Run(fmt.Sprint("incremental=", incremental), func(t *testing.T) {
			store := newTestStore()
			m := NewManager(store, 2)
			cfg := Config{Live: true, Snapshots: true, Incremental: incremental}
			if err := m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
				t.Fatal(err)
			}
			b := m.NewBackend("op", 0, store.View(0), cfg)
			b.Update("k", 1)
			committed := checkpoint(t, m, b) // ssid 1
			b.Update("k", 2)
			b.Update("new", 7)
			aborted, err := m.Begin() // ssid 2: drained, never committed
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.SnapshotPrepare(aborted); err != nil {
				t.Fatal(err)
			}
			m.Abort(aborted)
			if err := b.Restore(committed); err != nil {
				t.Fatal(err)
			}
			ssid := checkpoint(t, m, b) // ssid 3
			if got, ok := SnapshotAt(store, "op", "k", ssid); !ok || got.Value != 1 {
				t.Fatalf("k at ssid %d = %v, %v; want 1 (its restored value)", ssid, got.Value, ok)
			}
			if got, ok := SnapshotAt(store, "op", "new", ssid); ok {
				t.Fatalf("new at ssid %d = %v; want absent (written after ssid %d only)", ssid, got.Value, committed)
			}
		})
	}
}

// TestSnapshotHeldCompactly is the heap gate of the snapshot store: a
// Live+Snapshots+Incremental backend with 100 000 string keys, under a
// manager with retention 2, runs four committed checkpoints with a third
// of the keys changed before each of the last three. The retention window
// [3, 4] then needs 1.33 rows per key: a key changed at 2 keeps its
// version at 2, one changed at 3 its version at 3 (which shadows its
// version at 1 for every retained read), and one changed at 4 its
// versions at 1 and 4. The store must hold no more rows than that after
// the compaction passes, and its snapshot side — the heap it holds above
// the same engine with Snapshots off — must stay within 61 B per key. Keys
// and values are built before the measurement and stay reachable, so only
// the structure is counted.
func TestSnapshotHeldCompactly(t *testing.T) {
	const n = 100_000
	keys := make([]any, n)
	vals := make([][]any, 4)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	for r := range vals {
		vals[r] = make([]any, n)
		for i := range vals[r] {
			vals[r][i] = modelRow{Zone: "z", Amount: r*n + i}
		}
	}
	rows := 0
	held := func(snapshots bool) float64 {
		return heapHeld(func() any {
			p := partition.New(partition.DefaultCount)
			store := kv.NewStore(p, partition.Assign(p.Count(), 1), nil)
			m := NewManager(store, 2)
			cfg := Config{Live: true, Snapshots: snapshots, Incremental: true}
			if err := m.RegisterOperator(OperatorMeta{Name: "op", Parallelism: 1, Config: cfg}); err != nil {
				t.Fatal(err)
			}
			b := m.NewBackend("op", 0, store.View(0), cfg)
			for i, k := range keys {
				b.Update(k, vals[0][i])
			}
			checkpoint(t, m, b)
			for r := 1; r < 4; r++ {
				for i := r - 1; i < n; i += 3 {
					b.Update(keys[i], vals[r][i])
				}
				checkpoint(t, m, b)
			}
			if snapshots {
				snap := store.GetMap(SnapshotMapName("op"))
				for q := 0; q < p.Count(); q++ {
					rows += asRuns(snap.PeekFrozen(q)).rows()
				}
			}
			return []any{store, m, b}
		})
	}
	off := held(false)
	on := held(true)
	runtime.KeepAlive(keys)
	runtime.KeepAlive(vals)
	perKey := (on - off) / n
	t.Logf("snapshot side %.1f B/key (Snapshots on %.1f, off %.1f B/key), %d rows", perKey, on/n, off/n, rows)
	if rows > 133_334 {
		t.Fatalf("the snapshot store holds %d rows; want at most 133 334 (1.33 per key)", rows)
	}
	if perKey > 61 {
		t.Fatalf("the snapshot side holds %.1f B/key; want at most 61", perKey)
	}
}

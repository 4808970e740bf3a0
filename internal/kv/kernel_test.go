package kv

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"squery/internal/metrics"
	"squery/internal/partition"
	"squery/internal/transport"
)

// kernelFixture is a replicated 3-node store whose map "m" carries
// everything a mutation has to keep in step: a hash index, a B-tree index
// and a recording tap, with per-partition stats and a counting transport.
type kernelFixture struct {
	s   *Store
	m   *Map
	tap *recTap
	tr  transport.Transport
	reg *metrics.Registry
}

const kernelParts = 8

func newKernelFixture(t *testing.T, replicated bool) *kernelFixture {
	t.Helper()
	tr := transport.NewSim(transport.SimConfig{})
	s := NewStore(partition.New(kernelParts), partition.Assign(kernelParts, 3), tr)
	if replicated {
		if err := s.SetReplicated(); err != nil {
			t.Fatal(err)
		}
	}
	f := &kernelFixture{s: s, m: s.GetMap("m"), tap: &recTap{}, tr: tr, reg: metrics.NewRegistry()}
	s.SetMetrics(f.reg)
	if _, err := f.m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.CreateIndex("amount", IndexBTree, nil); err != nil {
		t.Fatal(err)
	}
	f.m.AttachTap(f.tap)
	return f
}

// kernelState is everything observable about the fixture after a run.
type kernelState struct {
	Entries, Backup map[string]any
	Zone, Amount    []string // ScanPartitionIndexed candidates, "p/key"
	Deltas          []string // per-partition tap order: "p key tombstone value old hadOld"
	Sets, Deletes   [kernelParts]int64
	Gets            int64
	BackupOps       uint64 // the transport carries backup hops only: every
	BackupBytes     uint64 // write is issued from the partition's owner
}

func (f *kernelFixture) state() kernelState {
	st := kernelState{Entries: map[string]any{}, Backup: map[string]any{}}
	for p := 0; p < kernelParts; p++ {
		f.m.ScanPartition(p, func(e Entry) bool {
			st.Entries[partition.KeyString(e.Key)] = e.Value
			return true
		})
		f.m.ScanPartitionBackup(p, func(e Entry) bool {
			st.Backup[partition.KeyString(e.Key)] = e.Value
			return true
		})
		collect := func(into *[]string) func(Entry) bool {
			return func(e Entry) bool {
				*into = append(*into, fmt.Sprintf("%d/%s", p, partition.KeyString(e.Key)))
				return true
			}
		}
		f.m.ScanPartitionIndexed(p, IndexLookup{Col: "zone", Eq: "z1"}, ScanOpts{}, collect(&st.Zone))
		f.m.ScanPartitionIndexed(p, IndexLookup{Col: "amount", Range: true, Lo: int64(2), Hi: int64(5)}, ScanOpts{}, collect(&st.Amount))
		id := "p" + strconv.Itoa(p)
		st.Sets[p] = f.reg.Counter("kv", id, "sets").Value()
		st.Deletes[p] = f.reg.Counter("kv", id, "deletes").Value()
		st.Gets += f.reg.Counter("kv", id, "gets").Value()
	}
	sort.Strings(st.Zone)
	sort.Strings(st.Amount)
	ds := f.tap.snapshot()
	for p := 0; p < kernelParts; p++ {
		for _, d := range ds {
			if d.Part == p {
				st.Deltas = append(st.Deltas, fmt.Sprintf("%d %s %v %v %v %v", d.Part, d.KeyS, d.Tombstone, d.Value, d.Old, d.HadOld))
			}
		}
	}
	ts := f.tr.Stats()
	st.BackupOps, st.BackupBytes = ts.Ops, ts.Bytes
	return st
}

// kernelSteps is a seeded sequence of small batches over 24 keys: puts,
// overwrites, deletes of present and absent keys, and the same key written
// more than once inside one batch.
func kernelSteps() [][]Op {
	rng := rand.New(rand.NewSource(22))
	steps := make([][]Op, 60)
	for i := range steps {
		ops := make([]Op, 1+rng.Intn(6))
		for j := range ops {
			key := "k" + strconv.Itoa(rng.Intn(24))
			if j > 0 && rng.Intn(4) == 0 {
				key = ops[j-1].Key.(string) // last write wins inside the batch
			}
			if rng.Intn(3) == 0 {
				ops[j] = Op{Key: key, Delete: true}
			} else {
				ops[j] = Op{Key: key, Value: MapRow{"zone": "z" + strconv.Itoa(rng.Intn(3)), "amount": int64(rng.Intn(8))}}
			}
		}
		steps[i] = ops
	}
	return steps
}

// byOwner splits one step by the node owning each op's partition, order
// preserved, so every write is issued where its partition lives and the
// transport sees backup hops alone.
func (f *kernelFixture) byOwner(ops []Op) [3][]Op {
	var out [3][]Op
	for _, op := range ops {
		n := f.s.Assignment().Owner(f.s.Partitioner().Of(op.Key))
		out[n] = append(out[n], op)
	}
	return out
}

// TestEntryPointEquivalence holds the three ways into the mutation kernel
// to one outcome: the same op sequence through Put/Delete one by one,
// through PutBatch and through ApplyBatch leaves the same entries, backup
// copies, index postings, per-partition tap streams (the replaced value
// included), set/delete counts and backup-hop totals. The one difference is by definition: a merge is handed
// the current value, so ApplyBatch counts a get per key.
func TestEntryPointEquivalence(t *testing.T) {
	steps := kernelSteps()
	total := 0
	for _, ops := range steps {
		total += len(ops)
	}
	apply := map[string]func(v NodeView, ops []Op){
		"unary": func(v NodeView, ops []Op) {
			for _, op := range ops {
				if op.Delete {
					v.Delete("m", op.Key)
				} else {
					v.Put("m", op.Key, op.Value)
				}
			}
		},
		"PutBatch": func(v NodeView, ops []Op) { v.PutBatch("m", ops) },
		"ApplyBatch": func(v NodeView, ops []Op) {
			keys := make([]partition.Key, len(ops))
			for i := range ops {
				keys[i] = ops[i].Key
			}
			v.ApplyBatch("m", keys, func(i int, _ partition.Key, _ any, _ bool) (any, bool) {
				return ops[i].Value, !ops[i].Delete
			})
		},
	}
	got := map[string]kernelState{}
	for name, fn := range apply {
		f := newKernelFixture(t, true)
		for _, ops := range steps {
			for n, part := range f.byOwner(ops) {
				if len(part) > 0 {
					fn(f.s.View(n), part)
				}
			}
		}
		got[name] = f.state()
	}
	want := got["unary"]
	if len(want.Entries) == 0 || len(want.Deltas) == 0 || len(want.Zone) == 0 || len(want.Amount) == 0 || want.BackupBytes == 0 {
		t.Fatalf("fixture exercised nothing: %+v", want)
	}
	if !reflect.DeepEqual(want.Entries, want.Backup) {
		t.Errorf("unary: backup copy diverged from the primary:\n%v\n%v", want.Entries, want.Backup)
	}
	if want.Gets != 0 {
		t.Errorf("unary writes counted %d gets, want 0", want.Gets)
	}
	for _, name := range []string{"PutBatch", "ApplyBatch"} {
		g := got[name]
		wantGets := int64(0)
		if name == "ApplyBatch" {
			wantGets = int64(total)
		}
		if g.Gets != wantGets {
			t.Errorf("%s counted %d gets, want %d", name, g.Gets, wantGets)
		}
		g.Gets = want.Gets
		gv, wv := reflect.ValueOf(g), reflect.ValueOf(want)
		for i := 0; i < gv.NumField(); i++ {
			if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
				t.Errorf("%s diverged from Put/Delete one by one in %s:\n got %v\nwant %v",
					name, gv.Type().Field(i).Name, gv.Field(i), wv.Field(i))
			}
		}
	}
}

// TestBackupHopShipsDeletedKey pins the byte-accounting rule on the case
// the entry points used to disagree on: a replicated delete's backup hop
// carries the key — wire.Size(key) bytes — whichever way the delete came in.
func TestBackupHopShipsDeletedKey(t *testing.T) {
	const key = "some-key"
	wantBytes := uint64(2 + len(key)) // wire.Size of a short string: tag, length, bytes
	for name, del := range map[string]func(v NodeView){
		"Delete":   func(v NodeView) { v.Delete("m", key) },
		"PutBatch": func(v NodeView) { v.PutBatch("m", []Op{{Key: key, Delete: true}}) },
		"ApplyBatch": func(v NodeView) {
			v.ApplyBatch("m", []partition.Key{key}, func(int, partition.Key, any, bool) (any, bool) { return nil, false })
		},
	} {
		f := newKernelFixture(t, true)
		v := f.s.View(f.s.Assignment().Owner(f.s.Partitioner().Of(key)))
		v.Put("m", key, MapRow{"zone": "z1"})
		before := f.tr.Stats()
		del(v)
		after := f.tr.Stats()
		if msgs, bytes := after.Messages-before.Messages, after.Bytes-before.Bytes; msgs != 1 || bytes != wantBytes {
			t.Errorf("%s: backup hop = %d message(s), %d bytes; want 1, %d", name, msgs, bytes, wantBytes)
		}
	}
}

// TestLocalUnreplicatedWriteSendsNothing: sizes are computed only for a
// message that is sent, so a local write to an unreplicated store touches
// the transport not at all.
func TestLocalUnreplicatedWriteSendsNothing(t *testing.T) {
	f := newKernelFixture(t, false)
	for _, ops := range kernelSteps() {
		for n, part := range f.byOwner(ops) {
			f.s.View(n).PutBatch("m", part)
		}
	}
	if st := f.tr.Stats(); st != (transport.Stats{}) {
		t.Fatalf("local unreplicated writes reached the transport: %+v", st)
	}
}

// TestResetPaths drives the four wholesale-replacement entry points and
// holds each to the reset contract: every tap receives the difference the
// reset made as ordinary deltas, each naming the value it replaced, and
// postings are rebuilt from the entries now in place.
func TestResetPaths(t *testing.T) {
	all := make([]int, kernelParts)
	for p := range all {
		all[p] = p
	}
	// smuggle writes an entry behind inline maintenance's back — what a
	// promoted backup or a flipped seat looks like to the indexes.
	smuggle := func(seg *segment, key string) {
		seg.mu.Lock()
		seg.entries[key] = Entry{Key: key, Value: MapRow{"zone": "z1", "amount": int64(3)}}
		seg.mu.Unlock()
	}
	cases := []struct {
		name       string
		replicated bool
		parts      []int
		prepare    func(f *kernelFixture) // before the reset
		reset      func(f *kernelFixture)
		wantEmpty  bool   // one tombstone per entry of the touched partitions
		wantUpsert string // otherwise the one key upserted, "" for no delta at all
		wantExtra  string // a smuggled key the rebuilt postings must now find
	}{
		{name: "Clear", replicated: true, parts: all, wantEmpty: true,
			reset: func(f *kernelFixture) { f.m.Clear() }},
		{name: "ClearMap", replicated: true, parts: all, wantEmpty: true,
			reset: func(f *kernelFixture) { f.s.ClearMap("m") }},
		{name: "FailNode unreplicated", parts: []int{0, 3, 6}, wantEmpty: true,
			reset: func(f *kernelFixture) { f.s.FailNode([]int{0, 3, 6}) }},
		{name: "FailNode promotes the backup", replicated: true, parts: []int{0, 3, 6},
			wantUpsert: "smuggled", wantExtra: "smuggled",
			prepare: func(f *kernelFixture) { smuggle(f.m.backups[0], "smuggled") },
			reset:   func(f *kernelFixture) { f.s.FailNode([]int{0, 3, 6}) }},
		{name: "RebuildPartitionIndexes", replicated: true, parts: []int{0}, wantExtra: "smuggled",
			prepare: func(f *kernelFixture) { smuggle(f.m.segs[0], "smuggled") },
			reset:   func(f *kernelFixture) { f.s.RebuildPartitionIndexes(0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newKernelFixture(t, c.replicated)
			for _, ops := range kernelSteps() {
				f.s.View(0).PutBatch("m", ops)
			}
			if c.prepare != nil {
				c.prepare(f)
			}
			touched := map[int]bool{}
			for _, p := range c.parts {
				touched[p] = true
			}
			before := map[string]any{}
			for _, p := range c.parts {
				f.m.ScanPartition(p, func(e Entry) bool {
					before[partition.KeyString(e.Key)] = e.Value
					return true
				})
			}
			emitted := len(f.tap.snapshot())
			c.reset(f)

			ds := f.tap.snapshot()[emitted:]
			for _, d := range ds {
				was, had := before[d.KeyS]
				if !touched[d.Part] || d.HadOld != had || !reflect.DeepEqual(d.Old, was) {
					t.Errorf("delta %+v: want one of partitions %v, replacing %v (had %v)", d, c.parts, was, had)
				}
			}
			switch {
			case c.wantEmpty:
				if len(ds) != len(before) {
					t.Errorf("emitted %d deltas, want one tombstone per entry (%d)", len(ds), len(before))
				}
				for _, d := range ds {
					if !d.Tombstone {
						t.Errorf("emptying reset emitted an upsert %+v", d)
					}
				}
			case c.wantUpsert != "":
				if len(ds) != 1 || ds[0].KeyS != c.wantUpsert || ds[0].Tombstone || ds[0].HadOld {
					t.Errorf("emitted %+v, want exactly one first insert of %q", ds, c.wantUpsert)
				}
			default:
				if len(ds) != 0 {
					t.Errorf("contents-preserving reset emitted %+v, want nothing", ds)
				}
			}
			// Postings match the entries now in place: the index finds what
			// a filtered full scan finds, no more and no less.
			isZ1 := func(e Entry) bool { z, _ := AsRow(e.Value).Field("zone"); return z == "z1" }
			for _, p := range c.parts {
				var viaIndex, viaScan []string
				f.m.ScanPartitionIndexed(p, IndexLookup{Col: "zone", Eq: "z1"}, ScanOpts{}, func(e Entry) bool {
					if isZ1(e) {
						viaIndex = append(viaIndex, partition.KeyString(e.Key))
					}
					return true
				})
				f.m.ScanPartition(p, func(e Entry) bool {
					if isZ1(e) {
						viaScan = append(viaScan, partition.KeyString(e.Key))
					}
					return true
				})
				sort.Strings(viaIndex)
				sort.Strings(viaScan)
				if !reflect.DeepEqual(viaIndex, viaScan) {
					t.Errorf("partition %d: index finds %v, full scan %v", p, viaIndex, viaScan)
				}
				if c.wantEmpty && len(viaScan) > 0 {
					t.Errorf("partition %d still holds %v", p, viaScan)
				}
				if p == 0 && c.wantExtra != "" && !slices.Contains(viaIndex, c.wantExtra) {
					t.Errorf("partition 0: rebuilt postings miss %q: %v", c.wantExtra, viaIndex)
				}
			}
		})
	}
}

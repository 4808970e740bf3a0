package kv

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"squery/internal/partition"
)

// The index model: a naive reading of the map's entries that knows
// nothing of pairs, trees or the odd set, against which FuzzIndexModel
// checks every lookup, estimate and reference count.

// modelVal is a naive normalized value: numbers as float64 (SQL compares
// ints and floats alike), times as UnixNano.
type modelVal struct {
	kind byte
	f    float64
	i    int64
	s    string
}

func normModel(v any) (modelVal, bool) {
	if f, ok := asFloatAny(v); ok {
		return modelVal{kind: 'N', f: f}, true
	}
	switch x := v.(type) {
	case string:
		return modelVal{kind: 's', s: x}, true
	case bool:
		if x {
			return modelVal{kind: 'b', i: 1}, true
		}
		return modelVal{kind: 'b'}, true
	case time.Time:
		return modelVal{kind: 't', i: x.UnixNano()}, true
	}
	return modelVal{}, false
}

func asFloatAny(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint64:
		return float64(x), true
	case float32:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// less orders two values of one kind.
func (a modelVal) less(b modelVal) bool {
	switch a.kind {
	case 'N':
		return a.f < b.f
	case 's':
		return a.s < b.s
	}
	return a.i < b.i
}

// modelCell is what one entry holds in an indexed column: its distinct
// keyable values, and whether any part of it is unkeyable.
type modelCell struct {
	vals []modelVal
	odd  bool
}

func cellOf(value any, col string, extract ValueIndexer) modelCell {
	var raw []any
	complete := false
	if extract != nil {
		raw, complete = extract(value, col)
	} else if f, ok := AsRow(value).Field(col); ok && f != nil {
		raw, complete = []any{f}, true
	}
	c := modelCell{odd: !complete}
	seen := map[modelVal]bool{}
	for _, v := range raw {
		mv, ok := normModel(v)
		if !ok {
			c.odd = true
			continue
		}
		if !seen[mv] {
			seen[mv] = true
			c.vals = append(c.vals, mv)
		}
	}
	return c
}

// multiVals is the model's multi-valued extractor: a MapRow cell holding
// a []any lists its values (possibly repeated); anything else is
// incomplete.
func multiVals(value any, col string) ([]any, bool) {
	r, ok := value.(MapRow)
	if !ok {
		return nil, false
	}
	vs, ok := r[col].([]any)
	return vs, ok
}

// Struct rows put typed columns under the same names the MapRows use, so
// an index reads some entries in place and others by name.
type ixZone string

type ixRowA struct {
	H string
	B int64
}

type ixRowB struct {
	H ixZone // a named type: boxed as itself, never keyed
	B float32
	M uint64
}

type ixRowC struct {
	H bool
	B time.Time
}

var (
	modelT0 = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	modelT1 = modelT0.Add(time.Hour)
	// modelPalette mixes every key kind, ints and floats that coincide,
	// and values the index cannot key.
	modelPalette = []any{0, 1, 2, int64(3), 2.0, 2.5, float32(1), "a", "b", "c", true, false, modelT0, modelT1, nil, []int{1}}
)

// modelProbes are the lookups checked after every step: an equality on
// every keyable palette value for every index, and ranges for the B-trees.
func modelProbes() []IndexLookup {
	var out []IndexLookup
	for _, col := range []string{"h", "b", "m"} {
		for _, v := range modelPalette {
			if _, ok := normModel(v); ok {
				out = append(out, IndexLookup{Col: col, Eq: v})
			}
		}
	}
	for _, col := range []string{"b", "m"} {
		for _, r := range [][2]any{{1, 3}, {nil, 2.5}, {2, nil}, {"a", "b"}, {nil, "b"}, {false, true}, {true, nil}, {modelT0, modelT0}, {nil, modelT1}} {
			out = append(out, IndexLookup{Col: col, Range: true, Lo: r[0], Hi: r[1]})
		}
	}
	return out
}

// modelMatches reports whether v satisfies the lookup: same kind, within
// its inclusive bounds.
func modelMatches(lk IndexLookup, v modelVal) bool {
	lo, hi := lk.Lo, lk.Hi
	if !lk.Range {
		lo, hi = lk.Eq, lk.Eq
	}
	if b, ok := normModel(lo); ok && (v.kind != b.kind || v.less(b)) {
		return false
	}
	if b, ok := normModel(hi); ok && (v.kind != b.kind || b.less(v)) {
		return false
	}
	return true
}

// modelKind is the key kind a lookup probes.
func modelKind(lk IndexLookup) byte {
	for _, b := range []any{lk.Eq, lk.Lo, lk.Hi} {
		if v, ok := normModel(b); ok {
			return v.kind
		}
	}
	return 0
}

// modelMap is the map under test with its three indexes.
type modelMap struct {
	s     *Store
	m     *Map
	cols  map[string]ValueIndexer
	probe []IndexLookup
}

func newModelMap(t testing.TB) *modelMap {
	pt := partition.New(4)
	s := NewStore(pt, partition.Assign(pt.Count(), 1), nil)
	mm := &modelMap{s: s, m: s.GetMap("m"), cols: map[string]ValueIndexer{"h": nil, "b": nil, "m": multiVals}, probe: modelProbes()}
	for col, kind := range map[string]IndexKind{"h": IndexHash, "b": IndexBTree, "m": IndexBTree} {
		if _, err := mm.m.CreateIndex(col, kind, mm.cols[col]); err != nil {
			t.Fatal(err)
		}
	}
	return mm
}

// check compares every index against the naive reading of the entries.
func (mm *modelMap) check(t *testing.T, step int) {
	t.Helper()
	all := collectFull(mm.m, nil)
	refs := map[string]int64{}
	for _, ix := range mm.m.Indexes() {
		for p := range ix.parts {
			ip := ix.parts[p]
			for i := range ip.nums {
				checkTree(t, &ip.nums[i])
			}
			checkTree(t, &ip.strs)
		}
	}
	cells := map[string]map[string]modelCell{}
	for col, extract := range mm.cols {
		cells[col] = map[string]modelCell{}
		for ks, v := range all {
			c := cellOf(v, col, extract)
			cells[col][ks] = c
			refs[col] += int64(len(c.vals))
			if c.odd {
				refs[col]++
			}
		}
	}
	for _, lk := range mm.probe {
		want := map[string]bool{}
		var wantN int64
		homogeneous := true
		for ks, c := range cells[lk.Col] {
			if c.odd {
				homogeneous = false
				wantN++
			}
			for _, v := range c.vals {
				if v.kind != modelKind(lk) {
					homogeneous = false
					wantN++
				} else if modelMatches(lk, v) {
					want[ks] = true
					wantN++
				}
			}
		}
		got, served := collectIndexed(mm.m, lk, nil)
		if !served {
			if lk.Range && lk.Col == "h" {
				continue
			}
			t.Fatalf("step %d: %+v not served", step, lk)
		}
		for ks := range want {
			if _, ok := got[ks]; !ok {
				t.Fatalf("step %d: %+v missed entry %s (%v)", step, lk, ks, all[ks])
			}
		}
		if homogeneous && len(got) != len(want) {
			t.Fatalf("step %d: %+v over a homogeneous column returned %d entries, want %d", step, lk, len(got), len(want))
		}
		if n, _ := mm.m.EstimateLookup(lk); n != wantN {
			t.Fatalf("step %d: estimate of %+v = %d, want %d", step, lk, n, wantN)
		}
	}
	for _, info := range mm.s.IndexInfos() {
		if info.Entries != refs[info.Column] {
			t.Fatalf("step %d: index %s holds %d references, want %d", step, info.Column, info.Entries, refs[info.Column])
		}
	}
}

// run decodes data into a sequence of writes, resets and rebuilds, and
// checks the model after each.
func (mm *modelMap) run(t *testing.T, data []byte) {
	v := mm.s.View(0)
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pick := func() any { return modelPalette[next()%len(modelPalette)] }
	row := func() any {
		switch next() % 8 {
		case 0:
			return ixRowA{H: strconv.Itoa(next() % 3), B: int64(next() % 4)}
		case 1:
			return ixRowB{H: ixZone("a"), B: float32(next()%4) / 2, M: uint64(next() % 4)}
		case 2:
			return ixRowC{H: next()%2 == 0, B: modelT0.Add(time.Duration(next()%2) * time.Hour)}
		case 3:
			return MapRow{"b": pick()} // h and m missing
		}
		r := MapRow{"h": pick(), "b": pick()}
		if n := next() % 4; n > 0 {
			vs := make([]any, n)
			for i := range vs {
				vs[i] = pick()
			}
			r["m"] = vs
		} else {
			r["m"] = pick()
		}
		return r
	}
	for step := 0; len(data) > 0 && step < 200; step++ {
		op, key := next()%32, next()%24
		switch {
		case op < 20:
			v.Put("m", key, row())
		case op < 26:
			v.Delete("m", key)
		case op < 29:
			ops := make([]Op, 1+next()%6)
			for i := range ops {
				ops[i] = Op{Key: next() % 24, Delete: next()%4 == 0}
				if !ops[i].Delete {
					ops[i].Value = row()
				}
			}
			v.PutBatch("m", ops)
		case op < 30:
			mm.m.Clear()
		default:
			mm.s.RebuildPartitionIndexes(key % mm.s.part.Count())
		}
		mm.check(t, step)
	}
}

// FuzzIndexModel drives random puts, overwrites, deletes, batches, Clear
// and RebuildPartitionIndexes into one map with a hash index, a B-tree
// index and a B-tree over a multi-valued extractor, over values of every
// key kind, and after each step checks each lookup for a superset of the
// naive filter (exactly it on a homogeneous column), each estimate for
// the naive candidate count, each index's reference count, and every
// pair tree's structure.
func FuzzIndexModel(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		newModelMap(t).run(t, data)
	})
}

// TestIndexModelLargePartitions runs the model over enough keys that each
// partition's sets grow past one leaf, so splits, merges and the leaf
// chain are under the model too.
func TestIndexModelLargePartitions(t *testing.T) {
	mm := newModelMap(t)
	v := mm.s.View(0)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 4; round++ {
		for i := 0; i < 1500; i++ {
			k := rng.Intn(1200)
			switch rng.Intn(10) {
			case 0:
				v.Delete("m", k)
			case 1:
				v.Put("m", k, ixRowA{H: strconv.Itoa(rng.Intn(40)), B: rng.Int63n(100)})
			default:
				v.Put("m", k, MapRow{"h": strconv.Itoa(rng.Intn(40)), "b": rng.Intn(100), "m": []any{rng.Intn(50), rng.Intn(50)}})
			}
		}
		mm.check(t, round)
	}
	if n := len(collectFull(mm.m, nil)); n < 4*leafMax {
		t.Fatalf("only %d entries: partitions stay within one leaf", n)
	}
}

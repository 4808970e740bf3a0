package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"squery/internal/kv"
	"squery/internal/partition"
	"squery/internal/snapshot"
)

// keyRuns returns a partition's run set holding the versions of one key,
// each written as its own run in the order given — as successive drains
// write them.
func keyRuns(vs ...Versioned) *runSet {
	var rs *runSet
	for _, v := range vs {
		rs = rs.with(oneRun("k", v))
	}
	return rs
}

// oneRun returns a run holding one version of key.
func oneRun(key partition.Key, v Versioned) *run {
	ks := partition.KeyString(key)
	return newRun([]runRow{{hash: hashKey(ks), key: key, ks: ks, ssid: v.SSID, tomb: v.Tombstone, val: v.Value}}, nil)
}

// rows returns the number of stored versions.
func (s *runSet) rows() int {
	n := 0
	if s != nil {
		for _, r := range s.runs {
			n += r.len()
		}
	}
	return n
}

// at reads key "k" of rs as of ssid n.
func at(rs *runSet, n int64) (Versioned, bool) {
	r, i, ok := rs.get("k", n)
	if !ok {
		return Versioned{}, false
	}
	return r.version(i), true
}

// pruned merges every run of rs as the bottom of its partition against
// floor.
func pruned(rs *runSet, floor int64) *runSet {
	merged, dropped := mergeRuns(rs.runs, nil, floor, true, nil)
	next, _ := rs.replaced(0, rs.runs, merged, dropped)
	return next
}

func TestChainNilSafe(t *testing.T) {
	var rs *runSet
	if rs.Keys() != 0 || rs.rows() != 0 {
		t.Fatal("empty run set holds keys")
	}
	if _, ok := at(rs, 5); ok {
		t.Fatal("empty run set resolved a key")
	}
	if rs.versions("k") != nil {
		t.Fatal("empty run set listed versions")
	}
	if _, _, ok := rs.plan(1, 1); ok {
		t.Fatal("empty run set planned a merge")
	}
	if rs2 := rs.with(oneRun("k", Versioned{SSID: 1, Value: "a"})); rs2.Keys() != 1 || len(rs2.versions("k")) != 1 {
		t.Fatal("appending to an empty run set failed")
	}
}

func TestChainAtResolvesLatestLE(t *testing.T) {
	rs := keyRuns(
		Versioned{SSID: 2, Value: "v2"},
		Versioned{SSID: 5, Value: "v5"},
		Versioned{SSID: 9, Value: "v9"},
	)
	cases := []struct {
		target int64
		want   string
		ok     bool
	}{
		{1, "", false},
		{2, "v2", true},
		{3, "v2", true},
		{5, "v5", true},
		{8, "v5", true},
		{9, "v9", true},
		{100, "v9", true},
	}
	for _, tc := range cases {
		v, ok := at(rs, tc.target)
		if ok != tc.ok || (ok && v.Value != tc.want) {
			t.Errorf("at(%d) = %v, %v; want %q, %v", tc.target, v.Value, ok, tc.want, tc.ok)
		}
	}
}

func TestChainTombstoneHidesKey(t *testing.T) {
	rs := keyRuns(
		Versioned{SSID: 1, Value: "alive"},
		Versioned{SSID: 3, Tombstone: true},
		Versioned{SSID: 5, Value: "back"},
	)
	if _, ok := at(rs, 1); !ok {
		t.Error("at(1) should see the key")
	}
	if _, ok := at(rs, 3); ok {
		t.Error("at(3) should hide the deleted key")
	}
	if _, ok := at(rs, 4); ok {
		t.Error("at(4) should still hide the key")
	}
	if v, ok := at(rs, 5); !ok || v.Value != "back" {
		t.Error("at(5) should see the re-created key")
	}
}

func TestChainWithImmutable(t *testing.T) {
	rs1 := keyRuns(Versioned{SSID: 1, Value: "a"})
	rs2 := rs1.with(oneRun("k", Versioned{SSID: 2, Value: "b"}))
	if len(rs1.versions("k")) != 1 || len(rs2.versions("k")) != 2 {
		t.Fatalf("lens = %d, %d", len(rs1.versions("k")), len(rs2.versions("k")))
	}
	if v, _ := at(rs1, 10); v.Value != "a" {
		t.Error("original run set changed by with")
	}
}

func TestChainWithSameSSIDReplaces(t *testing.T) {
	rs := keyRuns(Versioned{SSID: 1, Value: "a"}, Versioned{SSID: 1, Value: "b"})
	if n := len(rs.versions("k")); n != 1 {
		t.Fatalf("versions = %d, want 1", n)
	}
	if v, _ := at(rs, 1); v.Value != "b" {
		t.Errorf("at(1) = %v, want b", v.Value)
	}
	// A merge keeps the newer run's version too.
	if v, _ := at(pruned(rs, 0), 1); v.Value != "b" {
		t.Errorf("merged at(1) = %v, want b", v.Value)
	}
}

func TestChainWithOutOfOrder(t *testing.T) {
	rs := keyRuns(Versioned{SSID: 5, Value: "v5"}, Versioned{SSID: 3, Value: "v3"})
	if v, _ := at(rs, 4); v.Value != "v3" {
		t.Errorf("at(4) = %v, want v3", v.Value)
	}
	if v, _ := at(rs, 5); v.Value != "v5" {
		t.Errorf("at(5) = %v, want v5", v.Value)
	}
}

func TestChainPrune(t *testing.T) {
	rs := keyRuns(
		Versioned{SSID: 1, Value: "v1"},
		Versioned{SSID: 2, Value: "v2"},
		Versioned{SSID: 4, Value: "v4"},
		Versioned{SSID: 6, Value: "v6"},
	)
	reg := snapshot.NewRegistry(2)
	commit := func() int64 {
		t.Helper()
		id, err := reg.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Commit(id); err != nil {
			t.Fatal(err)
		}
		return id
	}
	for commit() < 3 {
	}
	if !reg.Hold(3) {
		t.Fatal("could not hold 3")
	}
	commit()
	commit() // 3 retires; 4 is the oldest retained id
	if reg.OldestRetained() != 4 || reg.Floor() != 3 {
		t.Fatalf("oldest retained %d, floor %d; want 4, 3", reg.OldestRetained(), reg.Floor())
	}

	// Leased: a read at 3 may still run, so v2 stays as the base it falls
	// back to, and v1 is dropped.
	p := pruned(rs, reg.Floor())
	if n := len(p.versions("k")); n != 3 {
		t.Fatalf("pruned versions = %d, want 3", n)
	}
	if _, ok := at(p, 1); ok {
		t.Error("pruned run set still answers below base")
	}
	if v, ok := at(p, 3); !ok || v.Value != "v2" {
		t.Errorf("at(3) after prune = %v, %v; want v2", v.Value, ok)
	}
	if v, ok := at(p, 6); !ok || v.Value != "v6" {
		t.Errorf("at(6) after prune = %v, %v", v.Value, ok)
	}

	// Unleased: the floor is the oldest retained id, 4, where v4 shadows
	// v2 for every read, so v2 goes too.
	reg.Release(3)
	p = pruned(rs, reg.Floor())
	if got := p.versions("k"); len(got) != 2 || got[0].Value != "v4" || got[1].Value != "v6" {
		t.Fatalf("pruned versions = %+v, want v4 and v6", got)
	}
	if _, ok := at(p, 3); ok {
		t.Error("at(3) answers after its lease was released and v2 pruned")
	}
	if v, ok := at(p, 4); !ok || v.Value != "v4" {
		t.Errorf("at(4) after prune = %v, %v; want v4", v.Value, ok)
	}
}

func TestChainPruneNoOpReturnsSame(t *testing.T) {
	rs := keyRuns(Versioned{SSID: 5, Value: "x"})
	if _, _, ok := rs.plan(3, 3); ok {
		t.Error("a run that loses nothing at oldest 3 planned a merge")
	}
	if _, _, ok := rs.plan(9, 9); ok {
		t.Error("a single live version planned a merge")
	}
}

func TestChainPruneTombstoneBaseDropped(t *testing.T) {
	rs := keyRuns(
		Versioned{SSID: 1, Value: "v1"},
		Versioned{SSID: 2, Tombstone: true},
	)
	if got := pruned(rs, 5); got.Keys() != 0 || len(got.runs) != 0 {
		t.Errorf("key ending in a pre-oldest tombstone should prune away, got %d versions", got.rows())
	}
	// Tombstone base followed by a retained live version: only the
	// tombstone and its predecessors go.
	rs = keyRuns(
		Versioned{SSID: 1, Value: "v1"},
		Versioned{SSID: 2, Tombstone: true},
		Versioned{SSID: 7, Value: "v7"},
	)
	p := pruned(rs, 5)
	if n := len(p.versions("k")); n != 1 {
		t.Fatalf("versions = %d, want 1", n)
	}
	if _, ok := at(p, 5); ok {
		t.Error("key should be absent at 5 (deleted before oldest)")
	}
	if v, ok := at(p, 7); !ok || v.Value != "v7" {
		t.Error("retained version lost by prune")
	}
}

// Property: for any random version set spread over runs, and any target ≥
// the floor, no merge changes the result of a read: a bottom merge of every
// run, a merge of the newer half above the rest, or a merge of the older
// half under the rest, whose newer runs may hold older ids.
func TestChainPrunePreservesReads(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var vs []Versioned
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			vs = append(vs, Versioned{
				SSID:      int64(1 + rng.Intn(20)),
				Value:     rng.Intn(100),
				Tombstone: rng.Intn(5) == 0,
			})
		}
		rs := keyRuns(vs...)
		floor := int64(1 + rng.Intn(20))
		half := len(rs.runs) / 2
		merged, dropped := mergeRuns(rs.runs[half:], nil, floor, half == 0, nil)
		upper, _ := rs.replaced(half, rs.runs[half:], merged, dropped)
		merged, dropped = mergeRuns(rs.runs[:half], rs.runs[half:], floor, true, nil)
		lower, _ := rs.replaced(0, rs.runs[:half], merged, dropped)
		for _, p := range []*runSet{pruned(rs, floor), upper, lower} {
			if (p.rows() > 0) != (p.Keys() == 1) {
				return false // the set miscounts its one key
			}
			for target := floor; target <= 21; target++ {
				v1, ok1 := at(rs, target)
				v2, ok2 := at(p, target)
				if ok1 != ok2 || (ok1 && v1.Value != v2.Value) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: versions are always listed ascending whatever order the runs
// were written in.
func TestChainAlwaysSorted(t *testing.T) {
	f := func(ssids []uint8) bool {
		var vs []Versioned
		for _, s := range ssids {
			vs = append(vs, Versioned{SSID: int64(s), Value: int(s)})
		}
		got := keyRuns(vs...).versions("k")
		for i := 1; i < len(got); i++ {
			if got[i].SSID <= got[i-1].SSID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestChainValueIndexer pins a run's index contract: every version that is
// not a tombstone is listed under its value, and a version missing the
// column is a candidate of every probe.
func TestChainValueIndexer(t *testing.T) {
	store := newTestStore()
	m := store.GetMap("snapshot_op")
	if _, err := m.CreateIndex("zone", IndexHash, nil); err != nil {
		t.Fatal(err)
	}
	var rows []runRow
	for _, v := range []Versioned{
		{SSID: 1, Value: map[string]any{"zone": "a"}},
		{SSID: 2, Value: map[string]any{"zone": "b"}},
		{SSID: 3, Tombstone: true},
	} {
		rows = append(rows, runRow{hash: 7, key: "k", ks: "k", ssid: v.SSID, tomb: v.Tombstone, val: v.Value})
	}
	r := newRun(rows, m.Indexes())
	fi := r.index("zone")
	for zone, want := range map[string]int32{"a": 0, "b": 1} {
		got, ok := fi.Gather(kv.IndexLookup{Col: "zone", Eq: zone}, nil)
		if !ok || len(got) != 1 || got[0] != want {
			t.Fatalf("Gather(%s) = %v, %v; want [%d]", zone, got, ok, want)
		}
	}
	// A version missing the column is listed for every probe.
	r2 := newRun([]runRow{
		{hash: 7, key: "k", ks: "k", ssid: 1, val: map[string]any{"zone": "a"}},
		{hash: 7, key: "k", ks: "k", ssid: 2, val: map[string]any{"other": 1}},
	}, m.Indexes())
	if got, _ := r2.index("zone").Gather(kv.IndexLookup{Col: "zone", Eq: "z"}, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("odd version not listed: %v", got)
	}
	// A range probe is declined by a hash index.
	if _, ok := fi.Gather(kv.IndexLookup{Col: "zone", Range: true, Lo: "a"}, nil); ok {
		t.Fatal("hash index served a range probe")
	}
}

// keysRun returns one run holding, for each of n keys, a version at every
// id of ids.
func keysRun(n int, ids ...int64) *run {
	var rows []runRow
	for i := 0; i < n; i++ {
		ks := fmt.Sprintf("k%d", i)
		for _, id := range ids {
			rows = append(rows, runRow{hash: hashKey(ks), key: ks, ks: ks, ssid: id, val: id})
		}
	}
	slices.SortStableFunc(rows, func(a, b runRow) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return strings.Compare(a.ks, b.ks)
	})
	return newRun(rows, nil)
}

// TestPlanEvictsBottomUnderNewerRuns: the bottom run sheds its evicted
// versions even when a newer run sits above it that the geometric rule
// leaves alone — but only once enough of its rows are spare to pay for
// the rewrite. Rows a newer run's version at exactly the floor shadows
// count as spare.
func TestPlanEvictsBottomUnderNewerRuns(t *testing.T) {
	// Eight keys at ids 1 and 2 (8 of 16 rows spare), under a run too
	// small for the geometric rule to merge into it.
	rs := (*runSet)(nil).with(keysRun(8, 1, 2)).with(keysRun(2, 3))
	if _, _, ok := rs.plan(1, math.MaxInt64); ok {
		t.Fatal("planned a merge before any version left the window")
	}
	// At floor 2 each key's version at 2 shadows its version at 1.
	at, ws, ok := rs.plan(2, math.MaxInt64)
	if !ok || at != 0 || len(ws) != 1 || ws[0] != rs.runs[0] {
		t.Fatalf("plan(2) = %d, %d runs, %v; want the bottom run alone", at, len(ws), ok)
	}
	merged, dropped := mergeRuns(ws, rs.runs[1:], 2, true, nil)
	if merged.len() != 8 || len(dropped) != 0 {
		t.Fatalf("bottom merged at 2 holds %d rows (dropped %d keys); want 8, 0", merged.len(), len(dropped))
	}

	// One spare row of nine: a merge at 3 would drop it, but the rewrite
	// waits for the next geometric merge.
	few, _ := mergeRuns([]*run{keysRun(8, 1), keysRun(1, 2)}, nil, 0, true, nil)
	rs = (*runSet)(nil).with(few).with(keysRun(2, 4))
	if few.spare != 1 || few.dropAt != 2 {
		t.Fatalf("spare %d, dropAt %d; want 1, 2", few.spare, few.dropAt)
	}
	if _, _, ok := rs.plan(3, math.MaxInt64); ok {
		t.Fatal("rewrote a bottom run to drop one row of nine")
	}

	// The same bottom run under two keys' versions at exactly the floor:
	// their rows are shadowed too, three of nine rows are spare, and the
	// merge drops the two keys from the bottom run.
	rs = (*runSet)(nil).with(few).with(keysRun(2, 3))
	if got := rs.shadowed(3); got != 2 {
		t.Fatalf("shadowed(3) = %d, want 2", got)
	}
	at, ws, ok = rs.plan(3, math.MaxInt64)
	if !ok || at != 0 || len(ws) != 1 || ws[0] != few {
		t.Fatalf("plan(3) = %d, %d runs, %v; want the bottom run alone", at, len(ws), ok)
	}
	merged, dropped = mergeRuns(ws, rs.runs[1:], 3, true, nil)
	next, _ := rs.replaced(0, ws, merged, dropped)
	if merged.len() != 6 || len(dropped) != 2 || next.Keys() != 8 {
		t.Fatalf("bottom merged at 3 holds %d rows, dropped %d keys, set keys %d; want 6, 2, 8", merged.len(), len(dropped), next.Keys())
	}
	for i := 0; i < 8; i++ {
		ks := fmt.Sprintf("k%d", i)
		want := int64(1)
		if i < 2 {
			want = 3
		}
		if r, j, ok := next.get(ks, 3); !ok || r.vals[j] != want {
			t.Fatalf("%s at 3 after the merge = %v, %v; want %d", ks, r, ok, want)
		}
	}
}

// TestRunWideSpan: a run whose ids span more than a row's offset can hold
// keeps them whole and reads like any other.
func TestRunWideSpan(t *testing.T) {
	const far = int64(1) << 40
	rs := keyRuns(
		Versioned{SSID: 1, Value: "v1"},
		Versioned{SSID: far, Tombstone: true},
		Versioned{SSID: far + 1, Value: "v2"},
	)
	if rs.runs[0].wide != nil {
		t.Fatal("a one-version run keeps wide ids")
	}
	merged, _ := mergeRuns(rs.runs, nil, 0, true, nil)
	if merged.wide == nil {
		t.Fatal("a run spanning 2^40 ids has no wide ids")
	}
	wide := (*runSet)(nil).with(merged)
	for _, c := range []struct {
		n    int64
		want any
	}{{1, "v1"}, {far - 1, "v1"}, {far, nil}, {far + 1, "v2"}, {math.MaxInt64, "v2"}} {
		v, ok := at(wide, c.n)
		if c.want == nil && ok || c.want != nil && (!ok || v.Value != c.want) {
			t.Errorf("at(%d) = %v, %v; want %v", c.n, v.Value, ok, c.want)
		}
	}
	if got := wide.versions("k"); len(got) != 3 || got[1].SSID != far || !got[1].Tombstone {
		t.Errorf("versions = %+v", got)
	}
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"squery/internal/kv"
	"squery/internal/partition"
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
// oldest.
func pruned(rs *runSet, oldest int64) *runSet {
	merged, dropped := mergeRuns(rs.runs, oldest, true, nil)
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
	p := pruned(rs, 4)
	// v2 becomes the base (newest < 4), v1 is dropped.
	if n := len(p.versions("k")); n != 3 {
		t.Fatalf("pruned versions = %d, want 3", n)
	}
	if _, ok := at(p, 1); ok {
		t.Error("pruned run set still answers below base")
	}
	// At the oldest retained id, the base must still answer for keys
	// unchanged since before it.
	if v, ok := at(p, 3); !ok || v.Value != "v2" {
		t.Errorf("at(3) after prune = %v, %v; want v2", v.Value, ok)
	}
	if v, ok := at(p, 6); !ok || v.Value != "v6" {
		t.Errorf("at(6) after prune = %v, %v", v.Value, ok)
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
// oldest retained, neither a bottom merge of every run nor a merge of the
// newer half above the rest changes the result of a read.
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
		oldest := int64(1 + rng.Intn(20))
		half := len(rs.runs) / 2
		merged, dropped := mergeRuns(rs.runs[half:], oldest, half == 0, nil)
		upper, _ := rs.replaced(half, rs.runs[half:], merged, dropped)
		for _, p := range []*runSet{pruned(rs, oldest), upper} {
			for target := oldest; target <= 21; target++ {
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

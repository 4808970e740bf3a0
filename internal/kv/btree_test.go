package kv

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// checkTree verifies a pair tree's invariants and returns its pairs in
// leaf-chain order: every leaf holds leafMin..leafMax pairs (1..leafMax
// when it is the only one), every inner node below the root
// innerMin..innerMax children, all leaves sit at the same depth, every
// separator bounds its children, the chain visits the leaves in tree
// order, the walk is strictly sorted, and the counts match.
func checkTree[V ixVal](t *testing.T, tr *pairTree[V]) []pair[V] {
	t.Helper()
	if tr.root == nil {
		if tr.n != 0 || tr.height != 0 || tr.leaves != 0 || tr.inners != 0 {
			t.Fatalf("empty tree with n=%d height=%d leaves=%d inners=%d", tr.n, tr.height, tr.leaves, tr.inners)
		}
		return nil
	}
	var order []*leaf[V]
	inners := 0
	var walk func(in *inner[V], h int, lo, hi *pair[V])
	walk = func(in *inner[V], h int, lo, hi *pair[V]) {
		inners++
		if (len(in.kids) == 0) == (len(in.leaves) == 0) || (h == 1) != (len(in.leaves) > 0) {
			t.Fatalf("inner node at height %d has %d inner and %d leaf children", h, len(in.kids), len(in.leaves))
		}
		if n := in.size(); n > innerMax || in != tr.root && n < innerMin || in == tr.root && h > 1 && n < 2 {
			t.Fatalf("inner node at height %d has %d children, bounds [%d, %d]", h, n, innerMin, innerMax)
		}
		if len(in.seps) != in.size()-1 {
			t.Fatalf("inner node has %d separators for %d children", len(in.seps), in.size())
		}
		for c := 0; c < in.size(); c++ {
			clo, chi := lo, hi
			if c > 0 {
				clo = &in.seps[c-1]
			}
			if c < len(in.seps) {
				chi = &in.seps[c]
			}
			if h > 1 {
				walk(in.kids[c], h-1, clo, chi)
				continue
			}
			l := in.leaves[c]
			if l.n < 1 || l.n > leafMax || tr.leaves > 1 && l.n < leafMin {
				t.Fatalf("leaf holds %d pairs, bounds [%d, %d] (tree of %d leaves)", l.n, leafMin, leafMax, tr.leaves)
			}
			for _, p := range l.pairs[:l.n] {
				if clo != nil && p.less(*clo) || chi != nil && !p.less(*chi) {
					t.Fatalf("pair %v lies outside its separators", p)
				}
			}
			for _, p := range l.pairs[l.n:] {
				if p != (pair[V]{}) {
					t.Fatalf("leaf keeps a stale pair %v past its end", p)
				}
			}
			order = append(order, l)
		}
	}
	walk(tr.root, tr.height, nil, nil)
	if len(order) != tr.leaves || inners != tr.inners {
		t.Fatalf("tree counts %d leaves and %d inner nodes, holds %d and %d", tr.leaves, tr.inners, len(order), inners)
	}
	var out []pair[V]
	l, _ := tr.seek(pair[V]{})
	for i, want := range order {
		if l != want {
			t.Fatalf("leaf chain diverges from tree order at leaf %d", i)
		}
		out = append(out, l.pairs[:l.n]...)
		l = l.next
	}
	if l != nil {
		t.Fatal("leaf chain runs past the last leaf")
	}
	for i := 1; i < len(out); i++ {
		if !out[i-1].less(out[i]) {
			t.Fatalf("walk out of order at %d: %v then %v", i, out[i-1], out[i])
		}
	}
	if len(out) != tr.n {
		t.Fatalf("tree counts %d pairs, holds %d", tr.n, len(out))
	}
	return out
}

// TestPairTreeStructure: after 100 000 inserts and 90 000 deletes in one
// set, every node is within its size bounds, no leaf is empty, and an
// in-order walk is sorted and holds exactly the surviving pairs. A second
// set moves each key to a fresh maximum, as a sequence column does, and
// then drains to empty; a third grows in order to three inner levels and
// drains in random order.
func TestPairTreeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tr pairTree[uint64]
	live := map[pair[uint64]]bool{}
	for _, v := range rng.Perm(100_000) {
		p := pair[uint64]{v: uint64(v % 5000), ks: fmt.Sprint(v)}
		if !tr.insert(p) {
			t.Fatalf("insert of new pair %v reported present", p)
		}
		live[p] = true
	}
	if tr.insert(pair[uint64]{v: 0, ks: "0"}) {
		t.Fatal("insert of a present pair reported new")
	}
	if tr.height < 2 {
		t.Fatalf("100 000 pairs built a tree of height %d; the test wants inner splits", tr.height)
	}
	checkTree(t, &tr)
	for i, v := range rng.Perm(100_000)[:90_000] {
		p := pair[uint64]{v: uint64(v % 5000), ks: fmt.Sprint(v)}
		if !tr.delete(p) {
			t.Fatalf("delete of present pair %v reported absent", p)
		}
		delete(live, p)
		if i%10_000 == 0 {
			checkTree(t, &tr)
		}
	}
	if tr.delete(pair[uint64]{v: 1 << 40}) {
		t.Fatal("delete of an absent pair reported present")
	}
	got := checkTree(t, &tr)
	want := make([]pair[uint64], 0, len(live))
	for p := range live {
		want = append(want, p)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
	if len(got) != len(want) {
		t.Fatalf("walk holds %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	var seq pairTree[string]
	at := map[int]string{}
	next := 0
	val := func() string { next++; return fmt.Sprintf("%09d", next) }
	for k := 0; k < 5000; k++ {
		at[k] = val()
		seq.insert(pair[string]{v: at[k], ks: fmt.Sprint(k)})
	}
	for i := 0; i < 50_000; i++ {
		k := rng.Intn(5000)
		nv := val()
		seq.insert(pair[string]{v: nv, ks: fmt.Sprint(k)})
		if !seq.delete(pair[string]{v: at[k], ks: fmt.Sprint(k)}) {
			t.Fatalf("moving key %d: old pair absent", k)
		}
		at[k] = nv
	}
	if got := checkTree(t, &seq); len(got) != 5000 {
		t.Fatalf("moved set holds %d pairs, want 5000", len(got))
	}
	for k := 0; k < 5000; k++ {
		seq.delete(pair[string]{v: at[k], ks: fmt.Sprint(k)})
	}
	checkTree(t, &seq)
	if seq.root != nil {
		t.Fatal("drained set kept its nodes")
	}

	var deep pairTree[uint64]
	const deepN = 270_000
	for v := 0; v < deepN; v++ {
		deep.insert(pair[uint64]{v: uint64(v)})
	}
	if deep.height < 3 {
		t.Fatalf("%d ordered inserts built a tree of height %d, want 3", deepN, deep.height)
	}
	checkTree(t, &deep)
	for i, v := range rng.Perm(deepN) {
		deep.delete(pair[uint64]{v: uint64(v)})
		if i%50_000 == 0 {
			checkTree(t, &deep)
		}
	}
	checkTree(t, &deep)
}

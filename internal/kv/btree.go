package kv

import (
	"slices"
	"unsafe"
)

// An in-memory B+tree over (value, entry key) pairs of one index key kind:
// the ordered set one index partition keeps per kind ('N', 'b' and 't'
// as uint64 images, 's' as strings). Both index kinds store their
// references this way. Pairs are ordered by value, then by entry key, and
// the set holds each pair at most once.
//
// Leaves are fixed arrays of pairs chained left to right, so an equality
// or range probe seeks once and then reads contiguous pairs. Inner nodes
// hold separators and children. Insert and delete cost O(log n) plus
// O(leafMax) shifts: a full leaf first shares its pairs with a neighbour
// that has room, a full node splits in two, a node that falls under half
// full merges with a sibling or takes pairs from it, and an emptied tree
// drops its nodes. Nothing is rebuilt wholesale.

// A leaf of 63 pairs fills a 1536-byte (numeric) or 2048-byte (string)
// allocation size class exactly.
const (
	leafMax  = 63
	leafMin  = leafMax / 2
	innerMax = 64
	innerMin = innerMax / 2
)

// ixVal is the value half of a pair: the uint64 image of a numeric, bool
// or time key, or a string.
type ixVal interface{ uint64 | string }

// pair is one (value, entry key) reference.
type pair[V ixVal] struct {
	v  V
	ks string
}

func (a pair[V]) less(b pair[V]) bool {
	return a.v < b.v || a.v == b.v && a.ks < b.ks
}

// leaf holds leafMin..leafMax pairs in order (fewer only when it is the
// tree's one leaf) and links to the next leaf.
type leaf[V ixVal] struct {
	n     int
	next  *leaf[V]
	pairs [leafMax]pair[V]
}

// inner is an interior node. Children are leaves when the node sits one
// level above them, inner nodes otherwise; exactly one of kids and leaves
// is used. seps[i] separates child i from child i+1: every pair under
// child i is less than seps[i], and no pair under child i+1 is.
type inner[V ixVal] struct {
	seps   []pair[V]
	kids   []*inner[V]
	leaves []*leaf[V]
}

func (in *inner[V]) size() int { return len(in.kids) + len(in.leaves) }

// child returns the index of the child whose subtree holds p's position.
func (in *inner[V]) child(p pair[V]) int {
	lo, hi := 0, len(in.seps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.less(in.seps[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// search returns the smallest i with pairs[i] >= p, and whether it is p.
func (l *leaf[V]) search(p pair[V]) (int, bool) {
	lo, hi := 0, l.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.pairs[mid].less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < l.n && l.pairs[lo] == p
}

// pairTree is the ordered pair set of one kind in one index partition. Its
// zero value is an empty tree.
type pairTree[V ixVal] struct {
	root   *inner[V] // nil when empty; its children are leaves at height 1
	height int
	n      int // pairs
	leaves int
	inners int
}

// bytes is the tree's footprint: its leaves, and per inner node the node
// plus one separator and one child pointer per child.
func (t *pairTree[V]) bytes() int64 {
	var l leaf[V]
	var in inner[V]
	var p pair[V]
	return int64(t.leaves)*int64(unsafe.Sizeof(l)) +
		int64(t.inners)*int64(unsafe.Sizeof(in)) +
		int64(t.leaves+t.inners)*int64(unsafe.Sizeof(p)+8)
}

// seek returns the leaf and position of the first pair >= p; the position
// may be the leaf's end, and the leaf is nil when the tree is empty. The
// zero pair is the least, so seeking it finds the first leaf.
func (t *pairTree[V]) seek(p pair[V]) (*leaf[V], int) {
	if t.root == nil {
		return nil, 0
	}
	in := t.root
	for h := t.height; h > 1; h-- {
		in = in.kids[in.child(p)]
	}
	l := in.leaves[in.child(p)]
	i, _ := l.search(p)
	return l, i
}

// insert adds p; it reports false when p was already present.
func (t *pairTree[V]) insert(p pair[V]) bool {
	if t.root == nil {
		l := &leaf[V]{n: 1}
		l.pairs[0] = p
		t.root = &inner[V]{leaves: []*leaf[V]{l}}
		t.height, t.leaves, t.inners = 1, 1, 1
		t.n = 1
		return true
	}
	added, sep, right := t.insertIn(t.root, t.height, p)
	if right != nil {
		t.root = &inner[V]{seps: []pair[V]{sep}, kids: []*inner[V]{t.root, right}}
		t.height++
		t.inners++
	}
	if added {
		t.n++
	}
	return added
}

// insertIn inserts p below in, which sits at height h. When in overflows
// it splits, and the new right sibling and its separator are returned.
func (t *pairTree[V]) insertIn(in *inner[V], h int, p pair[V]) (added bool, sep pair[V], right *inner[V]) {
	i := in.child(p)
	if h == 1 {
		l := in.leaves[i]
		j, found := l.search(p)
		if found {
			return false, sep, nil
		}
		if l.n == leafMax {
			// Share a full leaf with a neighbour that has room before
			// splitting it: leaves stay fuller than half.
			if i > 0 && in.leaves[i-1].n < leafMax-1 {
				even(in, i-1)
			} else if i+1 < len(in.leaves) && in.leaves[i+1].n < leafMax-1 {
				even(in, i)
			}
			i = in.child(p)
			l = in.leaves[i]
			j, _ = l.search(p)
		}
		nl := t.leafInsert(l, j, p)
		if nl == nil {
			return true, sep, nil
		}
		in.seps = slices.Insert(in.seps, i, nl.pairs[0])
		in.leaves = slices.Insert(in.leaves, i+1, nl)
	} else {
		var ksep pair[V]
		var kr *inner[V]
		added, ksep, kr = t.insertIn(in.kids[i], h-1, p)
		if kr == nil {
			return added, sep, nil
		}
		in.seps = slices.Insert(in.seps, i, ksep)
		in.kids = slices.Insert(in.kids, i+1, kr)
	}
	if in.size() <= innerMax {
		return true, sep, nil
	}
	// Split: the left half keeps innerMin children, the separator
	// between the halves moves up.
	seps := cut(&in.seps, innerMin-1)
	t.inners++
	return true, seps[0], &inner[V]{seps: seps[1:], kids: cut(&in.kids, innerMin), leaves: cut(&in.leaves, innerMin)}
}

// leafInsert puts p at position j of l. A full leaf splits in two halves
// and the new right leaf is returned.
func (t *pairTree[V]) leafInsert(l *leaf[V], j int, p pair[V]) *leaf[V] {
	if l.n < leafMax {
		copy(l.pairs[j+1:l.n+1], l.pairs[j:l.n])
		l.pairs[j] = p
		l.n++
		return nil
	}
	nl := &leaf[V]{next: l.next}
	l.next = nl
	t.leaves++
	const half = leafMax / 2
	nl.n = copy(nl.pairs[:], l.pairs[half:])
	clear(l.pairs[half:])
	l.n = half
	if j <= half {
		t.leafInsert(l, j, p)
	} else {
		t.leafInsert(nl, j-half, p)
	}
	return nl
}

// delete removes p; it reports false when p was absent.
func (t *pairTree[V]) delete(p pair[V]) bool {
	if t.root == nil || !t.deleteIn(t.root, t.height, p) {
		return false
	}
	t.n--
	if t.n == 0 {
		*t = pairTree[V]{}
		return true
	}
	for t.height > 1 && len(t.root.kids) == 1 {
		t.root = t.root.kids[0]
		t.height--
		t.inners--
	}
	return true
}

// deleteIn removes p below in, at height h, and rebalances the child it
// left under half full.
func (t *pairTree[V]) deleteIn(in *inner[V], h int, p pair[V]) bool {
	i := in.child(p)
	if h == 1 {
		l := in.leaves[i]
		j, found := l.search(p)
		if !found {
			return false
		}
		copy(l.pairs[j:l.n-1], l.pairs[j+1:l.n])
		l.n--
		l.pairs[l.n] = pair[V]{}
		if l.n < leafMin && len(in.leaves) > 1 {
			t.fixLeaf(in, max(i-1, 0))
		}
		return true
	}
	kid := in.kids[i]
	if !t.deleteIn(kid, h-1, p) {
		return false
	}
	if kid.size() < innerMin && len(in.kids) > 1 {
		t.fixInner(in, max(i-1, 0))
	}
	return true
}

// fixLeaf rebalances the adjacent leaves k and k+1 of in, one of which is
// under half full: merged into one when they fit, else evened out.
func (t *pairTree[V]) fixLeaf(in *inner[V], k int) {
	a, b := in.leaves[k], in.leaves[k+1]
	total := a.n + b.n
	if total <= leafMax {
		copy(a.pairs[a.n:], b.pairs[:b.n])
		a.n = total
		a.next = b.next
		in.seps = slices.Delete(in.seps, k, k+1)
		in.leaves = slices.Delete(in.leaves, k+1, k+2)
		t.leaves--
		return
	}
	even(in, k)
}

// even spreads the pairs of the adjacent leaves k and k+1 of in evenly
// over the two.
func even[V ixVal](in *inner[V], k int) {
	a, b := in.leaves[k], in.leaves[k+1]
	total := a.n + b.n
	want := total / 2
	if a.n < want {
		m := want - a.n
		copy(a.pairs[a.n:], b.pairs[:m])
		copy(b.pairs[:], b.pairs[m:b.n])
		clear(b.pairs[b.n-m : b.n])
	} else {
		m := a.n - want
		copy(b.pairs[m:], b.pairs[:b.n])
		copy(b.pairs[:m], a.pairs[want:a.n])
		clear(a.pairs[want:a.n])
	}
	a.n, b.n = want, total-want
	in.seps[k] = b.pairs[0]
}

// fixInner is fixLeaf for the adjacent inner children k and k+1 of in:
// the separator between them comes down, and comes back up from the new
// split point when they do not fit one node.
func (t *pairTree[V]) fixInner(in *inner[V], k int) {
	a, b := in.kids[k], in.kids[k+1]
	a.seps = append(append(a.seps, in.seps[k]), b.seps...)
	a.kids = append(a.kids, b.kids...)
	a.leaves = append(a.leaves, b.leaves...)
	total := a.size()
	if total <= innerMax {
		in.seps = slices.Delete(in.seps, k, k+1)
		in.kids = slices.Delete(in.kids, k+1, k+2)
		t.inners--
		return
	}
	want := total / 2
	seps := cut(&a.seps, want-1)
	in.seps[k], b.seps = seps[0], seps[1:]
	b.kids, b.leaves = cut(&a.kids, want), cut(&a.leaves, want)
}

// cut moves s[at:] into a new slice, which it returns (nil when there is
// nothing past at), and truncates s to at.
func cut[T any](s *[]T, at int) []T {
	if len(*s) <= at {
		return nil
	}
	tail := append([]T(nil), (*s)[at:]...)
	*s = slices.Delete(*s, at, len(*s))
	return tail
}

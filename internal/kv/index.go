package kv

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/metrics"
	"squery/internal/wire"
)

// Secondary indexes over state-map columns, maintained inline on the
// write path (put / delete / batched apply) under the same segment lock
// as the entries map — so an index read under the segment read-lock is
// always consistent with the entries it points at. A snapshot map's
// partitions are frozen images instead (frozen.go): its index definitions
// live here, and each immutable run of an image carries a FrozenIndex
// built when the run is written, under the same contract.
//
// Correctness contract: an index lookup returns a SUPERSET of the entries
// a full scan would have examined for the same predicate, never a subset.
// The pushed-down filter still runs over every candidate, so false
// positives only cost work; a false negative would be a wrong answer.
// Three rules keep the superset property:
//
//   - All numeric values share one key kind ('N'), keyed by an
//     order-preserving transform of their float64 image, because SQL
//     equality and ordering coerce ints and floats. Conversion through
//     float64 is monotone (not injective above 2^53), so distinct huge
//     ints may share a value — a superset, which the filter resolves.
//   - Range bounds are always applied inclusively at the index level;
//     strictness lives in the filter.
//   - Entries whose extraction was incomplete (missing column, nil,
//     unindexable type) land in an "odd" set, and entries of a different
//     kind than the probe are unioned in wholesale — a full scan would
//     have examined those rows too (and possibly errored on them, e.g.
//     comparing a string cell against a numeric literal), so the index
//     must not hide them. A homogeneous column has empty foreign sets and
//     full selectivity; the safety net costs nothing until types mix.

// IndexKind selects which probes an index serves: hash (equality only) or
// B-tree (equality and ordered ranges). Both keep the same ordered pairs.
type IndexKind int

const (
	// IndexHash answers equality probes.
	IndexHash IndexKind = iota
	// IndexBTree answers equality and inclusive range probes.
	IndexBTree
)

func (k IndexKind) String() string {
	switch k {
	case IndexHash:
		return "hash"
	case IndexBTree:
		return "btree"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// ValueIndexer extracts the indexable values of one column from a stored
// value. It returns the values to index and whether extraction was
// complete; incomplete entries (complete == false) are kept in the index's
// odd set so every lookup still surfaces them. A multi-valued extractor
// returns one value per indexed item.
// A nil ValueIndexer defaults to AsRow(value).Field(col).
type ValueIndexer func(value any, col string) (vals []any, complete bool)

// ixKey is the normalized, comparable form of one indexed value.
// kind 'N' covers all numerics (order-preserving float64 bit transform),
// 's' strings, 'b' bools, 't' time.Time (UnixNano); see package comment
// for why numerics share a kind.
type ixKey struct {
	kind byte
	num  uint64
	str  string
}

// numIxKey maps f to a key whose uint64 ordering matches float ordering.
func numIxKey(f float64) ixKey {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return ixKey{kind: 'N', num: bits}
}

// makeIxKey normalizes a value to its index key; ok is false for types the
// index cannot key (those values live in the odd set).
func makeIxKey(v any) (ixKey, bool) {
	switch x := v.(type) {
	case int:
		return numIxKey(float64(x)), true
	case int8:
		return numIxKey(float64(x)), true
	case int16:
		return numIxKey(float64(x)), true
	case int32:
		return numIxKey(float64(x)), true
	case int64:
		return numIxKey(float64(x)), true
	case uint:
		return numIxKey(float64(x)), true
	case uint8:
		return numIxKey(float64(x)), true
	case uint16:
		return numIxKey(float64(x)), true
	case uint32:
		return numIxKey(float64(x)), true
	case uint64:
		return numIxKey(float64(x)), true
	case float32:
		return numIxKey(float64(x)), true
	case float64:
		return numIxKey(x), true
	case string:
		return ixKey{kind: 's', str: x}, true
	case bool:
		return boolIxKey(x), true
	case time.Time:
		return timeIxKey(x), true
	default:
		return ixKey{}, false
	}
}

func boolIxKey(b bool) ixKey {
	if b {
		return ixKey{kind: 'b', num: 1}
	}
	return ixKey{kind: 'b'}
}

func timeIxKey(t time.Time) ixKey {
	return ixKey{kind: 't', num: uint64(t.UnixNano()) ^ (1 << 63)}
}

// numKinds are the key kinds whose pairs hold a uint64 image, in the order
// indexPart.nums keeps their trees.
const numKinds = "Nbt"

// oddRefBytes approximates one odd-set member: its key's string header
// and map slot (the key's bytes are the entries map's own).
const oddRefBytes = 24

// indexPart is one partition's slice of an index: one ordered set of
// (value, entry key) pairs per key kind, and the odd set. Everything in it
// is guarded by the owning segment's mu — mutation under the write lock,
// lookup under the read lock — which is what makes index reads
// snapshot-consistent with the entries map.
type indexPart struct {
	nums [3]pairTree[uint64] // 'N', 'b', 't', as numKinds orders them
	strs pairTree[string]    // 's'
	odd  map[string]struct{} // entries with incomplete extraction

	maintOps int64
	maintSeq uint64
}

func (ip *indexPart) add(k ixKey, ks string) {
	if k.kind == 's' {
		ip.strs.insert(pair[string]{v: k.str, ks: ks})
		return
	}
	ip.nums[strings.IndexByte(numKinds, k.kind)].insert(pair[uint64]{v: k.num, ks: ks})
}

// remove drops one reference, tolerating absence (a delete racing the
// initial build may target a reference the build never saw).
func (ip *indexPart) remove(k ixKey, ks string) {
	if k.kind == 's' {
		ip.strs.delete(pair[string]{v: k.str, ks: ks})
		return
	}
	ip.nums[strings.IndexByte(numKinds, k.kind)].delete(pair[uint64]{v: k.num, ks: ks})
}

func (ip *indexPart) setOdd(ks string, odd bool) {
	if !odd {
		delete(ip.odd, ks)
		return
	}
	if ip.odd == nil {
		ip.odd = make(map[string]struct{})
	}
	ip.odd[ks] = struct{}{}
}

// stats returns the partition's (entry, value) reference count, odd set
// included, and its footprint.
func (ip *indexPart) stats() (refs, bytes int64) {
	refs = int64(ip.strs.n + len(ip.odd))
	bytes = ip.strs.bytes() + int64(len(ip.odd))*oddRefBytes
	for i := range ip.nums {
		refs += int64(ip.nums[i].n)
		bytes += ip.nums[i].bytes()
	}
	return refs, bytes
}

// Index is a secondary index over one column of one map. Both kinds keep
// the same pairs; a hash index only declines range probes.
type Index struct {
	m       *Map
	col     string
	kind    IndexKind
	extract ValueIndexer
	parts   []*indexPart
	// reader reads col of the last flat struct type indexed, in place.
	reader atomic.Pointer[colReader]

	// ready flips once the initial build has covered every partition;
	// lookups are not served before that (maintenance runs regardless —
	// the build rescans anything that raced it).
	ready   atomic.Bool
	lookups atomic.Int64
	maint   *metrics.Histogram // sampled maintenance latency (1 in 16)
}

// colReader keys one column of one flat struct type straight from the
// row's memory, as makeIxKey keys the boxed field. key is nil when the
// column is missing or of a type makeIxKey does not key: a named type
// boxes as itself.
type colReader struct {
	s   *wire.Schema
	key func(wire.Ref) ixKey
}

var timeType = reflect.TypeOf(time.Time{})

func newColReader(s *wire.Schema, col string) *colReader {
	r := &colReader{s: s}
	i, ok := s.FieldIndex(col)
	if !ok {
		return r
	}
	t := s.ColumnType(i)
	switch k := t.Kind(); {
	case t == timeType:
		r.key = func(ref wire.Ref) ixKey { return timeIxKey(*s.Time(ref, i)) }
	case t.PkgPath() != "":
	case k == reflect.String:
		r.key = func(ref wire.Ref) ixKey { return ixKey{kind: 's', str: s.Str(ref, i)} }
	case k == reflect.Bool:
		r.key = func(ref wire.Ref) ixKey { return boolIxKey(s.Bool(ref, i)) }
	case k == reflect.Float32, k == reflect.Float64:
		r.key = func(ref wire.Ref) ixKey { return numIxKey(s.Float(ref, i)) }
	case k == reflect.Uint, k == reflect.Uint64:
		r.key = func(ref wire.Ref) ixKey { return numIxKey(float64(uint64(s.Int(ref, i)))) }
	case k >= reflect.Int && k <= reflect.Uint32:
		r.key = func(ref wire.Ref) ixKey { return numIxKey(float64(s.Int(ref, i))) }
	}
	return r
}

func (r *colReader) read(ref wire.Ref) (ixKey, bool) {
	if r.key == nil {
		return ixKey{}, false
	}
	return r.key(ref), true
}

// singleKey keys the column of one value for the default extractor; ok is
// false when the value belongs in the odd set. A flat struct is read in
// place, anything else through AsRow.
func (ix *Index) singleKey(value any) (ixKey, bool) {
	if r := ix.reader.Load(); r != nil {
		if ref, ok := r.s.Ref(value); ok {
			return r.read(ref)
		}
	}
	if s := wire.FlatSchemaOf(value); s != nil {
		r := newColReader(s, ix.col)
		ix.reader.Store(r)
		ref, _ := s.Ref(value)
		return r.read(ref)
	}
	f, ok := AsRow(value).Field(ix.col)
	if !ok || f == nil {
		return ixKey{}, false
	}
	return makeIxKey(f)
}

// keysFor appends the index keys of one stored value to buf. odd reports
// whether the entry must (also) live in the odd set. A multi-valued
// extractor may list a key twice; the pair sets absorb the repeat.
func (ix *Index) keysFor(value any, buf []ixKey) (keys []ixKey, odd bool) {
	if ix.extract == nil {
		k, ok := ix.singleKey(value)
		if !ok {
			return buf, true
		}
		return append(buf, k), false
	}
	vals, complete := ix.extract(value, ix.col)
	odd = !complete
	for _, v := range vals {
		k, ok := makeIxKey(v)
		if !ok {
			odd = true
			continue
		}
		buf = append(buf, k)
	}
	return buf, odd
}

// update maintains the index for one entry mutation. It must run under
// the segment write lock of partition p, after the entries map has been
// read for the old value and before/after the mutation (order within the
// critical section doesn't matter — nothing else can observe it).
func (ix *Index) update(p int, ks string, oldVal any, had bool, newVal any, has bool) {
	ip := ix.parts[p]
	ip.maintSeq++
	sampled := ip.maintSeq&15 == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	var oldBuf, newBuf [1]ixKey
	var oldKeys, newKeys []ixKey
	oldOdd, newOdd := false, false
	if had {
		oldKeys, oldOdd = ix.keysFor(oldVal, oldBuf[:0])
	}
	if has {
		newKeys, newOdd = ix.keysFor(newVal, newBuf[:0])
	}
	if had != has || oldOdd != newOdd || !slices.Equal(oldKeys, newKeys) {
		// New pairs go in before old ones come out, so a value that
		// moves never empties its set on the way.
		for _, k := range newKeys {
			if !slices.Contains(oldKeys, k) {
				ip.add(k, ks)
			}
		}
		for _, k := range oldKeys {
			if !slices.Contains(newKeys, k) {
				ip.remove(k, ks)
			}
		}
		if wasOdd, isOdd := had && oldOdd, has && newOdd; wasOdd != isOdd {
			ip.setOdd(ks, isOdd)
		}
	}
	ip.maintOps++
	if sampled {
		ix.maint.Record(time.Since(t0))
	}
}

// rebuildLocked re-derives partition p's slice of the index from the
// entries map. The caller holds the segment write lock. Idempotent — it
// resets the slice first — so it doubles as the initial build, the
// post-migration rebuild and the post-promotion rebuild.
func (ix *Index) rebuildLocked(p int, entries map[string]Entry) {
	ip := &indexPart{}
	ix.parts[p] = ip
	var buf [1]ixKey
	for ks, e := range entries {
		keys, odd := ix.keysFor(e.Value, buf[:0])
		for _, k := range keys {
			ip.add(k, ks)
		}
		if odd {
			ip.setOdd(ks, true)
		}
	}
}

// IndexLookup describes one index probe: an equality probe on Eq, or —
// with Range set — an inclusive [Lo, Hi] range (nil bound = unbounded).
// Bounds are index-level candidates only; the caller's filter enforces
// exact and strict semantics.
type IndexLookup struct {
	Col   string
	Eq    any
	Range bool
	Lo    any
	Hi    any
}

// probe is a lookup's normalized bounds: the same-kind pairs whose value
// lies in [lo, hi] are candidates, a missing bound being open. An equality
// probe is the range [eq, eq].
type probe struct {
	kind         byte
	lo, hi       ixKey
	hasLo, hasHi bool
}

// probe normalizes a lookup's probe values; ok is false when the lookup
// cannot be served from an index at all (unkeyable probe value,
// mismatched bound kinds, unbounded both sides).
func (lk IndexLookup) probe() (pr probe, ok bool) {
	if !lk.Range {
		k, ok := makeIxKey(lk.Eq)
		return probe{kind: k.kind, lo: k, hi: k, hasLo: true, hasHi: true}, ok
	}
	if lk.Lo != nil {
		if pr.lo, ok = makeIxKey(lk.Lo); !ok {
			return probe{}, false
		}
		pr.kind, pr.hasLo = pr.lo.kind, true
	}
	if lk.Hi != nil {
		if pr.hi, ok = makeIxKey(lk.Hi); !ok || pr.hasLo && pr.hi.kind != pr.kind {
			return probe{}, false
		}
		pr.kind, pr.hasHi = pr.hi.kind, true
	}
	return pr, pr.hasLo || pr.hasHi
}

// span is the part of one pair set a probe selects: values from lo, to hi
// when hasHi. An open lower bound is the zero value, the least of its
// type, so the zero span selects the whole set.
type span[V ixVal] struct {
	lo, hi V
	hasHi  bool
}

// nums is the span of the numeric set of kind k: the probe's bounds on its
// own kind, everything on a foreign one.
func (pr probe) nums(k byte) span[uint64] {
	if k != pr.kind {
		return span[uint64]{}
	}
	return span[uint64]{pr.lo.num, pr.hi.num, pr.hasHi}
}

// strs is nums for the string set.
func (pr probe) strs() span[string] {
	if pr.kind != 's' {
		return span[string]{}
	}
	return span[string]{pr.lo.str, pr.hi.str, pr.hasHi}
}

// appendSpan appends the entries of the span's pairs to out.
func (t *pairTree[V]) appendSpan(out []Entry, s span[V], entries map[string]Entry, seen map[string]struct{}) []Entry {
	for l, i := t.seek(pair[V]{v: s.lo}); l != nil; l, i = l.next, 0 {
		for ; i < l.n; i++ {
			if s.hasHi && l.pairs[i].v > s.hi {
				return out
			}
			out = appendEntry(out, l.pairs[i].ks, entries, seen)
		}
	}
	return out
}

// count returns the number of pairs in the span; a leaf wholly inside it
// counts without reading its pairs.
func (t *pairTree[V]) count(s span[V]) int {
	if s == (span[V]{}) {
		return t.n
	}
	n := 0
	for l, i := t.seek(pair[V]{v: s.lo}); l != nil; l, i = l.next, 0 {
		if !s.hasHi || l.pairs[l.n-1].v <= s.hi {
			n += l.n - i
			continue
		}
		for ; i < l.n && l.pairs[i].v <= s.hi; i++ {
			n++
		}
		break
	}
	return n
}

// appendEntry appends entry ks to out, once when seen is non-nil.
func appendEntry(out []Entry, ks string, entries map[string]Entry, seen map[string]struct{}) []Entry {
	if seen != nil {
		if _, dup := seen[ks]; dup {
			return out
		}
		seen[ks] = struct{}{}
	}
	if e, ok := entries[ks]; ok {
		out = append(out, e)
	}
	return out
}

// gatherLocked appends partition p's candidates for a probe to out:
// same-kind pairs in the probe's span, every foreign-kind pair and the
// odd set. The caller holds the segment (read) lock. Only a multi-valued
// extractor can list an entry twice, so only then is a seen set kept.
func (ix *Index) gatherLocked(p int, pr probe, entries map[string]Entry, out []Entry) []Entry {
	ip := ix.parts[p]
	var seen map[string]struct{}
	if ix.extract != nil {
		seen = make(map[string]struct{})
	}
	for i := range ip.nums {
		out = ip.nums[i].appendSpan(out, pr.nums(numKinds[i]), entries, seen)
	}
	out = ip.strs.appendSpan(out, pr.strs(), entries, seen)
	for ks := range ip.odd {
		out = appendEntry(out, ks, entries, seen)
	}
	return out
}

// estimateLocked counts the candidates gatherLocked would emit (with
// duplicates): foreign kinds and the odd set by their sizes, the probe's
// span by walking its leaves.
func (ix *Index) estimateLocked(p int, pr probe) int64 {
	ip := ix.parts[p]
	n := ip.strs.count(pr.strs()) + len(ip.odd)
	for i := range ip.nums {
		n += ip.nums[i].count(pr.nums(numKinds[i]))
	}
	return int64(n)
}

// indexes returns the map's published index set (nil when none).
func (m *Map) indexSet() []*Index {
	ixs := m.indexes.Load()
	if ixs == nil {
		return nil
	}
	return *ixs
}

// indexFor returns the first ready index able to serve the lookup, and
// the lookup's normalized bounds.
func (m *Map) indexFor(lk IndexLookup) (*Index, probe, bool) {
	pr, ok := lk.probe()
	ix := m.indexOn(lk.Col, lk.Range)
	return ix, pr, ok && ix != nil
}

// indexOn returns the first ready index on col that serves equality
// probes, or range probes when needRange: only a B-tree index does.
func (m *Map) indexOn(col string, needRange bool) *Index {
	for _, ix := range m.indexSet() {
		if ix.col == col && ix.ready.Load() && (!needRange || ix.kind == IndexBTree) {
			return ix
		}
	}
	return nil
}

// HasIndex reports whether a ready index exists on col that can serve
// equality (needRange false) or range (needRange true) probes.
func (m *Map) HasIndex(col string, needRange bool) bool { return m.indexOn(col, needRange) != nil }

// CreateIndex builds a secondary index on col over every partition and
// registers it for inline maintenance. extract may be nil (defaults to
// AsRow(value).Field(col); see ValueIndexer). Creating the same
// (col, kind) twice returns the existing index; a second index on the
// same column with a different kind is rejected.
func (m *Map) CreateIndex(col string, kind IndexKind, extract ValueIndexer) (*Index, error) {
	if col == "" {
		return nil, fmt.Errorf("kv: CreateIndex on %q: empty column", m.name)
	}
	m.ixMu.Lock()
	defer m.ixMu.Unlock()
	for _, have := range m.indexSet() {
		if have.col == col {
			if have.kind == kind {
				return have, nil
			}
			return nil, fmt.Errorf("kv: CreateIndex on %q: column %q already has a %s index", m.name, col, have.kind)
		}
	}
	ix := &Index{
		m:       m,
		col:     col,
		kind:    kind,
		extract: extract,
		parts:   make([]*indexPart, m.store.part.Count()),
		maint:   metrics.NewHistogram(),
	}
	for p := range ix.parts {
		ix.parts[p] = &indexPart{}
	}
	// Publish first so concurrent writers maintain the new index, then
	// build each partition under its segment lock — the build rescans
	// whatever raced it, so the end state is exactly the entries map.
	next := append(slices.Clip(m.indexSet()), ix)
	m.indexes.Store(&next)
	for p, seg := range m.segs {
		seg.mu.Lock()
		ix.rebuildLocked(p, seg.entries)
		seg.mu.Unlock()
	}
	ix.ready.Store(true)
	return ix, nil
}

// Indexes returns the map's indexes in creation order.
func (m *Map) Indexes() []*Index { return m.indexSet() }

// ScanPartitionIndexed is ScanPartitionIndexedWith an entry at a time.
func (m *Map) ScanPartitionIndexed(p int, lk IndexLookup, o ScanOpts, fn func(Entry) bool) bool {
	return m.ScanPartitionIndexedWith(p, lk, o, eachEntry(fn))
}

// ScanPartitionIndexedWith serves a partition scan from an index:
// candidates are gathered under the segment read lock (same-kind matches
// plus the foreign-kind and odd safety nets — a superset of what a full
// scan would examine for the same predicate), then handed to fn in chunks
// outside the lock exactly like ScanPartitionWith. It reports false — and
// touches nothing — when no ready index can serve the lookup; the caller
// falls back to a full scan.
func (m *Map) ScanPartitionIndexedWith(p int, lk IndexLookup, o ScanOpts, fn func([]Entry) bool) bool {
	ix, pr, ok := m.indexFor(lk)
	if !ok {
		return false
	}
	st := m.store.statsFor(p)
	seg := m.segs[p]
	rlockWith(seg.mu, st)
	entries := ix.gatherLocked(p, pr, seg.entries, o.scratch(0))
	seg.mu.RUnlock()
	ix.lookups.Add(1)
	if st != nil {
		st.scans.Inc()
	}
	o.chunks(entries, fn)
	return true
}

// EstimateLookup returns the expected candidate count of the lookup over
// the whole map (all partitions), and whether a ready index can serve it.
// The planner uses it to pick the cheapest access path.
func (m *Map) EstimateLookup(lk IndexLookup) (int64, bool) {
	return m.EstimateLookupIn(-1, lk)
}

// EstimateLookupIn is EstimateLookup over partition p alone (every
// partition when p is negative) — what a scan pruned to p will examine.
func (m *Map) EstimateLookupIn(p int, lk IndexLookup) (int64, bool) {
	ix, pr, ok := m.indexFor(lk)
	if !ok {
		return 0, false
	}
	var n int64
	for q, seg := range m.segs {
		if p >= 0 && q != p {
			continue
		}
		rlockWith(seg.mu, m.store.statsFor(q))
		n += ix.estimateLocked(q, pr)
		seg.mu.RUnlock()
	}
	return n, true
}

// RebuildPartitionIndexes re-derives every map's indexes for partition p
// from the current entries — the hook membership changes call after a
// partition's seat flipped (migration flip, backup promotion), where
// inline maintenance never saw the entries under their new owner. The
// entries themselves do not change, so taps receive nothing.
func (s *Store) RebuildPartitionIndexes(p int) {
	for _, m := range s.mapList() {
		seg := m.segs[p]
		seg.mu.Lock()
		m.resetPartitionLocked(p, seg, nil)
		seg.mu.Unlock()
	}
}

// IndexInfo is the observable state of one index (sys.indexes).
type IndexInfo struct {
	Map      string
	Column   string
	Kind     string
	Entries  int64 // live (entry, value) references incl. the odd set
	Bytes    int64 // approximate memory footprint
	Lookups  int64
	MaintOps int64
	MaintP50 time.Duration
	MaintP99 time.Duration
}

// IndexInfos returns a point-in-time view of every index in the store,
// sorted by map then column.
func (s *Store) IndexInfos() []IndexInfo {
	var out []IndexInfo
	for _, m := range s.mapList() {
		for _, ix := range m.indexSet() {
			info := IndexInfo{
				Map:      m.name,
				Column:   ix.col,
				Kind:     ix.kind.String(),
				Lookups:  ix.lookups.Load(),
				MaintP50: ix.maint.Quantile(0.50),
				MaintP99: ix.maint.Quantile(0.99),
			}
			for p, seg := range m.segs {
				rlockWith(seg.mu, s.statsFor(p))
				refs, bytes := ix.parts[p].stats()
				if seg.frozen != nil {
					fr, fb := seg.frozen.IndexStats(ix.col)
					refs, bytes = refs+fr, bytes+fb
				}
				info.Entries += refs
				info.Bytes += bytes
				info.MaintOps += ix.parts[p].maintOps
				seg.mu.RUnlock()
			}
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Map != out[j].Map {
			return out[i].Map < out[j].Map
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// ixMu and indexes live on Map (declared here to keep the index machinery
// in one file): indexes is the atomically published index set, ixMu
// serializes CreateIndex calls.
type mapIndexState struct {
	ixMu    sync.Mutex
	indexes atomic.Pointer[[]*Index]
}

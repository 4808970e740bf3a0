package kv

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/metrics"
)

// Secondary indexes over state-map columns, maintained inline on the
// write path (put / delete / batched apply) under the same segment lock
// as the entries map — so an index read under the segment read-lock is
// always consistent with the entries it points at, for live reads and for
// snapshot maps alike (a snapshot map's values are version chains; its
// index is maintained on the same chain upserts).
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
//     ints may share a posting — a superset, which the filter resolves.
//   - Range bounds are always applied inclusively at the index level;
//     strictness lives in the filter.
//   - Entries whose extraction was incomplete (missing column, nil,
//     unindexable type) land in an "odd" set, and entries of a different
//     kind than the probe are unioned in wholesale — a full scan would
//     have examined those rows too (and possibly errored on them, e.g.
//     comparing a string cell against a numeric literal), so the index
//     must not hide them. A homogeneous column has empty foreign sets and
//     full selectivity; the safety net costs nothing until types mix.

// IndexKind selects the index structure: hash (equality probes only) or
// B-tree (equality and ordered ranges).
type IndexKind int

const (
	// IndexHash answers equality probes in O(1) per partition.
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
// (e.g. over a snapshot version chain) returns one value per version.
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
		n := uint64(0)
		if x {
			n = 1
		}
		return ixKey{kind: 'b', num: n}, true
	case time.Time:
		return ixKey{kind: 't', num: uint64(x.UnixNano()) ^ (1 << 63)}, true
	default:
		return ixKey{}, false
	}
}

func ixKeyBytes(k ixKey) int64 { return int64(len(k.str)) + 24 }

// postingSetMin is the posting size past which a position map is built so
// removals stay O(1) on skewed columns (few values, huge postings).
const postingSetMin = 128

// posting is the set of entry keys holding one indexed value, stored as a
// slice for cheap iteration with an optional position map for cheap
// removal. The caller guarantees add is never called with a key already
// present (maintenance diffs old vs new key sets first).
type posting struct {
	keys []string
	pos  map[string]int
}

func (p *posting) add(ks string) {
	if p.pos == nil && len(p.keys) >= postingSetMin {
		p.pos = make(map[string]int, len(p.keys)+1)
		for i, k := range p.keys {
			p.pos[k] = i
		}
	}
	if p.pos != nil {
		p.pos[ks] = len(p.keys)
	}
	p.keys = append(p.keys, ks)
}

// remove deletes ks by swap-remove; it reports whether ks was present.
func (p *posting) remove(ks string) bool {
	if p.pos != nil {
		i, ok := p.pos[ks]
		if !ok {
			return false
		}
		last := len(p.keys) - 1
		moved := p.keys[last]
		p.keys[i] = moved
		p.keys = p.keys[:last]
		delete(p.pos, ks)
		if i != last {
			p.pos[moved] = i
		}
		return true
	}
	for i, k := range p.keys {
		if k == ks {
			p.keys[i] = p.keys[len(p.keys)-1]
			p.keys = p.keys[:len(p.keys)-1]
			return true
		}
	}
	return false
}

// indexPart is one partition's slice of an index. Everything in it is
// guarded by the owning segment's mu — mutation under the write lock,
// lookup under the read lock — which is what makes index reads
// snapshot-consistent with the entries map.
type indexPart struct {
	hash  map[byte]map[ixKey]*posting // IndexHash: kind -> key -> posting
	trees map[byte]*btree             // IndexBTree: kind -> ordered postings
	odd   map[string]struct{}         // entries with incomplete extraction

	refs     map[byte]int // live (entry, value) references per kind
	refTotal int64
	bytes    int64
	maintOps int64
	maintSeq uint64
}

func newIndexPart() *indexPart {
	return &indexPart{
		hash:  make(map[byte]map[ixKey]*posting),
		trees: make(map[byte]*btree),
		odd:   make(map[string]struct{}),
		refs:  make(map[byte]int),
	}
}

// Index is a secondary index over one column of one map.
type Index struct {
	m       *Map
	col     string
	kind    IndexKind
	extract ValueIndexer
	parts   []*indexPart

	// ready flips once the initial build has covered every partition;
	// lookups are not served before that (maintenance runs regardless —
	// the build rescans anything that raced it).
	ready   atomic.Bool
	lookups atomic.Int64
	maint   *metrics.Histogram // sampled maintenance latency (1 in 16)
}

// Column returns the indexed column.
func (ix *Index) Column() string { return ix.col }

// Kind returns the index structure kind.
func (ix *Index) Kind() IndexKind { return ix.kind }

// singleKey is the allocation-free extraction fast path for the default
// (nil) extractor: one column read, one normalized key or the odd set.
func (ix *Index) singleKey(value any) (k ixKey, hasKey, odd bool) {
	f, ok := AsRow(value).Field(ix.col)
	if !ok || f == nil {
		return ixKey{}, false, true
	}
	k, ok = makeIxKey(f)
	if !ok {
		return ixKey{}, false, true
	}
	return k, true, false
}

// keysFor extracts and normalizes the index keys of one stored value.
// odd reports whether the entry must (also) live in the odd set.
func (ix *Index) keysFor(value any) (keys []ixKey, odd bool) {
	var vals []any
	var complete bool
	if ix.extract != nil {
		vals, complete = ix.extract(value, ix.col)
	} else {
		f, ok := AsRow(value).Field(ix.col)
		if ok && f != nil {
			vals, complete = []any{f}, true
		}
	}
	odd = !complete
	for _, v := range vals {
		k, ok := makeIxKey(v)
		if !ok {
			odd = true
			continue
		}
		dup := false
		for _, have := range keys {
			if have == k {
				dup = true
				break
			}
		}
		if !dup {
			keys = append(keys, k)
		}
	}
	return keys, odd
}

func ixKeysEqual(a, b []ixKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsIxKey(ks []ixKey, k ixKey) bool {
	for _, have := range ks {
		if have == k {
			return true
		}
	}
	return false
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

	var oldKeys, newKeys []ixKey
	var oldBuf, newBuf [1]ixKey
	oldOdd, newOdd := false, false
	if ix.extract == nil {
		// Single-value fast path: no slice boxing on the put hot path.
		if had {
			k, hasKey, odd := ix.singleKey(oldVal)
			oldOdd = odd
			if hasKey {
				oldBuf[0] = k
				oldKeys = oldBuf[:1]
			}
		}
		if has {
			k, hasKey, odd := ix.singleKey(newVal)
			newOdd = odd
			if hasKey {
				newBuf[0] = k
				newKeys = newBuf[:1]
			}
		}
	} else {
		if had {
			oldKeys, oldOdd = ix.keysFor(oldVal)
		}
		if has {
			newKeys, newOdd = ix.keysFor(newVal)
		}
	}
	if had == has && oldOdd == newOdd && ixKeysEqual(oldKeys, newKeys) {
		ip.maintOps++
		if sampled {
			ix.maint.Record(time.Since(t0))
		}
		return
	}
	for _, k := range oldKeys {
		if !containsIxKey(newKeys, k) {
			ip.removeRef(k, ks)
		}
	}
	for _, k := range newKeys {
		if !containsIxKey(oldKeys, k) {
			ip.addRef(ix.kind, k, ks)
		}
	}
	wasOdd := had && oldOdd
	isOdd := has && newOdd
	if wasOdd && !isOdd {
		if _, ok := ip.odd[ks]; ok {
			delete(ip.odd, ks)
			ip.refTotal--
			ip.bytes -= int64(len(ks)) + 16
		}
	} else if isOdd && !wasOdd {
		if _, ok := ip.odd[ks]; !ok {
			ip.odd[ks] = struct{}{}
			ip.refTotal++
			ip.bytes += int64(len(ks)) + 16
		}
	}
	ip.maintOps++
	if sampled {
		ix.maint.Record(time.Since(t0))
	}
}

// addRef adds one (entry, value) reference. The caller guarantees the
// reference is not already present (update diffs key sets first).
func (ip *indexPart) addRef(kind IndexKind, k ixKey, ks string) {
	switch kind {
	case IndexHash:
		b := ip.hash[k.kind]
		if b == nil {
			b = make(map[ixKey]*posting)
			ip.hash[k.kind] = b
		}
		p := b[k]
		if p == nil {
			p = &posting{}
			b[k] = p
			ip.bytes += ixKeyBytes(k)
		}
		p.add(ks)
	case IndexBTree:
		t := ip.trees[k.kind]
		if t == nil {
			t = &btree{kind: k.kind}
			ip.trees[k.kind] = t
		}
		p, isNew := t.getOrInsert(k)
		if isNew {
			t.live++
			ip.bytes += ixKeyBytes(k)
		} else if len(p.keys) == 0 {
			t.empty--
			t.live++
		}
		p.add(ks)
	}
	ip.refs[k.kind]++
	ip.refTotal++
	ip.bytes += int64(len(ks)) + 16
}

// removeRef drops one (entry, value) reference, tolerating absence (a
// delete racing the initial build may target a reference the build never
// saw).
func (ip *indexPart) removeRef(k ixKey, ks string) {
	removed := false
	switch {
	case ip.hash[k.kind] != nil:
		b := ip.hash[k.kind]
		if p := b[k]; p != nil && p.remove(ks) {
			removed = true
			if len(p.keys) == 0 {
				delete(b, k)
				ip.bytes -= ixKeyBytes(k)
				if len(b) == 0 {
					delete(ip.hash, k.kind)
				}
			}
		}
	case ip.trees[k.kind] != nil:
		t := ip.trees[k.kind]
		if p := t.get(k); p != nil && p.remove(ks) {
			removed = true
			if len(p.keys) == 0 {
				t.live--
				t.empty++
				t.maybeCompact()
			}
		}
	}
	if !removed {
		return
	}
	ip.refs[k.kind]--
	if ip.refs[k.kind] == 0 {
		delete(ip.refs, k.kind)
	}
	ip.refTotal--
	ip.bytes -= int64(len(ks)) + 16
}

// rebuildLocked re-derives partition p's slice of the index from the
// entries map. The caller holds the segment write lock. Idempotent — it
// resets the slice first — so it doubles as the initial build, the
// post-migration rebuild and the post-promotion rebuild.
func (ix *Index) rebuildLocked(p int, entries map[string]Entry) {
	ip := newIndexPart()
	ix.parts[p] = ip
	for ks, e := range entries {
		keys, odd := ix.keysFor(e.Value)
		for _, k := range keys {
			ip.addRef(ix.kind, k, ks)
		}
		if odd {
			ip.odd[ks] = struct{}{}
			ip.refTotal++
			ip.bytes += int64(len(ks)) + 16
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

// probeKeys normalizes a lookup's probe values; ok is false when the
// lookup cannot be served from an index at all (unkeyable probe value,
// mismatched bound kinds, unbounded both sides).
func (lk IndexLookup) probeKeys() (kind byte, eq ixKey, lo, hi *ixKey, ok bool) {
	if !lk.Range {
		k, ok := makeIxKey(lk.Eq)
		if !ok {
			return 0, ixKey{}, nil, nil, false
		}
		return k.kind, k, nil, nil, true
	}
	if lk.Lo == nil && lk.Hi == nil {
		return 0, ixKey{}, nil, nil, false
	}
	if lk.Lo != nil {
		k, ok := makeIxKey(lk.Lo)
		if !ok {
			return 0, ixKey{}, nil, nil, false
		}
		lo = &k
		kind = k.kind
	}
	if lk.Hi != nil {
		k, ok := makeIxKey(lk.Hi)
		if !ok {
			return 0, ixKey{}, nil, nil, false
		}
		hi = &k
		if lo != nil && k.kind != kind {
			return 0, ixKey{}, nil, nil, false
		}
		kind = k.kind
	}
	return kind, ixKey{}, lo, hi, true
}

// serves reports whether this index can answer the lookup.
func (ix *Index) serves(lk IndexLookup) bool {
	if ix.col != lk.Col || !ix.ready.Load() {
		return false
	}
	if lk.Range && ix.kind != IndexBTree {
		return false
	}
	_, _, _, _, ok := lk.probeKeys()
	return ok
}

// gatherLocked collects the candidate entry keys for a lookup in
// partition p: same-kind matches, all foreign-kind references, and the
// odd set. The caller holds the segment (read) lock. emit must tolerate
// duplicate keys — multi-valued extraction can land one entry in several
// same-kind postings.
func (ix *Index) gatherLocked(p int, lk IndexLookup, emit func(ks string)) {
	ip := ix.parts[p]
	kind, eq, lo, hi, ok := lk.probeKeys()
	if !ok {
		return
	}
	// Same-kind matches.
	if !lk.Range {
		var p *posting
		switch ix.kind {
		case IndexHash:
			if b := ip.hash[kind]; b != nil {
				p = b[eq]
			}
		case IndexBTree:
			if t := ip.trees[kind]; t != nil {
				p = t.get(eq)
			}
		}
		if p != nil {
			for _, ks := range p.keys {
				emit(ks)
			}
		}
	} else if t := ip.trees[kind]; t != nil {
		t.ascendRange(lo, hi, func(it btItem) bool {
			for _, ks := range it.post.keys {
				emit(ks)
			}
			return true
		})
	}
	// Foreign kinds: rows a full scan would also have examined (and
	// possibly errored on). Empty for a homogeneous column.
	for k, b := range ip.hash {
		if k == kind {
			continue
		}
		for _, post := range b {
			for _, ks := range post.keys {
				emit(ks)
			}
		}
	}
	for k, t := range ip.trees {
		if k == kind {
			continue
		}
		t.each(func(it btItem) bool {
			for _, ks := range it.post.keys {
				emit(ks)
			}
			return true
		})
	}
	// Odd set: incomplete extraction.
	for ks := range ip.odd {
		emit(ks)
	}
}

// estimateLocked counts the candidates gatherLocked would emit (with
// duplicates), in O(result + kinds) — range probes traverse their span.
func (ix *Index) estimateLocked(p int, lk IndexLookup) int64 {
	ip := ix.parts[p]
	kind, eq, lo, hi, ok := lk.probeKeys()
	if !ok {
		return 0
	}
	var n int64
	if !lk.Range {
		switch ix.kind {
		case IndexHash:
			if b := ip.hash[kind]; b != nil {
				if post := b[eq]; post != nil {
					n += int64(len(post.keys))
				}
			}
		case IndexBTree:
			if t := ip.trees[kind]; t != nil {
				if post := t.get(eq); post != nil {
					n += int64(len(post.keys))
				}
			}
		}
	} else if t := ip.trees[kind]; t != nil {
		t.ascendRange(lo, hi, func(it btItem) bool {
			n += int64(len(it.post.keys))
			return true
		})
	}
	for k, c := range ip.refs {
		if k != kind {
			n += int64(c)
		}
	}
	n += int64(len(ip.odd))
	return n
}

// indexes returns the map's published index set (nil when none).
func (m *Map) indexSet() []*Index {
	ixs := m.indexes.Load()
	if ixs == nil {
		return nil
	}
	return *ixs
}

// indexFor returns the first ready index able to serve the lookup.
func (m *Map) indexFor(lk IndexLookup) *Index {
	for _, ix := range m.indexSet() {
		if ix.serves(lk) {
			return ix
		}
	}
	return nil
}

// HasIndex reports whether a ready index exists on col that can serve
// equality (needRange false) or range (needRange true) probes.
func (m *Map) HasIndex(col string, needRange bool) bool {
	for _, ix := range m.indexSet() {
		if ix.col != col || !ix.ready.Load() {
			continue
		}
		if needRange && ix.kind != IndexBTree {
			continue
		}
		return true
	}
	return false
}

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
		ix.parts[p] = newIndexPart()
	}
	// Publish first so concurrent writers maintain the new index, then
	// build each partition under its segment lock — the build rescans
	// whatever raced it, so the end state is exactly the entries map.
	old := m.indexSet()
	next := make([]*Index, len(old)+1)
	copy(next, old)
	next[len(old)] = ix
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
	ix := m.indexFor(lk)
	if ix == nil {
		return false
	}
	st := m.store.statsFor(p)
	seg := m.segs[p]
	rlockWith(seg.mu, st)
	entries := o.scratch(0)
	seen := make(map[string]struct{})
	ix.gatherLocked(p, lk, func(ks string) {
		if _, dup := seen[ks]; dup {
			return
		}
		seen[ks] = struct{}{}
		if e, ok := seg.entries[ks]; ok {
			entries = append(entries, e)
		}
	})
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
	ix := m.indexFor(lk)
	if ix == nil {
		return 0, false
	}
	var n int64
	for q, seg := range m.segs {
		if p >= 0 && q != p {
			continue
		}
		seg.mu.RLock()
		n += ix.estimateLocked(q, lk)
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
	s.mu.RLock()
	maps := make([]*Map, 0, len(s.maps))
	for _, m := range s.maps {
		maps = append(maps, m)
	}
	s.mu.RUnlock()
	for _, m := range maps {
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
	s.mu.RLock()
	maps := make([]*Map, 0, len(s.maps))
	for _, m := range s.maps {
		maps = append(maps, m)
	}
	s.mu.RUnlock()
	var out []IndexInfo
	for _, m := range maps {
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
				seg.mu.RLock()
				ip := ix.parts[p]
				info.Entries += ip.refTotal
				info.Bytes += ip.bytes
				info.MaintOps += ip.maintOps
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

package kv

import (
	"sort"
	"strings"

	"squery/internal/partition"
	"squery/internal/transport"
)

// Frozen partition images: what a snapshot map's partition holds. A
// snapshot is written once per checkpoint and afterwards only read, so its
// partitions are not entry maps but immutable images (internal/core's run
// sets) that a writer replaces whole by swapping one pointer under the
// partition's write lock. The store treats an image as opaque: it fences,
// counts, replicates, clears, fails over and ships it like entries, and a
// reader that loaded the pointer reads it without any lock.

// Frozen is an immutable partition image a map's segment holds next to its
// entries.
type Frozen interface {
	// Keys returns the number of distinct keys the image holds — its share
	// of the map's Size.
	Keys() int
	// Rows calls fn for every row the image stores, versions included —
	// what a partition handoff ships.
	Rows(fn func(key partition.Key, value any))
	// IndexStats returns the (value, row) references and the bytes the
	// image's indexes on col hold — its share of sys.indexes.
	IndexStats(col string) (refs, bytes int64)
}

// frozenKeys is f.Keys() for a possibly absent image.
func frozenKeys(f Frozen) int {
	if f == nil {
		return 0
	}
	return f.Keys()
}

// Frozen returns the image partition p of the map holds — of its backup
// copy when backup is set — or nil when it holds none. The pointer is read
// under the partition's read lock and counted as a scan; the image itself
// is immutable, so the caller reads it with no lock held.
func (m *Map) Frozen(p int, backup bool) Frozen {
	if backup {
		if m.backups == nil {
			return nil
		}
		bak := m.backups[p]
		bak.mu.RLock()
		defer bak.mu.RUnlock()
		return bak.frozen
	}
	st := m.store.statsFor(p)
	if st != nil {
		st.scans.Inc()
	}
	seg := m.segs[p]
	rlockWith(seg.mu, st)
	defer seg.mu.RUnlock()
	return seg.frozen
}

// PeekFrozen is Frozen on the primary copy without counting a scan: the
// owner's own upkeep of the image (merges, the durable delta, planner
// estimates) is no read of the partition's accounting, and how often it
// runs depends on timing the counters must not.
func (m *Map) PeekFrozen(p int) Frozen {
	seg := m.segs[p]
	rlockWith(seg.mu, m.store.statsFor(p))
	defer seg.mu.RUnlock()
	return seg.frozen
}

// SwapFrozen replaces the image of partition p of the named map with
// next(cur), behind the epoch fence, retried the way PutBatch retries a
// rejected group. next runs outside the lock, on the image read just
// before, and may run more than once: under the partition's write lock the
// swap only checks that the image is still the one next was given, and
// computes next again from the new one when it is not. next may decline
// (ok false), leaving the image as it is. rows is the number of rows the
// swap writes: a swap that writes rows from another node than the owner
// costs one message carrying keyBytes, and with replication the backup copy
// takes the same image in one hop carrying rowBytes (both sizes are
// computed only when that message is sent). A swap of zero rows — a merge
// at the owner — sends nothing. It reports whether the image was replaced.
func (v NodeView) SwapFrozen(mapName string, p, rows int, keyBytes, rowBytes func() int, next func(cur Frozen) (Frozen, bool)) bool {
	m := v.store.GetMap(mapName)
	s := v.store
	if owner := v.ownerOf(p); rows > 0 && v.node != owner {
		s.tr.Send(transport.Msg{From: v.node, To: owner, Ops: rows, Bytes: keyBytes()})
	}
	seg := m.segs[p]
	st := s.statsFor(p)
	var img Frozen
	for stale := true; stale; {
		cur := m.PeekFrozen(p)
		var ok bool
		if img, ok = next(cur); !ok {
			return false
		}
		v.fenced(func(force bool) error {
			lockWith(seg.mu, st)
			defer seg.mu.Unlock()
			if !force {
				if err := s.checkFence(v.fence, p); err != nil {
					return err
				}
			}
			if stale = seg.frozen != cur; !stale {
				seg.frozen = img
			}
			return nil
		})
	}
	if st != nil && rows > 0 {
		st.sets.Add(int64(rows))
	}
	if s.replicated {
		if owner, backup := s.assign.Owner(p), s.assign.Backup(p); rows > 0 && owner != backup {
			s.tr.Send(transport.Msg{From: owner, To: backup, Ops: rows, Bytes: rowBytes()})
		}
		bak := m.backups[p]
		bak.mu.Lock()
		bak.frozen = img
		bak.mu.Unlock()
	}
	return true
}

// FrozenIndex is one index of one immutable row set — a run of a frozen
// image: the rows' (value, row) pairs sorted by value, one array per key
// kind, and the rows whose column could not be keyed. It keeps the index
// contract of the package comment: a probe yields a superset of the rows a
// full scan of the set would examine for the same predicate.
type FrozenIndex struct {
	col  string
	kind IndexKind
	nums [len(numKinds)][]frozenPair[uint64]
	strs []frozenPair[string]
	odd  []int32
}

// frozenPair is one (value, row) reference of a FrozenIndex.
type frozenPair[V ixVal] struct {
	v   V
	row int32
}

// Column returns the indexed column.
func (fi *FrozenIndex) Column() string { return fi.col }

// Stats returns the index's references, odd rows included, and its
// footprint: a numeric pair is 16 bytes, a string pair 24 plus the
// string's own bytes it shares with the row, an odd row 4.
func (fi *FrozenIndex) Stats() (refs, bytes int64) {
	for _, ps := range fi.nums {
		refs += int64(len(ps))
		bytes += 16 * int64(len(ps))
	}
	refs += int64(len(fi.strs) + len(fi.odd))
	bytes += 24*int64(len(fi.strs)) + 4*int64(len(fi.odd))
	return refs, bytes
}

// IndexServed counts one partition probe of lk that an image's indexes
// served, on the map's index the probe names — sys.indexes' lookups.
func (m *Map) IndexServed(lk IndexLookup) {
	if ix, _, ok := m.indexFor(lk); ok {
		ix.lookups.Add(1)
	}
}

// Freeze builds the index's counterpart over an immutable row set of n
// rows: value(i) is row i's stored value, and ok false leaves row i out (a
// tombstone holds no value to find).
func (ix *Index) Freeze(n int, value func(i int) (v any, ok bool)) *FrozenIndex {
	fi := &FrozenIndex{col: ix.col, kind: ix.kind}
	var buf [1]ixKey
	for i := 0; i < n; i++ {
		v, ok := value(i)
		if !ok {
			continue
		}
		keys, odd := ix.keysFor(v, buf[:0])
		for _, k := range keys {
			if k.kind == 's' {
				fi.strs = append(fi.strs, frozenPair[string]{k.str, int32(i)})
			} else {
				j := strings.IndexByte(numKinds, k.kind)
				fi.nums[j] = append(fi.nums[j], frozenPair[uint64]{k.num, int32(i)})
			}
		}
		if odd {
			fi.odd = append(fi.odd, int32(i))
		}
	}
	for j := range fi.nums {
		sortPairs(fi.nums[j])
	}
	sortPairs(fi.strs)
	return fi
}

func sortPairs[V ixVal](ps []frozenPair[V]) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].v != ps[b].v {
			return ps[a].v < ps[b].v
		}
		return ps[a].row < ps[b].row
	})
}

// serves normalizes lk for this index; ok is false when the index cannot
// serve it (a range on a hash index, or an unkeyable probe).
func (fi *FrozenIndex) serves(lk IndexLookup) (probe, bool) {
	if lk.Col != fi.col || lk.Range && fi.kind != IndexBTree {
		return probe{}, false
	}
	return lk.probe()
}

// spanOf returns the bounds of the span s selects in the sorted ps.
func spanOf[V ixVal](ps []frozenPair[V], s span[V]) (lo, hi int) {
	lo = sort.Search(len(ps), func(i int) bool { return ps[i].v >= s.lo })
	hi = len(ps)
	if s.hasHi {
		hi = lo + sort.Search(len(ps)-lo, func(i int) bool { return ps[lo+i].v > s.hi })
	}
	return lo, hi
}

// Gather appends to out the rows a probe selects: same-kind pairs in its
// span, every foreign-kind pair and the odd rows. A row may be listed more
// than once. ok is false — and out is returned as it was — when the index
// cannot serve the lookup.
func (fi *FrozenIndex) Gather(lk IndexLookup, out []int32) ([]int32, bool) {
	pr, ok := fi.serves(lk)
	if !ok {
		return out, false
	}
	for j, ps := range fi.nums {
		lo, hi := spanOf(ps, pr.nums(numKinds[j]))
		for _, p := range ps[lo:hi] {
			out = append(out, p.row)
		}
	}
	lo, hi := spanOf(fi.strs, pr.strs())
	for _, p := range fi.strs[lo:hi] {
		out = append(out, p.row)
	}
	return append(out, fi.odd...), true
}

// Count returns how many rows Gather would list, and whether the index
// can serve the lookup.
func (fi *FrozenIndex) Count(lk IndexLookup) (int, bool) {
	pr, ok := fi.serves(lk)
	if !ok {
		return 0, false
	}
	n := len(fi.odd)
	for j, ps := range fi.nums {
		lo, hi := spanOf(ps, pr.nums(numKinds[j]))
		n += hi - lo
	}
	lo, hi := spanOf(fi.strs, pr.strs())
	return n + hi - lo, true
}

package kv

import (
	"squery/internal/partition"
	"squery/internal/transport"
	"squery/internal/wire"
)

// Batched operations: the partition-grouped message shape the paper's
// overhead numbers depend on. A batch of n operations touching k
// partitions costs k messages (one per remote partition group), not n —
// the Hazelcast partition-operation discipline. Within a partition the
// group is applied under one segment lock acquisition, so a batch also
// amortises locking, and replication mirrors each partition group in a
// single backup hop.

// Op is one operation in a batch: a put of Value under Key, or, with
// Delete set, a removal of Key.
type Op struct {
	Key    partition.Key
	Value  any
	Delete bool
}

// group is the slice of a batch hitting one partition, as indices into
// the original ops (order within a partition is preserved — last write
// to a key wins, exactly as if applied one by one).
type group struct {
	p   int
	idx []int
}

// smallBatch is the largest batch whose scratch (partition ids, sorted
// indices, key strings) lives in the grouping itself — on the caller's
// stack — and is ordered by insertion sort. The mirror flush, at most
// core.Config.MirrorBatch's default of 32 operations, runs once per few
// records: it must cost nothing in proportion to the partition count and
// allocate nothing.
const smallBatch = 32

// grouping splits a batch into per-partition groups, ascending by
// partition so batch application order is deterministic, and stable:
// within a partition the original order is preserved, so the last write
// to a key wins. It also holds the batch's key strings, computed once;
// groups index into them by op position.
type grouping struct {
	n int
	// Scratch of a small batch. The slices over it are made per call, not
	// stored here: a struct pointing into itself is moved to the heap.
	partsBuf, idxBuf [smallBatch]int
	kssBuf           [smallBatch]string
	// Scratch of a large one.
	partsBig, idxBig []int
	kssBig           []string
}

// scratch returns parts (parts[i]: partition of op i), idx (op positions,
// stably sorted by partition once planned) and kss (key strings by op
// position).
func (g *grouping) scratch() (parts, idx []int, kss []string) {
	if g.n <= smallBatch {
		return g.partsBuf[:g.n], g.idxBuf[:g.n], g.kssBuf[:g.n]
	}
	return g.partsBig, g.idxBig, g.kssBig
}

// plan fills the grouping for n operations keyed by keyAt. A small batch
// is insertion-sorted in place; a large one is counting-sorted over the
// partition ids, O(n + partitions).
func (g *grouping) plan(s *Store, n int, keyAt func(int) partition.Key) {
	g.n = n
	if n > smallBatch {
		g.partsBig, g.idxBig, g.kssBig = make([]int, n), make([]int, n), make([]string, n)
	}
	parts, idx, kss := g.scratch()
	for i := 0; i < n; i++ {
		k := keyAt(i)
		parts[i] = s.part.Of(k)
		kss[i] = partition.KeyString(k)
	}
	if n <= smallBatch {
		for i := 0; i < n; i++ {
			j := i
			for ; j > 0 && parts[idx[j-1]] > parts[i]; j-- {
				idx[j] = idx[j-1]
			}
			idx[j] = i
		}
		return
	}
	starts := make([]int, s.part.Count()+1)
	for _, p := range parts {
		starts[p+1]++
	}
	for p := 1; p < len(starts); p++ {
		starts[p] += starts[p-1]
	}
	for i, p := range parts {
		idx[starts[p]] = i
		starts[p]++
	}
}

// next returns the partition group starting at sorted position lo and
// the position after it; lo == g.n ends the walk. (An iterator, not a
// callback: slices handed to a function value are assumed to escape, which
// would move the scratch to the heap.)
func (g *grouping) next(lo int) (group, int) {
	parts, idx, _ := g.scratch()
	p := parts[idx[lo]]
	hi := lo + 1
	for hi < len(idx) && parts[idx[hi]] == p {
		hi++
	}
	return group{p: p, idx: idx[lo:hi]}, hi
}

// stripeSet collects the distinct stripe locks a group needs, in stripe
// order — every multi-stripe acquirer uses the same order, so batches
// cannot deadlock against each other or against unary operations (which
// take a single stripe, then the segment lock, the same ordering).
type stripeSet struct {
	need [lockStripes]bool
}

func (ss *stripeSet) add(seg *segment, ks string) {
	var h uint32
	for i := 0; i < len(ks); i++ {
		h = h*31 + uint32(ks[i])
	}
	ss.need[h%lockStripes] = true
}

func (ss *stripeSet) lock(seg *segment, st *partStats) {
	for i := range ss.need {
		if ss.need[i] {
			lockWith(&seg.stripes[i], st)
		}
	}
}

func (ss *stripeSet) unlock(seg *segment) {
	for i := range ss.need {
		if ss.need[i] {
			seg.stripes[i].Unlock()
		}
	}
}

// PutBatch applies a batch of puts/deletes to the named map. Cost: one
// message per remote partition group (carrying the group's operation
// count and encoded size), one segment lock acquisition and — with
// replication — one backup hop per group. For fenced views every group
// carries the cached table's epoch stamp; a rejected group refreshes,
// backs off and retries independently of its siblings (a mirror batch
// spanning a migrated partition re-sends only that partition's slice).
func (v NodeView) PutBatch(mapName string, ops []Op) {
	if len(ops) == 0 {
		return
	}
	m := v.store.GetMap(mapName)
	var gr grouping
	gr.plan(v.store, len(ops), func(i int) partition.Key { return ops[i].Key })
	_, _, kss := gr.scratch()
	for lo := 0; lo < gr.n; {
		g, hi := gr.next(lo)
		v.fenced(func(force bool) error { return m.applyGroup(v, g, ops, kss, force) })
		lo = hi
	}
}

// applyGroup applies one partition group of a batch.
func (m *Map) applyGroup(v NodeView, g group, ops []Op, kss []string, force bool) error {
	s := m.store
	node := v.node
	bytes := 0
	for _, i := range g.idx {
		bytes += wire.Size(ops[i].Key)
		if !ops[i].Delete {
			bytes += wire.Size(ops[i].Value)
		}
	}
	if owner := v.ownerOf(g.p); node != owner {
		s.tr.Send(transport.Msg{From: node, To: owner, Ops: len(g.idx), Bytes: bytes})
	}
	st := s.statsFor(g.p)
	seg := m.segs[g.p]

	var ss stripeSet
	for _, i := range g.idx {
		ss.add(seg, kss[i])
	}
	ss.lock(seg, st)
	seg.mu.Lock()
	if !force {
		if err := s.checkFence(v.fence, g.p); err != nil {
			seg.mu.Unlock()
			ss.unlock(seg)
			return err
		}
	}
	ixs := m.indexSet()
	taps := m.tapSet()
	var deltas []Delta
	var epoch int64
	if len(taps) > 0 {
		deltas = make([]Delta, 0, len(g.idx))
		epoch = s.assign.PartitionEpoch(g.p)
	}
	puts, dels := 0, 0
	for _, i := range g.idx {
		var old Entry
		had := false
		if len(ixs) > 0 || len(taps) > 0 {
			old, had = seg.entries[kss[i]]
		}
		if ops[i].Delete {
			delete(seg.entries, kss[i])
			dels++
			if had {
				for _, ix := range ixs {
					ix.update(g.p, kss[i], old.Value, true, nil, false)
				}
			}
			if len(taps) > 0 && had {
				seg.seq++
				deltas = append(deltas, Delta{Map: m.name, Part: g.p, Seq: seg.seq,
					Key: ops[i].Key, KeyS: kss[i], Tombstone: true, Epoch: epoch})
			}
		} else {
			seg.entries[kss[i]] = Entry{Key: ops[i].Key, Value: ops[i].Value}
			puts++
			for _, ix := range ixs {
				ix.update(g.p, kss[i], old.Value, had, ops[i].Value, true)
			}
			if len(taps) > 0 {
				seg.seq++
				deltas = append(deltas, Delta{Map: m.name, Part: g.p, Seq: seg.seq,
					Key: ops[i].Key, KeyS: kss[i], Value: ops[i].Value, Epoch: epoch})
			}
		}
	}
	m.emitDeltas(taps, deltas)
	seg.mu.Unlock()
	ss.unlock(seg)
	if st != nil {
		if puts > 0 {
			st.sets.Add(int64(puts))
		}
		if dels > 0 {
			st.deletes.Add(int64(dels))
		}
	}
	if s.replicated {
		s.backupHop(g.p, len(g.idx), bytes)
		bak := m.backups[g.p]
		bak.mu.Lock()
		for _, i := range g.idx {
			if ops[i].Delete {
				delete(bak.entries, kss[i])
			} else {
				bak.entries[kss[i]] = Entry{Key: ops[i].Key, Value: ops[i].Value}
			}
		}
		bak.mu.Unlock()
	}
	return nil
}

// ApplyBatch runs a batched read-modify-write over keys: for each key,
// merge is called with the key's index, the key, the current value and
// whether it exists, and returns the new value and whether to keep it
// (false deletes the key). The whole cycle costs one round trip per
// remote partition group — where a Get+Put-per-key loop would cost two
// messages per key — and one segment lock acquisition per group, so the
// read and the write happen atomically per key with no window for a
// concurrent writer in between.
//
// merge runs with the segment locked: it must be pure computation — no
// calls back into the store, no blocking.
func (v NodeView) ApplyBatch(mapName string, keys []partition.Key, merge func(i int, key partition.Key, cur any, ok bool) (any, bool)) {
	if len(keys) == 0 {
		return
	}
	m := v.store.GetMap(mapName)
	var gr grouping
	gr.plan(v.store, len(keys), func(i int) partition.Key { return keys[i] })
	_, _, kss := gr.scratch()
	for lo := 0; lo < gr.n; {
		g, hi := gr.next(lo)
		v.fenced(func(force bool) error { return m.applyMergeGroup(v, g, keys, kss, merge, force) })
		lo = hi
	}
}

// applyMergeGroup runs one partition group of an ApplyBatch, enforcing the
// epoch fence before any merge runs — a rejected group re-reads current
// values on retry, so the read-modify-write stays atomic per attempt.
func (m *Map) applyMergeGroup(v NodeView, g group, keys []partition.Key, kss []string,
	merge func(i int, key partition.Key, cur any, ok bool) (any, bool), force bool) error {
	s := m.store
	if owner := v.ownerOf(g.p); v.node != owner {
		bytes := 0
		for _, i := range g.idx {
			bytes += wire.Size(keys[i])
		}
		s.tr.Send(transport.Msg{From: v.node, To: owner, Ops: len(g.idx), Bytes: bytes})
	}
	st := s.statsFor(g.p)
	seg := m.segs[g.p]

	var ss stripeSet
	for _, i := range g.idx {
		ss.add(seg, kss[i])
	}
	type bakOp struct {
		i      int
		e      Entry
		delete bool
	}
	var bakOps []bakOp
	ss.lock(seg, st)
	seg.mu.Lock()
	if !force {
		if err := s.checkFence(v.fence, g.p); err != nil {
			seg.mu.Unlock()
			ss.unlock(seg)
			return err
		}
	}
	ixs := m.indexSet()
	taps := m.tapSet()
	var deltas []Delta
	var epoch int64
	if len(taps) > 0 {
		deltas = make([]Delta, 0, len(g.idx))
		epoch = s.assign.PartitionEpoch(g.p)
	}
	puts, dels := 0, 0
	for _, i := range g.idx {
		cur, ok := seg.entries[kss[i]]
		var curVal any
		if ok {
			curVal = cur.Value
		}
		nv, keep := merge(i, keys[i], curVal, ok)
		if keep {
			e := Entry{Key: keys[i], Value: nv}
			seg.entries[kss[i]] = e
			puts++
			for _, ix := range ixs {
				ix.update(g.p, kss[i], curVal, ok, nv, true)
			}
			if len(taps) > 0 {
				seg.seq++
				deltas = append(deltas, Delta{Map: m.name, Part: g.p, Seq: seg.seq,
					Key: keys[i], KeyS: kss[i], Value: nv, Epoch: epoch})
			}
			if s.replicated {
				bakOps = append(bakOps, bakOp{i: i, e: e})
			}
		} else {
			delete(seg.entries, kss[i])
			dels++
			if ok {
				for _, ix := range ixs {
					ix.update(g.p, kss[i], curVal, true, nil, false)
				}
				if len(taps) > 0 {
					seg.seq++
					deltas = append(deltas, Delta{Map: m.name, Part: g.p, Seq: seg.seq,
						Key: keys[i], KeyS: kss[i], Tombstone: true, Epoch: epoch})
				}
			}
			if s.replicated {
				bakOps = append(bakOps, bakOp{i: i, delete: true})
			}
		}
	}
	m.emitDeltas(taps, deltas)
	seg.mu.Unlock()
	ss.unlock(seg)
	if st != nil {
		st.gets.Add(int64(len(g.idx)))
		if puts > 0 {
			st.sets.Add(int64(puts))
		}
		if dels > 0 {
			st.deletes.Add(int64(dels))
		}
	}
	if s.replicated {
		bytes := 0
		for _, b := range bakOps {
			if !b.delete {
				bytes += wire.Size(b.e.Key) + wire.Size(b.e.Value)
			}
		}
		s.backupHop(g.p, len(g.idx), bytes)
		bak := m.backups[g.p]
		bak.mu.Lock()
		for _, b := range bakOps {
			if b.delete {
				delete(bak.entries, kss[b.i])
			} else {
				bak.entries[kss[b.i]] = b.e
			}
		}
		bak.mu.Unlock()
	}
	return nil
}

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
// core's mirrorBatch of 32 operations, runs once per few records: it must
// cost nothing in proportion to the partition count and allocate nothing.
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

// plan fills the grouping for ops. A small batch is insertion-sorted in
// place; a large one is counting-sorted over the partition ids,
// O(n + partitions).
func (g *grouping) plan(s *Store, ops []Op) {
	n := len(ops)
	g.n = n
	if n > smallBatch {
		g.partsBig, g.idxBig, g.kssBig = make([]int, n), make([]int, n), make([]string, n)
	}
	parts, idx, kss := g.scratch()
	for i := 0; i < n; i++ {
		parts[i] = s.part.Of(ops[i].Key)
		kss[i] = partition.KeyString(ops[i].Key)
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

func (ss *stripeSet) add(ks string) { ss.need[stripeOf(ks)] = true }

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
	v.applyBatch(mapName, ops, nil)
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
	// The kernel writes each merge's outcome into its op, for the backup
	// copy to replay: the ops are this call's own.
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i].Key = k
	}
	v.applyBatch(mapName, ops, merge)
}

// applyBatch splits ops into partition groups and runs each through the
// mutation kernel, retrying a group the epoch fence rejects.
func (v NodeView) applyBatch(mapName string, ops []Op, merge mergeFn) {
	if len(ops) == 0 {
		return
	}
	m := v.store.GetMap(mapName)
	var gr grouping
	gr.plan(v.store, ops)
	_, _, kss := gr.scratch()
	for lo := 0; lo < gr.n; {
		g, hi := gr.next(lo)
		v.fenced(func(force bool) error {
			_, err := m.applyGroup(v, g, ops, kss, merge, force)
			return err
		})
		lo = hi
	}
}

// applyOne runs a single operation as a partition group of one and
// returns the change in the partition's entry count: Put and Delete are
// the batch path with nothing to amortise.
func (v NodeView) applyOne(mapName string, op Op) (grew int) {
	m := v.store.GetMap(mapName)
	ops, idx := [1]Op{op}, [1]int{0}
	kss := [1]string{partition.KeyString(op.Key)}
	g := group{p: v.store.part.Of(op.Key), idx: idx[:]}
	v.fenced(func(force bool) (err error) {
		grew, err = m.applyGroup(v, g, ops[:], kss[:], nil, force)
		return err
	})
	return grew
}

// mergeFn resolves one op of a read-modify-write group from the key's
// current value (see ApplyBatch).
type mergeFn = func(i int, key partition.Key, cur any, ok bool) (any, bool)

// shipped is the byte-accounting rule of every kv write message, request
// and backup hop alike, computed only when a message is actually sent:
// an op ships its key, and a put its value too. A read-modify-write
// request ships keys alone — its values are computed at the owner.
func shipped(ops []Op, idx []int, keysOnly bool) int {
	n := 0
	for _, i := range idx {
		n += wire.Size(ops[i].Key)
		if !keysOnly && !ops[i].Delete {
			n += wire.Size(ops[i].Value)
		}
	}
	return n
}

// applyGroup is the store's mutation kernel: every write to a map — a
// Put or Delete (a group of one), a PutBatch group, an ApplyBatch group —
// is one call of it for one partition. Its invariant: a key's entry, its
// postings in every index, its tap delta and its backup copy move
// together. The first three change inside one hold of the partition's
// segment write lock, after the epoch fence has passed and before any
// reader can look; the backup copy follows in one hop before the call
// returns.
//
// A nil merge is a blind write: each op is applied as given. Otherwise
// merge resolves each op from the key's current value under the lock —
// a rejected group re-reads on retry, so the read-modify-write stays
// atomic per attempt — and its outcome is written into ops, which the
// caller must own. The old value is looked up only when a merge, an index
// or a tap needs it. It returns the net change in the partition's entry
// count.
func (m *Map) applyGroup(v NodeView, g group, ops []Op, kss []string, merge mergeFn, force bool) (grew int, err error) {
	s := m.store
	if owner := v.ownerOf(g.p); v.node != owner {
		s.tr.Send(transport.Msg{From: v.node, To: owner, Ops: len(g.idx), Bytes: shipped(ops, g.idx, merge != nil)})
	}
	st := s.statsFor(g.p)
	seg := m.segs[g.p]

	var ss stripeSet
	for _, i := range g.idx {
		ss.add(kss[i])
	}
	ss.lock(seg, st)
	seg.mu.Lock()
	if !force {
		if err := s.checkFence(v.fence, g.p); err != nil {
			seg.mu.Unlock()
			ss.unlock(seg)
			return 0, err
		}
	}
	ixs := m.indexSet()
	taps := m.tapSet()
	var deltas []Delta
	if len(taps) > 0 {
		deltas = make([]Delta, 0, len(g.idx))
	}
	needOld := merge != nil || len(ixs) > 0 || len(taps) > 0
	before, dels := len(seg.entries), 0
	for _, i := range g.idx {
		ks := kss[i]
		var old Entry
		had := false
		if needOld {
			old, had = seg.entries[ks]
		}
		if merge != nil {
			nv, keep := merge(i, ops[i].Key, old.Value, had)
			ops[i].Value, ops[i].Delete = nv, !keep
		}
		op := ops[i]
		if op.Delete {
			op.Value = nil
			delete(seg.entries, ks)
			dels++
			if !had {
				continue // nothing was there: no posting to drop, no tombstone
			}
		} else {
			seg.entries[ks] = Entry{Key: op.Key, Value: op.Value}
		}
		for _, ix := range ixs {
			ix.update(g.p, ks, old.Value, had, op.Value, !op.Delete)
		}
		if len(taps) > 0 {
			deltas = append(deltas, Delta{Part: g.p, Key: op.Key, KeyS: ks,
				Value: op.Value, Old: old.Value, HadOld: had, Tombstone: op.Delete})
		}
	}
	if len(deltas) > 0 {
		for _, t := range taps {
			t.OnDeltas(deltas)
		}
	}
	grew = len(seg.entries) - before
	seg.mu.Unlock()
	ss.unlock(seg)
	if st != nil {
		if merge != nil {
			st.gets.Add(int64(len(g.idx)))
		}
		if puts := len(g.idx) - dels; puts > 0 {
			st.sets.Add(int64(puts))
		}
		if dels > 0 {
			st.deletes.Add(int64(dels))
		}
	}
	if s.replicated {
		if owner, backup := s.assign.Owner(g.p), s.assign.Backup(g.p); owner != backup {
			s.tr.Send(transport.Msg{From: owner, To: backup, Ops: len(g.idx), Bytes: shipped(ops, g.idx, false)})
		}
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
	return grew, nil
}

// Package core implements the paper's primary contribution: representing
// the live and snapshot state of every stateful stream operator as
// first-class, queryable key-value structures (Tables I and II of the
// paper), with full and incremental snapshot modes, version retention and
// pruning, and the catalog that SQL and direct-object queries resolve
// against.
//
// Layout in the KV store, per stateful operator named <op>:
//
//	<op>           live state:     key -> state object
//	snapshot_<op>  snapshot state: per partition, one immutable run set —
//	               a short list of runs, each a batch of versions sorted
//	               by key hash and stored as parallel arrays, one row per
//	               (key, snapshot id) version; a checkpoint's drain adds
//	               one run per partition it touched, and runs merge at
//	               geometrically growing sizes, dropping what no read at
//	               or above the registry's floor — the oldest id retained
//	               or leased by a reader — can reach. All versions of a key
//	               stay in the key's partition, preserving co-location.
//
// In the Jet-baseline mode ("blob"), snapshots are written the way Jet
// writes them without S-QUERY: one opaque serialized blob per operator
// instance, unqueryable — the delta between the two modes is exactly the
// overhead the paper's Figures 8–10 measure.
package core

import (
	"math"
	"slices"

	"squery/internal/kv"
	"squery/internal/partition"
	"squery/internal/wire"
)

// Versioned is one version of a key's state: the snapshot id that produced
// it and the state object as of that snapshot. A Tombstone version records
// that the key was deleted as of that snapshot.
type Versioned struct {
	SSID      int64
	Value     any
	Tombstone bool
}

// mergeFactor is the geometric merge rule: a run merges into the run
// below it once that run holds at most mergeFactor times its rows, so a
// partition keeps O(log n) runs and every version is rewritten O(log n)
// times.
const mergeFactor = 4

// A run is one immutable batch of snapshot versions of one partition,
// sorted by (hash of the key string, key string, ssid) and stored as
// parallel arrays: a version is one row. All versions of a key in a run are
// adjacent, ascending by ssid — a key group.
type run struct {
	hash []uint32 // hashKey of each row's key
	keys []partition.Key
	// meta holds each row's flags (rowTomb, rowCont) and, above rowShift,
	// its ssid less lo — unless wide holds every row's ssid, which a run
	// spanning maxOffset ids or more needs.
	meta []uint32
	wide []int64
	vals []any

	lo, hi int64 // least and greatest ssid of any row
	nkeys  int   // key groups
	// dropAt is the least floor at which this run, merged alone as the
	// bottom of its partition, would lose a row by its own versions: the
	// second version's ssid of a key that has two (at that floor it
	// shadows the first), or one past the first version's ssid of a key
	// whose oldest version is a tombstone. MaxInt64 when no such id
	// exists. Rows a newer run shadows are counted by runSet.shadowed.
	dropAt int64
	// spare counts the rows a merge of this run alone as the bottom can
	// drop at some later floor by its own versions: every version but its
	// key's newest, and a newest version that is a tombstone.
	spare int
	// ixs are the run's secondary indexes, one per index defined on the
	// snapshot map when the run was written or merged.
	ixs []*kv.FrozenIndex
}

// Row flags, in the low bits of a row's meta word.
const (
	// rowTomb marks a tombstone: the key was deleted as of the row's ssid.
	rowTomb uint32 = 1 << iota
	// rowCont marks a row of the same key as the row before it, so a key
	// group's end is found without reading a key.
	rowCont
)

// rowShift places a row's ssid offset above its flags; maxOffset is the
// least span of ids a run keeps in wide instead.
const (
	rowShift  = 2
	maxOffset = 1 << (32 - rowShift)
)

func (r *run) len() int { return len(r.hash) }

// tombstone reports whether row i is a tombstone.
func (r *run) tombstone(i int) bool { return r.meta[i]&rowTomb != 0 }

// ssid returns row i's snapshot id.
func (r *run) ssid(i int) int64 {
	if r.wide != nil {
		return r.wide[i]
	}
	return r.lo + int64(r.meta[i]>>rowShift)
}

// ks returns row i's canonical key string.
func (r *run) ks(i int) string { return partition.KeyString(r.keys[i]) }

// sameKey reports whether key renders as ks, without rendering a string
// key.
func sameKey(key partition.Key, ks string) bool {
	if s, ok := key.(string); ok {
		return s == ks
	}
	return partition.KeyString(key) == ks
}

// groupEnd returns the row after the key group that starts at row i.
func (r *run) groupEnd(i int) int {
	j := i + 1
	for j < len(r.meta) && r.meta[j]&rowCont != 0 {
		j++
	}
	return j
}

// find returns the rows [lo, hi) of the key group of ks, whose hash is h;
// lo is -1 when the run does not hold the key.
func (r *run) find(h uint32, ks string) (lo, hi int) {
	i, j := 0, len(r.hash)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if r.hash[mid] < h {
			i = mid + 1
		} else {
			j = mid
		}
	}
	for i < len(r.hash) && r.hash[i] == h {
		end := r.groupEnd(i)
		if sameKey(r.keys[i], ks) {
			return i, end
		}
		i = end
	}
	return -1, -1
}

// at returns the row of the key group [lo, hi) that governs reads at ssid
// n — the one with the largest ssid ≤ n — or -1.
func (r *run) at(lo, hi int, n int64) int {
	for i := hi - 1; i >= lo; i-- {
		if r.ssid(i) <= n {
			return i
		}
	}
	return -1
}

// version returns row i as a Versioned.
func (r *run) version(i int) Versioned {
	return Versioned{SSID: r.ssid(i), Value: r.vals[i], Tombstone: r.tombstone(i)}
}

// index returns the run's index on col, nil when it has none.
func (r *run) index(col string) *kv.FrozenIndex {
	for _, fi := range r.ixs {
		if fi.Column() == col {
			return fi
		}
	}
	return nil
}

// runRow is one version on its way into a run.
type runRow struct {
	hash uint32
	key  partition.Key
	ks   string
	ssid int64
	tomb bool
	val  any
}

// newRun builds a run from rows already in run order, with an index for
// every index the snapshot map defines.
func newRun(rows []runRow, ixs []*kv.Index) *run {
	n := len(rows)
	r := &run{
		hash: make([]uint32, n), keys: make([]partition.Key, n),
		meta: make([]uint32, n), vals: make([]any, n),
		lo: math.MaxInt64, hi: math.MinInt64, dropAt: math.MaxInt64,
	}
	for i := range rows {
		r.lo, r.hi = min(r.lo, rows[i].ssid), max(r.hi, rows[i].ssid)
	}
	if n > 0 && uint64(r.hi-r.lo) >= maxOffset {
		r.wide = make([]int64, n)
	}
	for i := range rows {
		w := &rows[i]
		r.hash[i], r.keys[i], r.vals[i] = w.hash, w.key, w.val
		if r.wide != nil {
			r.wide[i] = w.ssid
		} else {
			r.meta[i] = uint32(w.ssid-r.lo) << rowShift
		}
		if w.tomb {
			r.meta[i] |= rowTomb
		}
		first := i == 0 || w.hash != rows[i-1].hash || w.ks != rows[i-1].ks
		if !first {
			r.meta[i] |= rowCont
		}
		if last := i+1 == n || rows[i+1].hash != w.hash || rows[i+1].ks != w.ks; !last || w.tomb {
			r.spare++
		}
		switch {
		case first:
			r.nkeys++
			if w.tomb {
				r.dropAt = min(r.dropAt, w.ssid+1)
			}
		case i < 2 || w.hash != rows[i-2].hash || w.ks != rows[i-2].ks:
			r.dropAt = min(r.dropAt, w.ssid) // the key's second version
		}
	}
	for _, ix := range ixs {
		r.ixs = append(r.ixs, ix.Freeze(n, func(i int) (any, bool) { return r.vals[i], !r.tombstone(i) }))
	}
	return r
}

// runSet is the immutable image of one partition of snapshot_<op>: its
// runs, oldest first. A writer never changes one; it swaps in a new set
// (kv.NodeView.SwapFrozen), so a reader that loaded the pointer holds a
// frozen history however long it reads.
type runSet struct {
	runs []*run
	keys int // distinct keys across the runs
}

// asRuns returns the run set a frozen image is; nil reads as empty.
func asRuns(f kv.Frozen) *runSet {
	rs, _ := f.(*runSet)
	return rs
}

// Keys implements kv.Frozen: the partition's distinct keys, tombstoned
// ones included.
func (s *runSet) Keys() int {
	if s == nil {
		return 0
	}
	return s.keys
}

// Rows implements kv.Frozen: every stored version of every key.
func (s *runSet) Rows(fn func(key partition.Key, value any)) {
	for _, r := range s.runs {
		for i := range r.keys {
			fn(r.keys[i], r.vals[i])
		}
	}
}

// IndexStats implements kv.Frozen: what the runs' indexes on col hold.
func (s *runSet) IndexStats(col string) (refs, bytes int64) {
	for _, r := range s.runs {
		if fi := r.index(col); fi != nil {
			fr, fb := fi.Stats()
			refs, bytes = refs+fr, bytes+fb
		}
	}
	return refs, bytes
}

// hashKey is the hash a run sorts ks by: the high 32 bits of the key's
// partition hash.
func hashKey(ks string) uint32 { return rowHash(partition.HashString(ks)) }

// rowHash is hashKey of a key whose partition hash is h.
func rowHash(h uint64) uint32 { return uint32(h >> 32) }

// governing returns the run and row that govern reads of ks at ssid n —
// the version with the largest ssid ≤ n, a newer run shadowing an older
// one at the same ssid — tombstones included; row is -1 when the
// partition holds no such version. Runs are searched newest first, and a
// run whose versions are all older than the best found is skipped.
func (s *runSet) governing(h uint32, ks string, n int64) (*run, int) {
	if s == nil {
		return nil, -1
	}
	var best *run
	bi := -1
	for j := len(s.runs) - 1; j >= 0; j-- {
		r := s.runs[j]
		if r.lo > n || best != nil && r.hi <= best.ssid(bi) {
			continue
		}
		lo, hi := r.find(h, ks)
		if lo < 0 {
			continue
		}
		if i := r.at(lo, hi, n); i >= 0 && (best == nil || r.ssid(i) > best.ssid(bi)) {
			best, bi = r, i
		}
	}
	return best, bi
}

// get resolves ks at ssid n; ok is false when the key did not exist then
// (no version yet, or a tombstone governs).
func (s *runSet) get(ks string, n int64) (*run, int, bool) {
	r, i := s.governing(hashKey(ks), ks, n)
	if i < 0 || r.tombstone(i) {
		return nil, -1, false
	}
	return r, i, true
}

// versions returns every version of ks the set holds, ascending by ssid,
// a newer run's version replacing an older run's at the same ssid.
func (s *runSet) versions(ks string) []Versioned {
	var out []Versioned
	if s == nil {
		return nil
	}
	h := hashKey(ks)
	for _, r := range s.runs {
		lo, hi := r.find(h, ks)
		for i := lo; i >= 0 && i < hi; i++ {
			out = insertBySSID(out, r.version(i))
		}
	}
	return out
}

// ssidOrdered is a version of a key that knows its snapshot id.
type ssidOrdered interface{ snapshotID() int64 }

func (v Versioned) snapshotID() int64 { return v.SSID }
func (w runRow) snapshotID() int64    { return w.ssid }

// insertBySSID adds v to vs, ascending by snapshot id, replacing a version
// at the same id: added in run order, oldest run first, a newer run's
// version replaces an older run's.
func insertBySSID[T ssidOrdered](vs []T, v T) []T {
	n := v.snapshotID()
	i := len(vs)
	for i > 0 && vs[i-1].snapshotID() > n {
		i--
	}
	if i > 0 && vs[i-1].snapshotID() == n {
		vs[i-1] = v
		return vs
	}
	return slices.Insert(vs, i, v)
}

// cursors walks several runs' key groups together, in run order.
type cursors struct {
	runs []*run
	pos  []int
}

// newCursors returns cursors over runs and the lo and hi slices next
// fills, all three carved from buf when it holds them.
func newCursors(runs []*run, buf []int) (c cursors, lo, hi []int) {
	k := len(runs)
	if len(buf) < 3*k {
		buf = make([]int, 3*k)
	}
	clear(buf[:k])
	return cursors{runs: runs, pos: buf[:k]}, buf[k : 2*k], buf[2*k : 3*k]
}

// next finds the key group the cursors meet next and returns the run m
// whose cursor stood at it; for each run j the group's rows are [lo[j],
// hi[j]) (empty when run j does not hold the key), and run m's first row
// renders the key. The cursors advance past it; ok is false when every
// run is exhausted. A key's string is read only when another run's cursor
// stands at the same hash: reading it costs a cache miss per key.
func (c *cursors) next(lo, hi []int) (m int, ok bool) {
	m = -1
	for j, r := range c.runs {
		i := c.pos[j]
		if i >= r.len() {
			continue
		}
		if m < 0 {
			m = j
			continue
		}
		mr, mi := c.runs[m], c.pos[m]
		if r.hash[i] < mr.hash[mi] || r.hash[i] == mr.hash[mi] && r.ks(i) < mr.ks(mi) {
			m = j
		}
	}
	if m < 0 {
		return -1, false
	}
	mr, mi := c.runs[m], c.pos[m]
	h, ks, read := mr.hash[mi], "", false
	for j, r := range c.runs {
		i := c.pos[j]
		lo[j], hi[j] = i, i
		if i >= r.len() || r.hash[i] != h {
			continue
		}
		if j != m {
			if !read {
				ks, read = mr.ks(mi), true
			}
			if !sameKey(r.keys[i], ks) {
				continue
			}
		}
		hi[j] = r.groupEnd(i)
		c.pos[j] = hi[j]
	}
	return m, true
}

// each calls fn with the row governing every key of the set at ssid n,
// tombstones skipped, until fn returns false.
func (s *runSet) each(n int64, fn func(r *run, i int) bool) {
	if s == nil {
		return
	}
	var buf [3 * 4]int // up to four runs on the stack: a scan allocates nothing per partition
	c, lo, hi := newCursors(s.runs, buf[:])
	for {
		if _, ok := c.next(lo, hi); !ok {
			return
		}
		var best *run
		bi := -1
		for j, r := range s.runs {
			if g := r.at(lo[j], hi[j], n); g >= 0 && (best == nil || r.ssid(g) >= best.ssid(bi)) {
				best, bi = r, g
			}
		}
		if bi >= 0 && !best.tombstone(bi) && !fn(best, bi) {
			return
		}
	}
}

// eachIndexed is each through the runs' indexes on lk's column: for every
// key a run's index lists as a candidate of the probe — every key of a
// run without one — it calls fn with the row governing the key at ssid n,
// once per key, tombstones skipped. The candidates are a superset of the
// keys whose governing version matches: that version's run lists it.
func (s *runSet) eachIndexed(lk kv.IndexLookup, n int64, fn func(r *run, i int) bool) {
	if s == nil || len(s.runs) == 0 {
		return
	}
	var seen map[string]struct{}
	if len(s.runs) > 1 || s.runs[0].nkeys < s.runs[0].len() {
		seen = make(map[string]struct{})
	}
	visit := func(r *run, i int) bool {
		ks := r.ks(i)
		if seen != nil {
			if _, dup := seen[ks]; dup {
				return true
			}
			seen[ks] = struct{}{}
		}
		g, gi := s.governing(r.hash[i], ks, n)
		return gi < 0 || g.tombstone(gi) || fn(g, gi)
	}
	var cand []int32
	for _, r := range s.runs {
		served := false
		if fi := r.index(lk.Col); fi != nil {
			cand, served = fi.Gather(lk, cand[:0])
		}
		if !served {
			for i := 0; i < r.len(); i = r.groupEnd(i) {
				if !visit(r, i) {
					return
				}
			}
			continue
		}
		for _, i := range cand {
			if !visit(r, int(i)) {
				return
			}
		}
	}
}

// estimate returns how many candidate rows eachIndexed would examine for
// lk, at most the set's keys.
func (s *runSet) estimate(lk kv.IndexLookup) int {
	if s == nil {
		return 0
	}
	n := 0
	for _, r := range s.runs {
		if fi := r.index(lk.Col); fi != nil {
			if c, ok := fi.Count(lk); ok {
				n += c
				continue
			}
		}
		n += r.nkeys
	}
	return min(n, s.keys)
}

// sample returns the value of a version that is not a tombstone.
func (s *runSet) sample() (any, bool) {
	if s == nil {
		return nil, false
	}
	for j := len(s.runs) - 1; j >= 0; j-- {
		r := s.runs[j]
		for i := range r.meta {
			if !r.tombstone(i) {
				return r.vals[i], true
			}
		}
	}
	return nil, false
}

// mergeRuns merges the window ws of a partition's runs (oldest first) into
// one run, dropping every version no read at or above floor can reach:
// every version at or above floor is kept, and the newest one below it is
// kept as the base reads at floor fall back to — unless a version of the
// key sits at exactly floor, in the window or in a run of above (the runs
// newer than the window), which shadows it for every such read. When the
// window is the bottom of the partition (no older run left under it), a
// tombstone base reads the same as no version and goes too, provided no
// newer run holds an id below it; above older runs, or under a newer run
// that holds older ids (drains write runs in id order, so only a set built
// otherwise has one), it stays, since it shadows their versions. It also
// returns the keys the merge dropped entirely.
func mergeRuns(ws, above []*run, floor int64, bottom bool, ixs []*kv.Index) (*run, []runRow) {
	c, lo, hi := newCursors(ws, nil)
	n := 0
	for _, r := range ws {
		n += r.len()
	}
	// Only a newer run whose ids span floor can hold a version at it, and
	// none holds an id below aboveLo.
	var spans []*run
	aboveLo := int64(math.MaxInt64)
	for _, r := range above {
		if r.lo <= floor && floor <= r.hi {
			spans = append(spans, r)
		}
		aboveLo = min(aboveLo, r.lo)
	}
	out := make([]runRow, 0, n)
	var dropped []runRow
	var vs []runRow
	for {
		m, ok := c.next(lo, hi)
		if !ok {
			break
		}
		ks := ws[m].ks(lo[m])
		// The key's versions, ascending by ssid, a newer run replacing an
		// older one's version at the same ssid.
		vs = vs[:0]
		for j, r := range ws {
			for i := lo[j]; i < hi[j]; i++ {
				vs = insertBySSID(vs, runRow{hash: r.hash[i], key: r.keys[i], ks: ks, ssid: r.ssid(i), tomb: r.tombstone(i), val: r.vals[i]})
			}
		}
		first := 0
		for first < len(vs) && vs[first].ssid < floor {
			first++
		}
		if first > 0 && !(bottom && vs[first-1].tomb && vs[first-1].ssid <= aboveLo) &&
			!(first < len(vs) && vs[first].ssid == floor) && !holdsAt(spans, vs[0].hash, ks, floor) {
			first-- // the base
		}
		if first == len(vs) {
			dropped = append(dropped, vs[len(vs)-1])
			continue
		}
		out = append(out, vs[first:]...)
	}
	if len(out) == 0 {
		return nil, dropped
	}
	return newRun(out, ixs), dropped
}

// holdsAt reports whether any of runs holds a version of ks, whose hash is
// h, at exactly ssid n.
func holdsAt(runs []*run, h uint32, ks string, n int64) bool {
	for _, r := range runs {
		lo, hi := r.find(h, ks)
		for i := lo; i >= 0 && i < hi; i++ {
			if r.ssid(i) == n {
				return true
			}
		}
	}
	return false
}

// with returns the set with r appended as its newest run.
func (s *runSet) with(r *run) *runSet {
	next := &runSet{keys: s.Keys()}
	if s != nil {
		next.runs = append(make([]*run, 0, len(s.runs)+1), s.runs...)
	}
	// Count r's keys no older run holds.
	for i := 0; i < r.len(); i = r.groupEnd(i) {
		if !s.holds(r.hash[i], r.ks(i), nil) {
			next.keys++
		}
	}
	next.runs = append(next.runs, r)
	return next
}

// holds reports whether any run of the set other than skip holds ks.
func (s *runSet) holds(h uint32, ks string, skip []*run) bool {
	if s == nil {
		return false
	}
	for _, r := range s.runs {
		if slices.Contains(skip, r) {
			continue
		}
		if lo, _ := r.find(h, ks); lo >= 0 {
			return true
		}
	}
	return false
}

// replaced returns the set with the window ws — which must still be runs
// [at, at+len(ws)) of s — replaced by merged (nil: by nothing), and ok
// false when s has changed under the merge.
func (s *runSet) replaced(at int, ws []*run, merged *run, dropped []runRow) (*runSet, bool) {
	if s == nil || at+len(ws) > len(s.runs) {
		return nil, false
	}
	for j, r := range ws {
		if s.runs[at+j] != r {
			return nil, false
		}
	}
	next := &runSet{keys: s.keys, runs: make([]*run, 0, len(s.runs)-len(ws)+1)}
	next.runs = append(next.runs, s.runs[:at]...)
	if merged != nil {
		next.runs = append(next.runs, merged)
	}
	next.runs = append(next.runs, s.runs[at+len(ws):]...)
	for _, d := range dropped {
		if !s.holds(d.hash, d.ks, ws) {
			next.keys--
		}
	}
	return next, true
}

// plan picks the merge a partition's set is due: the window of runs the
// geometric rule folds together, or else the bottom run alone once a merge
// at floor would drop some of its rows and at least a mergeFactor-th of
// its rows are spare, so the rewrite's cost stays in proportion to what it
// can reclaim, whatever runs sit above it. The bottom run's droppable rows
// are its own (run.dropAt, run.spare) and those a newer run's version at
// exactly floor shadows (shadowed). Only runs whose versions are all at or
// below durable (the last durable snapshot id, while stable storage is
// attached) take part, so the versions a persisted commit still has to
// write stay in runs of their own. ok is false when nothing is due.
func (s *runSet) plan(floor, durable int64) (at int, ws []*run, ok bool) {
	if s == nil {
		return 0, nil, false
	}
	m := 0
	for m < len(s.runs) && s.runs[m].hi <= durable {
		m++
	}
	if m == 0 {
		return 0, nil, false
	}
	j, sum := m-1, s.runs[m-1].len()
	for j > 0 && s.runs[j-1].len() <= mergeFactor*sum {
		j--
		sum += s.runs[j].len()
	}
	if j < m-1 {
		return j, s.runs[j:m], true
	}
	b := s.runs[0]
	if b.dropAt <= floor && mergeFactor*b.spare >= b.len() {
		return 0, s.runs[:1], true
	}
	if mergeFactor*(b.spare+s.shadowable(floor)) < b.len() {
		return 0, nil, false // too few rows to pay for the rewrite, whatever shadows them
	}
	if sh := s.shadowed(floor); sh > 0 && mergeFactor*(b.spare+sh) >= b.len() {
		return 0, s.runs[:1], true
	}
	return 0, nil, false
}

// shadowable bounds shadowed(floor) from above without reading a key: the
// rows of the newer runs whose ids span floor.
func (s *runSet) shadowable(floor int64) int {
	n := 0
	for _, r := range s.runs[1:] {
		if r.lo <= floor && floor <= r.hi {
			n += r.len()
		}
	}
	return n
}

// shadowed counts the bottom run's keys whose newest version there is no
// tombstone, is older than floor, and is shadowed by a newer run's version
// at exactly floor: rows a merge of the bottom alone at floor drops beyond
// its spare ones. A key two newer runs hold at floor counts twice; the
// count only times the rewrite.
func (s *runSet) shadowed(floor int64) int {
	b, n := s.runs[0], 0
	for _, r := range s.runs[1:] {
		if r.lo > floor || floor > r.hi {
			continue
		}
		for i := 0; i < r.len(); i++ {
			if r.ssid(i) != floor {
				continue
			}
			lo, hi := b.find(r.hash[i], r.ks(i))
			if lo >= 0 && !b.tombstone(hi-1) && b.ssid(hi-1) < floor {
				n++
			}
		}
	}
	return n
}

// rowSizes returns the wire sizes of rows' keys, and of keys and values.
func rowSizes(rows []runRow) (keys, all func() int) {
	keys = func() int {
		n := 0
		for i := range rows {
			n += wire.Size(rows[i].key)
		}
		return n
	}
	all = func() int {
		n := keys()
		for i := range rows {
			if !rows[i].tomb {
				n += wire.Size(rows[i].val)
			}
		}
		return n
	}
	return keys, all
}

// snapshotRuns returns the run set of the partition of snapshot_<op> that
// holds key, from the primary copy.
func snapshotRuns(store *kv.Store, op string, key partition.Key) *runSet {
	name := SnapshotMapName(op)
	if !store.HasMap(name) {
		return nil
	}
	return asRuns(store.GetMap(name).PeekFrozen(store.Partitioner().Of(key)))
}

// SnapshotVersions returns every version snapshot_<op> holds for key,
// ascending by snapshot id — what pruning has left of the key's history.
func SnapshotVersions(store *kv.Store, op string, key partition.Key) []Versioned {
	return snapshotRuns(store, op, key).versions(partition.KeyString(key))
}

// SnapshotAt resolves key in snapshot_<op> as of snapshot ssid: the
// version with the largest snapshot id ≤ ssid. ok is false if the key did
// not exist at ssid (no version yet, or a tombstone governs). This walk
// back over the versions is the paper's differential query process for
// incremental snapshots (§VI.A).
func SnapshotAt(store *kv.Store, op string, key partition.Key, ssid int64) (Versioned, bool) {
	r, i, ok := snapshotRuns(store, op, key).get(partition.KeyString(key), ssid)
	if !ok {
		return Versioned{}, false
	}
	return r.version(i), true
}

// SnapshotScan calls fn with every key of snapshot_<op> that exists as of
// snapshot ssid and the version that governs it, partition by partition,
// until fn returns false.
func SnapshotScan(store *kv.Store, op string, ssid int64, fn func(key partition.Key, v Versioned) bool) {
	name := SnapshotMapName(op)
	if !store.HasMap(name) {
		return
	}
	m := store.GetMap(name)
	more := true
	for p := 0; more && p < store.Partitioner().Count(); p++ {
		asRuns(m.PeekFrozen(p)).each(ssid, func(r *run, i int) bool {
			more = fn(r.keys[i], r.version(i))
			return more
		})
	}
}

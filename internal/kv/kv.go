// Package kv implements the partitioned in-memory key-value store that
// plays the role of Hazelcast IMDG in the paper: the state backend that
// S-QUERY exposes to external queries. Data is split into partitions by the
// shared partitioner (see internal/partition); each named map stores its
// entries per partition. The store has one reader/writer lock per
// partition, shared by every map's primary copy of that partition — the
// synchronisation S-QUERY relies on so that a query sees every key's whole
// latest value while live-state updates proceed (§VII, read committed
// discussion). A writer, a tap delivery or a ReadPartition callback that
// holds partition p holds it for every map, so it may read any map's
// partition p with LookupLocked and take no lock; it must not take p's
// lock again, because a Go RWMutex is not reentrant and a nested read
// waits behind a pending writer.
//
// The store is cluster-wide; callers address it through a NodeView, which
// identifies the calling node so that operations on partitions owned by a
// different node pay the (simulated) network cost. Operator instances use
// the view of the node they are scheduled on — with co-located scheduling
// their state operations are always local — while external query clients
// use a client view that is remote to every node.
package kv

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/metrics"
	"squery/internal/partition"
	"squery/internal/transport"
	"squery/internal/wire"
)

// ClientNode is the pseudo node id used by external clients (the query
// system); it is remote to every store node.
const ClientNode = transport.ClientNode

// FaultHook is the fault-injection seam, re-exported from the transport
// layer where it now lives: faults happen to the network, not to the
// store. See transport.FaultHook for the contract. The hook is consulted
// only on the fallible access paths the query layer uses (CheckAccess /
// CheckBackupAccess) — the data plane's co-located state operations never
// route through it, so injected faults degrade queries without
// corrupting processing.
type FaultHook = transport.FaultHook

// Store is a cluster-wide collection of named partitioned maps.
type Store struct {
	part       partition.Partitioner
	assign     *partition.Assignment
	tr         transport.Transport
	replicated bool

	// stats, when set, is the per-partition instrument set (indexed by
	// partition). Swapped atomically so SetMetrics is safe against
	// in-flight operations; nil disables all accounting.
	stats atomic.Pointer[[]*partStats]

	// migrating flags partitions whose handoff is in flight; fenced
	// writers bounce off them (see migration.go).
	migrating []atomic.Bool

	// Fencing counters (see FenceStats).
	fenceRejects atomic.Int64
	fenceRetries atomic.Int64
	fenceForced  atomic.Int64

	// locks holds partition p's lock at index p: every map's primary
	// segment of p points at it.
	locks []sync.RWMutex

	mu   sync.RWMutex
	maps map[string]*Map
}

// partStats is the resolved instrument set of one partition, keyed
// ("kv", "p<N>") in the registry. Resolution happens once at SetMetrics
// time so the data path never pays a registry lookup.
type partStats struct {
	gets       *metrics.Counter
	sets       *metrics.Counter
	deletes    *metrics.Counter
	scans      *metrics.Counter
	lockWaits  *metrics.Counter
	lockWaitNs *metrics.Counter
}

// NewStore creates a store over the given partitioning and assignment.
// All inter-node operations flow through tr; nil selects a free (zero
// latency, still accounted) simulated transport.
func NewStore(p partition.Partitioner, a *partition.Assignment, tr transport.Transport) *Store {
	if a.Partitions() != p.Count() {
		panic(fmt.Sprintf("kv: assignment has %d partitions, partitioner %d", a.Partitions(), p.Count()))
	}
	if tr == nil {
		tr = transport.NewSim(transport.SimConfig{})
	}
	return &Store{
		part:      p,
		assign:    a,
		tr:        tr,
		migrating: make([]atomic.Bool, p.Count()),
		locks:     make([]sync.RWMutex, p.Count()),
		maps:      make(map[string]*Map),
	}
}

// Transport returns the transport the store sends through.
func (s *Store) Transport() transport.Transport { return s.tr }

// Partitioner returns the store's partitioner.
func (s *Store) Partitioner() partition.Partitioner { return s.part }

// Assignment returns the partition-to-node assignment.
func (s *Store) Assignment() *partition.Assignment { return s.assign }

// GetMap returns the named map, creating it if absent.
func (s *Store) GetMap(name string) *Map {
	s.mu.RLock()
	m := s.maps[name]
	s.mu.RUnlock()
	if m != nil {
		return m
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m = s.maps[name]; m == nil {
		m = newMap(s, name)
		s.maps[name] = m
	}
	return m
}

// mapList returns the store's maps, in no particular order.
func (s *Store) mapList() []*Map {
	s.mu.RLock()
	defer s.mu.RUnlock()
	maps := make([]*Map, 0, len(s.maps))
	for _, m := range s.maps {
		maps = append(maps, m)
	}
	return maps
}

// HasMap reports whether a map with this name exists (has been created).
func (s *Store) HasMap(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.maps[name]
	return ok
}

// MapNames returns the names of all maps in the store, sorted.
func (s *Store) MapNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.maps))
	for n := range s.maps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DropMap removes the named map and its data.
func (s *Store) DropMap(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.maps, name)
}

// ClearMap empties the named map's data — every entry in every primary
// and backup partition — while keeping the map object and its index
// *definitions*: indexes are schema, not state, so their pairs are
// reset alongside the entries but the indexes stay registered and
// maintained. Recovery paths that wipe never-committed live state use
// this instead of DropMap, which would silently drop the table's indexes
// with it.
func (s *Store) ClearMap(name string) {
	s.mu.RLock()
	m := s.maps[name]
	s.mu.RUnlock()
	if m != nil {
		m.Clear()
	}
}

// View returns a NodeView for operations issued from the given node.
// Use ClientNode for external clients.
func (s *Store) View(node int) NodeView {
	return NodeView{store: s, node: node}
}

// SetMetrics installs (or, with nil, removes) per-partition operation
// accounting: get/set/delete/scan counts plus waits on the partition's
// lock (events and summed nanoseconds) under ("kv", "p<N>"): a writer
// waiting behind a scan's copy, a reader waiting behind a write — of the
// same map or of any other, since every map's partition p shares one lock.
// Lock waits are measured only on the contended path — a failed TryLock or
// TryRLock — so the uncontended hot path pays one counter increment per
// operation and reads no clock.
func (s *Store) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		s.stats.Store(nil)
		return
	}
	sl := make([]*partStats, s.part.Count())
	for p := range sl {
		id := "p" + strconv.Itoa(p)
		sl[p] = &partStats{
			gets:       reg.Counter("kv", id, "gets"),
			sets:       reg.Counter("kv", id, "sets"),
			deletes:    reg.Counter("kv", id, "deletes"),
			scans:      reg.Counter("kv", id, "scans"),
			lockWaits:  reg.Counter("kv", id, "lock_waits"),
			lockWaitNs: reg.Counter("kv", id, "lock_wait_ns"),
		}
	}
	s.stats.Store(&sl)
}

// statsFor returns partition p's instruments, or nil when disabled.
func (s *Store) statsFor(p int) *partStats {
	sl := s.stats.Load()
	if sl == nil {
		return nil
	}
	return (*sl)[p]
}

// lockWith write-locks mu. An uncontended acquisition is a TryLock and
// reads no clock; only a wait is timed and charged to st (when non-nil).
func lockWith(mu *sync.RWMutex, st *partStats) {
	if !mu.TryLock() {
		waitWith(mu.Lock, st)
	}
}

// rlockWith is lockWith for the read side.
func rlockWith(mu *sync.RWMutex, st *partStats) {
	if !mu.TryRLock() {
		waitWith(mu.RLock, st)
	}
}

// waitWith runs the blocking acquisition lock and charges its wait to st.
func waitWith(lock func(), st *partStats) {
	if st == nil {
		lock()
		return
	}
	start := time.Now()
	lock()
	st.lockWaits.Inc()
	st.lockWaitNs.Add(time.Since(start).Nanoseconds())
}

// SetFaultHook installs (or clears, with nil) the fault-injection hook
// on the store's transport.
func (s *Store) SetFaultHook(h FaultHook) { s.tr.SetFaultHook(h) }

// CheckAccess reports whether node `from` can currently reach the primary
// copy of partition p, consulting the transport's fault hook. A stalled
// partition blocks here for the injected delay; an unreachable one
// returns a typed error wrapping the hook's. Local access (from == owner)
// is never faulted — a node cannot be partitioned away from itself.
func (s *Store) CheckAccess(from, p int) error {
	owner := s.assign.Owner(p)
	if err := s.tr.Check(from, owner, p); err != nil {
		return fmt.Errorf("kv: partition %d (node %d) unreachable from node %d: %w", p, owner, from, err)
	}
	return nil
}

// CheckBackupAccess is CheckAccess against the partition's backup copy —
// the degraded read path when the primary is severed.
func (s *Store) CheckBackupAccess(from, p int) error {
	backup := s.assign.Backup(p)
	if err := s.tr.Check(from, backup, p); err != nil {
		return fmt.Errorf("kv: backup of partition %d (node %d) unreachable from node %d: %w", p, backup, from, err)
	}
	return nil
}

// Entry is one key-value pair in a map.
type Entry struct {
	Key   partition.Key
	Value any
}

// segment is the slice of one map living in one partition. Its lock is
// all the store's exclusion: a write holds it for the whole
// read-modify-write of its partition group, a read for its map access or
// its point-in-time copy. A primary segment's lock is its partition's
// store lock, shared with every other map's segment of the partition —
// snapshot maps included; a backup segment owns its lock.
type segment struct {
	mu      *sync.RWMutex
	entries map[string]Entry // canonical key string -> entry
	frozen  Frozen           // a snapshot map's immutable image (frozen.go)
}

// newBackups returns a map's backup segments, each with its own lock.
func newBackups(n int) []*segment {
	bs := make([]*segment, n)
	for i := range bs {
		bs[i] = &segment{mu: new(sync.RWMutex), entries: make(map[string]Entry)}
	}
	return bs
}

// Map is a named, partitioned key-value map. With replication enabled,
// every partition has a synchronously maintained backup copy (notionally
// on the partition's backup node).
type Map struct {
	store   *Store
	name    string
	segs    []*segment
	backups []*segment
	mapIndexState
	mapTapState
	// resets counts wholesale partition replacements (see Resets).
	resets atomic.Int64
}

func newMap(s *Store, name string) *Map {
	m := &Map{store: s, name: name, segs: make([]*segment, s.part.Count())}
	for i := range m.segs {
		m.segs[i] = &segment{mu: &s.locks[i], entries: make(map[string]Entry)}
	}
	if s.replicated {
		m.backups = newBackups(s.part.Count())
	}
	return m
}

// Name returns the map's name. Live-state maps are named after their
// operator; snapshot maps use the snapshot_<operator> convention (§V.B).
func (m *Map) Name() string { return m.name }

// Store returns the store this map belongs to.
func (m *Map) Store() *Store { return m.store }

// PartitionOf returns the partition owning the key.
func (m *Map) PartitionOf(key partition.Key) int { return m.store.part.Of(key) }

// get loads the value for key; ok is false if absent. Reads are never
// fenced: against shared-memory segments a stale-owner read is just a
// misrouted (and so charged) hop, not a split-brain hazard — only writes
// can create two half-owners, so only writes carry the epoch stamp.
func (m *Map) get(v NodeView, key partition.Key) (any, bool) {
	node := v.node
	p := m.store.part.Of(key)
	if owner := v.ownerOf(p); node != owner {
		m.store.tr.Send(transport.Msg{From: node, To: owner, Ops: 1, Bytes: wire.Size(key)})
	}
	e, ok := m.Lookup(p, partition.KeyString(key), false)
	return e.Value, ok
}

// Size returns the total number of entries across all partitions, a
// frozen image counting its distinct keys.
func (m *Map) Size() int {
	n, _, _ := m.Sample(-1)
	return n
}

// Lookup returns the entry stored in partition p under the canonical key
// string ks (partition.KeyString of its key) — from the primary copy, or
// from the backup copy when backup is set. It is the keyed partition read
// of a query that already runs where the partition lives: no hop is
// charged, and like GetAll it holds only the segment read-lock, for the
// map access alone.
func (m *Map) Lookup(p int, ks string, backup bool) (Entry, bool) {
	if backup {
		if m.backups == nil {
			return Entry{}, false
		}
		return readSeg(m.backups[p], nil, ks)
	}
	st := m.store.statsFor(p)
	if st != nil {
		st.gets.Inc()
	}
	return readSeg(m.segs[p], st, ks)
}

// Peek is Lookup on the primary copy without counting a get: an operator
// instance reading its own state, which is no store operation of the
// partition's accounting — whether a read finds the key in the instance's
// write-behind batch or here depends on when the batch last flushed, and
// the counters must not.
func (m *Map) Peek(p int, ks string) (Entry, bool) {
	return readSeg(m.segs[p], m.store.statsFor(p), ks)
}

// LookupLocked is Lookup on the primary copy for a caller that already
// holds partition p's lock: inside a tap delivery or a ReadPartition
// callback of partition p, on this map or any other of the store. It takes
// no lock — taking p's again there could deadlock — and is valid nowhere
// else.
func (m *Map) LookupLocked(p int, ks string) (Entry, bool) {
	if st := m.store.statsFor(p); st != nil {
		st.gets.Inc()
	}
	e, ok := m.segs[p].entries[ks]
	return e, ok
}

// readSeg reads one entry of seg under its read lock.
func readSeg(seg *segment, st *partStats, ks string) (Entry, bool) {
	rlockWith(seg.mu, st)
	e, ok := seg.entries[ks]
	seg.mu.RUnlock()
	return e, ok
}

// Sample returns, in one pass, the number of entries in partition p — in
// the whole map when p is negative, a frozen image counting its keys — and
// one of its entries, for callers that need to know how much a scan will
// visit and what kind of value it will find there. ok is false when there
// is no entry. A pruned plan pays one segment read-lock for both answers.
func (m *Map) Sample(p int) (size int, e Entry, ok bool) {
	lo, hi := 0, len(m.segs)
	if p >= 0 {
		lo, hi = p, p+1
	}
	for q := lo; q < hi; q++ {
		seg := m.segs[q]
		rlockWith(seg.mu, m.store.statsFor(q))
		size += len(seg.entries) + frozenKeys(seg.frozen)
		if !ok {
			e, ok = seg.one()
		}
		seg.mu.RUnlock()
	}
	return size, e, ok
}

// Find returns an entry from the first partition that holds one,
// read-locking one segment at a time and stopping there. ok is false when
// the map holds none.
func (m *Map) Find() (e Entry, ok bool) {
	for q, seg := range m.segs {
		rlockWith(seg.mu, m.store.statsFor(q))
		e, ok = seg.one()
		seg.mu.RUnlock()
		if ok {
			break
		}
	}
	return e, ok
}

// one returns one of seg's entries; the caller holds seg's lock.
func (seg *segment) one() (Entry, bool) {
	for _, c := range seg.entries {
		return c, true
	}
	return Entry{}, false
}

// Clear removes all entries and frozen images (and their backup copies).
func (m *Map) Clear() {
	for p, seg := range m.segs {
		seg.mu.Lock()
		m.resetPartitionLocked(p, seg, make(map[string]Entry))
		seg.frozen = nil
		seg.mu.Unlock()
	}
	for _, bak := range m.backups {
		bak.mu.Lock()
		bak.entries = make(map[string]Entry)
		bak.frozen = nil
		bak.mu.Unlock()
	}
}

// resetPartitionLocked is the one wholesale-replacement path: partition
// p's entries become `entries`, and everything derived from them follows
// under the same hold of the segment write lock the caller owns — every
// tap receives the difference as ordinary deltas (a tombstone per entry
// that went, an upsert per entry that is new or changed, each naming the
// value it replaced), and every index's pairs are rebuilt. A nil
// `entries` keeps the current ones — a seat flipped under them — so
// nothing is compared and nothing is emitted.
// Clear, failover promotion and the post-migration rebuild all end here;
// inline maintenance never saw what they installed.
func (m *Map) resetPartitionLocked(p int, seg *segment, entries map[string]Entry) {
	m.resets.Add(1)
	if entries != nil {
		var ds []Delta
		taps := m.tapSet()
		if len(taps) > 0 {
			ds = m.diffLocked(p, seg, entries)
		}
		seg.entries = entries
		if len(ds) > 0 {
			m.handTaps(taps, ds)
		}
	}
	for _, ix := range m.indexSet() {
		ix.rebuildLocked(p, seg.entries)
	}
}

// ResetPartition replaces partition p of the named map wholesale with
// entries, keyed by canonical key string; the map takes ownership of
// entries. It is resetPartitionLocked behind the epoch fence, retried the
// way PutBatch retries a rejected group: taps receive only the keys that
// differ, indexes are rebuilt, and with replication the backup copy
// follows in one hop. Recovery installs an instance's restored partitions
// through it.
func (v NodeView) ResetPartition(mapName string, p int, entries map[string]Entry) {
	m := v.store.GetMap(mapName)
	s := v.store
	var cp map[string]Entry // the backup's copy, taken while entries is still the caller's
	if s.replicated {
		cp = make(map[string]Entry, len(entries))
		for ks, e := range entries {
			cp[ks] = e
		}
	}
	if owner := v.ownerOf(p); v.node != owner {
		s.tr.Send(transport.Msg{From: v.node, To: owner, Ops: len(entries)})
	}
	seg := m.segs[p]
	v.fenced(func(force bool) error {
		lockWith(seg.mu, s.statsFor(p))
		defer seg.mu.Unlock()
		if !force {
			if err := s.checkFence(v.fence, p); err != nil {
				return err
			}
		}
		m.resetPartitionLocked(p, seg, entries)
		return nil
	})
	if cp == nil {
		return
	}
	if owner, backup := s.assign.Owner(p), s.assign.Backup(p); owner != backup {
		s.tr.Send(transport.Msg{From: owner, To: backup, Ops: len(cp)})
	}
	bak := m.backups[p]
	bak.mu.Lock()
	bak.entries = cp
	bak.mu.Unlock()
}

// diffLocked returns the deltas that take partition p from its current
// entries to next.
func (m *Map) diffLocked(p int, seg *segment, next map[string]Entry) []Delta {
	var ds []Delta
	for ks, old := range seg.entries {
		if _, ok := next[ks]; !ok {
			ds = append(ds, Delta{Part: p, Key: old.Key, KeyS: ks, Old: old.Value, HadOld: true, Tombstone: true})
		}
	}
	for ks, e := range next {
		old, had := seg.entries[ks]
		if had && reflect.DeepEqual(old.Value, e.Value) {
			continue
		}
		ds = append(ds, Delta{Part: p, Key: e.Key, KeyS: ks, Value: e.Value, Old: old.Value, HadOld: had})
	}
	return ds
}

// Resets returns how many wholesale partition replacements the map has
// been through — each partition a Clear emptied, each failover promotion
// and each post-migration rebuild, whether or not it changed an entry.
func (m *Map) Resets() int64 { return m.resets.Load() }

// ScanBatch is the most entries a partition scan hands its callback at
// once. A query evaluates a chunk one expression node at a time, so each
// loop reads one column of many independent rows and the CPU overlaps
// their cache misses; a chunk must be long enough for that overlap and
// short enough that its rows and the evaluator's columns stay in cache.
// Measured with `go test ./internal/sql -bench 'BenchmarkReadPath/.*/parts=16'
// -cpu 1` (50 K rows in partitions of about 3 100, one core of a 2-vCPU
// Xeon container, medians of 7 runs), grouped scan / Query 1: 7.3 / 22.3
// ms at 32, 7.0 / 20.7 ms at 128, 6.6 / 19.6 ms at 256, 7.3 / 22.9 ms at
// 1024.
const ScanBatch = 256

// ScanOpts tunes a partition scan.
type ScanOpts struct {
	// Done, when non-nil, cancels the scan once closed — the early-stop
	// hook for LIMIT queries and failed sibling scans. Checked between
	// chunks, so an in-flight fn call always completes.
	Done <-chan struct{}
	// Buf, when non-nil, is scratch the point-in-time copy is taken into
	// and left in, grown as needed: a goroutine scanning many partitions
	// hands every scan the same buffer instead of allocating a copy each.
	Buf *[]Entry
}

// scratch returns the slice a scan copies n entries into.
func (o ScanOpts) scratch(n int) []Entry {
	if o.Buf != nil && cap(*o.Buf) >= n {
		return (*o.Buf)[:0]
	}
	return make([]Entry, 0, n)
}

// chunks hands a scan's copied entries to fn outside the segment lock, at
// most ScanBatch at a time, polling Done before each chunk.
func (o ScanOpts) chunks(entries []Entry, fn func([]Entry) bool) {
	if o.Buf != nil {
		*o.Buf = entries
	}
	for len(entries) > 0 {
		if o.Done != nil {
			select {
			case <-o.Done:
				return
			default:
			}
		}
		n := min(len(entries), ScanBatch)
		if !fn(entries[:n:n]) {
			return
		}
		entries = entries[n:]
	}
}

// eachEntry adapts a per-entry callback to a chunk callback.
func eachEntry(fn func(Entry) bool) func([]Entry) bool {
	return func(es []Entry) bool {
		for _, e := range es {
			if !fn(e) {
				return false
			}
		}
		return true
	}
}

// ScanPartition calls fn for a point-in-time copy of every entry in
// partition p. Copy-then-iterate keeps the lock hold time proportional to
// partition size, never to fn's cost — queries must not stall processing.
func (m *Map) ScanPartition(p int, fn func(Entry) bool) {
	m.ScanPartitionWith(p, ScanOpts{}, eachEntry(fn))
}

// ScanPartitionWith is ScanPartition a chunk at a time, with
// cancellation: fn receives the point-in-time copy in chunks of at most
// ScanBatch entries, outside the segment lock — the lock-hold invariant is
// unchanged no matter what fn does with a chunk. A chunk is only valid
// until fn returns.
func (m *Map) ScanPartitionWith(p int, o ScanOpts, fn func([]Entry) bool) {
	st := m.store.statsFor(p)
	if st != nil {
		st.scans.Inc()
	}
	scanSeg(m.segs[p], st, o, fn)
}

// ScanPartitionBackupWith is ScanPartitionWith against the partition's
// backup copy — the degraded read path a query falls back to when the
// primary is unreachable, still a chunked fragment read. Without
// replication it visits nothing.
func (m *Map) ScanPartitionBackupWith(p int, o ScanOpts, fn func([]Entry) bool) {
	if m.backups == nil {
		return
	}
	scanSeg(m.backups[p], nil, o, fn)
}

// scanSeg copies seg's entries under its read lock, charging a wait to st,
// and hands the copy to fn outside it.
func scanSeg(seg *segment, st *partStats, o ScanOpts, fn func([]Entry) bool) {
	rlockWith(seg.mu, st)
	entries := o.scratch(len(seg.entries))
	for _, e := range seg.entries {
		entries = append(entries, e)
	}
	seg.mu.RUnlock()
	o.chunks(entries, fn)
}

// NodeView is the handle a specific node (or external client) uses to
// operate on the store. All network accounting flows through it. A view
// obtained from FencedView additionally stamps every write with the epoch
// of a cached partition-table snapshot and transparently retries writes
// the store rejects as stale (see migration.go).
type NodeView struct {
	store *Store
	node  int
	fence *fenceState
}

// Node returns the node this view represents.
func (v NodeView) Node() int { return v.node }

// Store returns the underlying store.
func (v NodeView) Store() *Store { return v.store }

// ChargeHop charges the network cost of one message from this view's node
// to the given node. Callers that bypass per-key accounting (e.g. a query
// engine scanning whole partitions per node) use it to keep the network
// model honest.
func (v NodeView) ChargeHop(to int) {
	v.store.tr.Send(transport.Msg{From: v.node, To: to})
}

// Put stores value under key in the named map, retrying through the epoch
// fence for fenced views.
func (v NodeView) Put(mapName string, key partition.Key, value any) {
	v.applyOne(mapName, Op{Key: key, Value: value})
}

// Get loads the value under key from the named map.
func (v NodeView) Get(mapName string, key partition.Key) (any, bool) {
	return v.store.GetMap(mapName).get(v, key)
}

// Delete removes key from the named map; it reports whether the key was
// present.
func (v NodeView) Delete(mapName string, key partition.Key) bool {
	return v.applyOne(mapName, Op{Key: key, Delete: true}) < 0
}

// GetAll loads the values for all keys, preserving order; missing keys
// yield nil entries in the result. It is the batched read path: one
// network hop per distinct remote node touched rather than per key — the
// getAll batching a distributed map offers. Locking stays per key: each
// lookup takes its partition's read lock for that one map access, so a
// long key list never holds a partition against its writers. (The read
// lock suffices: a writer holds the write lock for its whole
// read-modify-write, so a reader can never observe a torn entry.)
func (v NodeView) GetAll(mapName string, keys []partition.Key) []any {
	m := v.store.GetMap(mapName)
	// One pass, one hash per key: read the key and count it against its
	// owner. Then charge one message per remote node involved, carrying
	// that node's share of the keys, in first-touch order so the
	// transport's jitter sequence stays deterministic for a given key
	// order. The counts are node-indexed; clusters past the stack arrays'
	// size pay one allocation for them.
	var countBuf, orderBuf [getAllStackNodes]int
	counts, order := countBuf[:], orderBuf[:0]
	table := v.store.assign.Table()
	if n := table.Nodes(); n > len(counts) {
		counts, order = make([]int, n), make([]int, 0, n)
	}
	out := make([]any, len(keys))
	for i, k := range keys {
		p := v.store.part.Of(k)
		if owner := table.Owner(p); owner != v.node {
			if counts[owner] == 0 {
				order = append(order, owner)
			}
			counts[owner]++
		}
		if e, ok := readSeg(m.segs[p], v.store.statsFor(p), partition.KeyString(k)); ok {
			out[i] = e.Value
		}
	}
	for _, owner := range order {
		v.store.tr.Send(transport.Msg{From: v.node, To: owner, Ops: counts[owner]})
	}
	return out
}

// getAllStackNodes is the cluster size up to which GetAll counts keys per
// owner on its stack.
const getAllStackNodes = 16

// Scan streams a point-in-time copy of every entry in the map to fn,
// partition by partition, charging one network hop per remote node. fn
// returning false stops the scan.
func (v NodeView) Scan(mapName string, fn func(Entry) bool) {
	m := v.store.GetMap(mapName)
	// One message per remote node, carrying its partition count as the
	// operation count.
	var order []int
	counts := make(map[int]int)
	for p := 0; p < v.store.part.Count(); p++ {
		owner := v.store.assign.Owner(p)
		if owner == v.node {
			continue
		}
		if counts[owner] == 0 {
			order = append(order, owner)
		}
		counts[owner]++
	}
	for _, owner := range order {
		v.store.tr.Send(transport.Msg{From: v.node, To: owner, Ops: counts[owner]})
	}
	stop := false
	for p := 0; p < v.store.part.Count() && !stop; p++ {
		m.ScanPartition(p, func(e Entry) bool {
			if !fn(e) {
				stop = true
				return false
			}
			return true
		})
	}
}

// Package kv implements the partitioned in-memory key-value store that
// plays the role of Hazelcast IMDG in the paper: the state backend that
// S-QUERY exposes to external queries. Data is split into partitions by the
// shared partitioner (see internal/partition); each named map stores its
// entries per partition, guarded by striped key-level locks — the same
// locking S-QUERY uses to synchronise live-state updates against concurrent
// reads (§VII, read committed discussion).
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
// *definitions*: indexes are schema, not state, so their postings are
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
// accounting: get/set/delete/scan counts plus lock-wait events and summed
// lock-wait nanoseconds under ("kv", "p<N>"). Lock waits are measured only
// on the contended path — a failed TryLock — so the uncontended hot path
// pays one counter increment per operation and nothing else.
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

// lockWith acquires lk, charging contention to st only on the slow path:
// an uncontended (or uninstrumented) acquisition is a plain Lock.
func lockWith(lk *sync.Mutex, st *partStats) {
	if st == nil {
		lk.Lock()
		return
	}
	if lk.TryLock() {
		return
	}
	start := time.Now()
	lk.Lock()
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

// lockStripes is the number of key-lock stripes per partition segment.
// Striping approximates per-key locks without per-key mutex allocation.
const lockStripes = 8

// segment is the slice of one map living in one partition.
type segment struct {
	mu      sync.RWMutex // guards the entries map structure
	stripes [lockStripes]sync.Mutex
	entries map[string]Entry // canonical key string -> entry
}

// stripeOf maps a canonical key string to its lock stripe.
func stripeOf(ks string) int {
	var h uint32
	for i := 0; i < len(ks); i++ {
		h = h*31 + uint32(ks[i])
	}
	return int(h % lockStripes)
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
		m.segs[i] = &segment{entries: make(map[string]Entry)}
	}
	if s.replicated {
		m.backups = make([]*segment, s.part.Count())
		for i := range m.backups {
			m.backups[i] = &segment{entries: make(map[string]Entry)}
		}
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
	st := m.store.statsFor(p)
	seg := m.segs[p]
	ks := partition.KeyString(key)
	lk := &seg.stripes[stripeOf(ks)]
	lockWith(lk, st)
	seg.mu.RLock()
	e, ok := seg.entries[ks]
	seg.mu.RUnlock()
	lk.Unlock()
	if st != nil {
		st.gets.Inc()
	}
	if !ok {
		return nil, false
	}
	return e.Value, true
}

// Size returns the total number of entries across all partitions.
func (m *Map) Size() int {
	n, _, _ := m.Sample(-1, nil)
	return n
}

// Lookup returns the entry stored in partition p under the canonical key
// string ks (partition.KeyString of its key) — from the primary copy, or
// from the backup copy when backup is set. It is the keyed partition read
// of a query that already runs where the partition lives: no hop is
// charged, and like GetAll it holds only the segment read-lock, for the
// map access alone.
func (m *Map) Lookup(p int, ks string, backup bool) (Entry, bool) {
	seg := m.segs[p]
	if backup {
		if m.backups == nil {
			return Entry{}, false
		}
		seg = m.backups[p]
	} else if st := m.store.statsFor(p); st != nil {
		st.gets.Inc()
	}
	seg.mu.RLock()
	e, ok := seg.entries[ks]
	seg.mu.RUnlock()
	return e, ok
}

// Sample returns, in one pass, the number of entries in partition p — in
// the whole map when p is negative — and one of them that usable accepts
// (any entry when usable is nil), for callers that need to know how much a
// scan will visit and what kind of value it will find there. ok is false
// when there is no such entry. A pruned plan pays one segment read-lock
// for both answers.
func (m *Map) Sample(p int, usable func(Entry) bool) (size int, e Entry, ok bool) {
	segs := m.segs
	if p >= 0 {
		segs = segs[p : p+1]
	}
	for _, seg := range segs {
		seg.mu.RLock()
		size += len(seg.entries)
		if !ok {
			for _, c := range seg.entries {
				if usable == nil || usable(c) {
					e, ok = c, true
					break
				}
			}
		}
		seg.mu.RUnlock()
	}
	return size, e, ok
}

// Clear removes all entries (and their backup copies).
func (m *Map) Clear() {
	for p, seg := range m.segs {
		seg.mu.Lock()
		m.resetPartitionLocked(p, seg, make(map[string]Entry))
		seg.mu.Unlock()
	}
	for _, bak := range m.backups {
		bak.mu.Lock()
		bak.entries = make(map[string]Entry)
		bak.mu.Unlock()
	}
}

// resetPartitionLocked is the one wholesale-replacement path: partition
// p's entries become `entries`, and everything derived from them follows
// under the same hold of the segment write lock the caller owns — every
// tap receives the difference as ordinary deltas (a tombstone per entry
// that went, an upsert per entry that is new or changed, each naming the
// value it replaced), and every index's postings are rebuilt. A nil
// `entries` keeps the current ones — a seat flipped under them — so
// nothing is compared and nothing is emitted.
// Clear, failover promotion and the post-migration rebuild all end here;
// inline maintenance never saw what they installed.
func (m *Map) resetPartitionLocked(p int, seg *segment, entries map[string]Entry) {
	m.resets.Add(1)
	if entries != nil {
		if taps := m.tapSet(); len(taps) > 0 {
			if ds := m.diffLocked(p, seg, entries); len(ds) > 0 {
				for _, t := range taps {
					t.OnDeltas(ds)
				}
			}
		}
		seg.entries = entries
	}
	for _, ix := range m.indexSet() {
		ix.rebuildLocked(p, seg.entries)
	}
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

// ScanOpts tunes a pushdown-aware partition scan.
type ScanOpts struct {
	// Filter, when non-nil, runs against every entry on the owning node;
	// only accepted entries reach fn. This is the predicate-pushdown hook:
	// a selective query filters where the data lives instead of shipping
	// every row across the (simulated) network.
	Filter func(Entry) bool
	// Done, when non-nil, cancels the scan once closed — the early-stop
	// hook for LIMIT queries and failed sibling scans. Checked between
	// entries, so an in-flight fn call always completes.
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

// iterate streams a scan's copied entries to fn outside the segment lock,
// applying the filter and polling Done.
func (o ScanOpts) iterate(entries []Entry, fn func(Entry) bool) {
	if o.Buf != nil {
		*o.Buf = entries
	}
	for i, e := range entries {
		if o.Done != nil && i%doneCheckEvery == 0 {
			select {
			case <-o.Done:
				return
			default:
			}
		}
		if o.Filter != nil && !o.Filter(e) {
			continue
		}
		if !fn(e) {
			return
		}
	}
}

// ScanPartition calls fn for a point-in-time copy of every entry in
// partition p. Copy-then-iterate keeps the lock hold time proportional to
// partition size, never to fn's cost — queries must not stall processing.
func (m *Map) ScanPartition(p int, fn func(Entry) bool) {
	m.ScanPartitionWith(p, ScanOpts{}, fn)
}

// ScanPartitionWith is ScanPartition with node-side filtering and
// cancellation. The filter and the done check both run after the copy,
// outside the segment lock — the lock-hold invariant is unchanged no
// matter how expensive the pushed predicate is.
func (m *Map) ScanPartitionWith(p int, o ScanOpts, fn func(Entry) bool) {
	if st := m.store.statsFor(p); st != nil {
		st.scans.Inc()
	}
	scanSeg(m.segs[p], o, fn)
}

// ScanPartitionBackup is ScanPartition against the partition's backup
// copy — the degraded read path a query falls back to when the primary is
// unreachable. Without replication it visits nothing.
func (m *Map) ScanPartitionBackup(p int, fn func(Entry) bool) {
	m.ScanPartitionBackupWith(p, ScanOpts{}, fn)
}

// ScanPartitionBackupWith is ScanPartitionWith against the backup copy,
// so a degraded (fallback) read still benefits from pushdown.
func (m *Map) ScanPartitionBackupWith(p int, o ScanOpts, fn func(Entry) bool) {
	if m.backups == nil {
		return
	}
	scanSeg(m.backups[p], o, fn)
}

// doneCheckEvery is how many entries a scan processes between polls of
// the Done channel.
const doneCheckEvery = 32

func scanSeg(seg *segment, o ScanOpts, fn func(Entry) bool) {
	seg.mu.RLock()
	entries := o.scratch(len(seg.entries))
	for _, e := range seg.entries {
		entries = append(entries, e)
	}
	seg.mu.RUnlock()
	o.iterate(entries, fn)
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
// network hop per distinct remote node touched and one lock acquisition
// per partition rather than per key — the getAll batching a distributed
// map offers. (Reads only need the segment read-lock: writers hold the
// segment write-lock for the actual mutation, so a reader can never
// observe a torn entry; the per-key stripe locks serialize only the
// single-key read-modify cycles.)
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
		seg := m.segs[p]
		seg.mu.RLock()
		e, ok := seg.entries[partition.KeyString(k)]
		seg.mu.RUnlock()
		if ok {
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

// Entries returns a point-in-time copy of all entries in the map.
func (v NodeView) Entries(mapName string) []Entry {
	var out []Entry
	v.Scan(mapName, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"squery/internal/kv"
)

// Shared arrangements (McSherry et al., "Shared Arrangements"): one
// refcounted tap on a live state table that N standing queries attach to.
// The arrangement keeps no copy of the table — the kv map is the one copy,
// and its change stream names on every delta the value the mutation
// replaced, wholesale replacements (rebalance, failover, clear) included,
// which kv delivers as the difference they made. So the arrangement wraps
// each tap group once and hands it to its listeners on the writer's
// goroutine. It hands rows as their state objects: a row's by-name view is
// adapted only on first use by name (TableRow.Row), which a reader whose
// columns are bound to the table's schema never makes. A reader attaches
// by registering its listener, then seeding from the map partition by
// partition, each under that partition's segment lock — the lock that
// also orders every delta of the partition, so a delta is either in a
// seed or reaches the listener after it. The first reader's Acquire
// attaches the tap; the last reader's release detaches it.

// ArrDelta is one change an arrangement delivers to its listeners: an
// upsert carrying the new row, or a tombstone for a removed key.
type ArrDelta struct {
	Row TableRow // Key/Raw set on upserts; Key only on tombstones
	// Old is the row this delta replaced, valid when HadOld: always on
	// tombstones, on upserts of a key the table already held, never on a
	// first insert. A listener that seeded the delta's partition from
	// Attach before the delta last saw exactly this row for the key, so it
	// needs no mirror of the table to retract it.
	Old       TableRow
	HadOld    bool
	KeyS      string
	Part      int
	Tombstone bool
}

// ArrListener receives ordered arrangement delta groups. Listeners run on
// the writing goroutine with the mutated partition's segment write lock and
// the arrangement's listener read lock held — the tap's own contract: a
// listener does bounded work under its own lock, never blocks on anything
// a writer can hold, and never calls back into the arrangement (Detach
// included) or the store. Writers to different partitions call it
// concurrently. The group is shared with every other listener: read it,
// never modify it.
type ArrListener func(ds []ArrDelta)

// Arrangement is one shared tap on a live table. It implements kv.Tap.
type Arrangement struct {
	reg       *ArrangeRegistry
	table     string
	m         *kv.Map
	refs      int   // guarded by reg.mu
	resetBase int64 // m.Resets() when the arrangement was built

	// lisMu is read-held around every fan-out and write-held to register
	// or remove a listener, so no group reaches a listener after Detach
	// returns. Attach does not hold it while it seeds: a writer fans out
	// under its segment lock, so the lock order is segment, then lisMu.
	lisMu     sync.RWMutex
	listeners map[int]ArrListener
	nextLis   int

	handed atomic.Int64 // deltas handed on, whether or not anyone listens
}

// OnDeltas implements kv.Tap: called under the segment write lock, it
// wraps the group once and hands it to every listener.
func (a *Arrangement) OnDeltas(ds []kv.Delta) {
	a.handed.Add(int64(len(ds)))
	a.lisMu.RLock()
	defer a.lisMu.RUnlock()
	if len(a.listeners) == 0 {
		return
	}
	out := make([]ArrDelta, len(ds))
	for i, d := range ds {
		out[i] = ArrDelta{Row: TableRow{Key: d.Key}, HadOld: d.HadOld, KeyS: d.KeyS,
			Part: d.Part, Tombstone: d.Tombstone}
		if !d.Tombstone {
			out[i].Row.Raw = d.Value
		}
		if d.HadOld {
			out[i].Old = TableRow{Key: d.Key, Raw: d.Old}
		}
	}
	for _, fn := range a.listeners {
		fn(out)
	}
}

// Attach registers a listener, then calls seed once per partition with
// that partition's rows, under its segment read lock. Deltas reach the
// listener from the moment it is registered, so a delta of partition p
// reaches it either before seed(p) — and the rows seed(p) is handed
// already hold its effect — or after seed(p) returns, on rows it has not
// seen. seed runs under the listener's contract, and its rows are valid
// only during the call. Detach with the returned id.
func (a *Arrangement) Attach(fn ArrListener, seed func(p int, rows []TableRow)) int {
	a.lisMu.Lock()
	id := a.nextLis
	a.nextLis++
	a.listeners[id] = fn
	a.lisMu.Unlock()
	var rows []TableRow
	for p := 0; p < a.m.Store().Partitioner().Count(); p++ {
		a.m.ReadPartition(p, func(entries func(func(kv.Entry) bool)) {
			rows = rows[:0]
			entries(func(e kv.Entry) bool {
				rows = append(rows, TableRow{Key: e.Key, Raw: e.Value})
				return true
			})
			seed(p, rows)
		})
	}
	return id
}

// Detach removes a listener registered by Attach. No delta group reaches
// it after Detach returns.
func (a *Arrangement) Detach(id int) {
	a.lisMu.Lock()
	delete(a.listeners, id)
	a.lisMu.Unlock()
}

// Release drops one reference. The last release detaches the tap and
// removes the arrangement from its registry.
func (a *Arrangement) Release() { a.reg.release(a) }

// ArrangementInfo is the observable state of one arrangement — the rows
// behind sys.arrangements.
type ArrangementInfo struct {
	Table string
	Refs  int
	Rows  int // the arranged table's entry count
	// DeltasIn and Applied both count the deltas the arrangement has handed
	// on: there is no buffer between the tap and the listeners.
	DeltasIn int64
	Applied  int64
	Resets   int64 // partition replacements since the arrangement was built
}

// ArrangeRegistry shares arrangements by table: Acquire returns the
// existing arrangement when one exists (bumping its refcount) and attaches
// a new tap on first demand.
type ArrangeRegistry struct {
	store *kv.Store
	mu    sync.Mutex
	arrs  map[string]*Arrangement
}

// NewArrangeRegistry creates an empty registry over the store.
func NewArrangeRegistry(store *kv.Store) *ArrangeRegistry {
	return &ArrangeRegistry{store: store, arrs: make(map[string]*Arrangement)}
}

// Acquire returns the shared arrangement for the named live table,
// attaching its tap if this is the first reader. The table name is the
// operator (= live kv map) name. Callers must Release.
func (r *ArrangeRegistry) Acquire(table string) (*Arrangement, error) {
	name := LiveMapName(table)
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.arrs[name]; a != nil {
		a.refs++
		return a, nil
	}
	if !r.store.HasMap(name) {
		return nil, fmt.Errorf("core: no live state table %q to arrange", table)
	}
	m := r.store.GetMap(name)
	a := &Arrangement{reg: r, table: name, m: m, refs: 1, resetBase: m.Resets(), listeners: make(map[int]ArrListener)}
	m.AttachTap(a)
	r.arrs[name] = a
	return a, nil
}

// release drops a reference, detaching the tap at zero.
func (r *ArrangeRegistry) release(a *Arrangement) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a.refs--; a.refs == 0 {
		delete(r.arrs, a.table)
		a.m.DetachTap(a)
	}
}

// Infos returns accounting for every live arrangement, sorted by table —
// the programmatic twin of sys.arrangements.
func (r *ArrangeRegistry) Infos() []ArrangementInfo {
	r.mu.Lock()
	out := make([]ArrangementInfo, 0, len(r.arrs))
	for _, a := range r.arrs {
		n := a.handed.Load()
		out = append(out, ArrangementInfo{
			Table:    a.table,
			Refs:     a.refs,
			Rows:     a.m.Size(),
			DeltasIn: n,
			Applied:  n,
			Resets:   a.m.Resets() - a.resetBase,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

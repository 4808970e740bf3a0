package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"squery/internal/kv"
	"squery/internal/partition"
)

// Shared arrangements (McSherry et al., "Shared Arrangements"): a
// refcounted, incrementally-maintained keyed view of one live state table
// that N standing queries attach to. The first reader builds it from a
// per-partition snapshot bracketed by a kv change-stream tap (so no delta
// is lost or double-applied); every subsequent reader shares the same
// maintained copy; the last reader's release tears it down. Rebalance and
// failover flow through the tap's OnReset: the arrangement re-snapshots
// the affected partition and emits only the genuine differences, so a
// mid-subscription migration produces no duplicate deltas downstream.

// ArrDelta is one maintained-view change an arrangement delivers to its
// listeners: an upsert carrying the new row, or a tombstone for a removed
// key. Seq/Epoch carry the kv tap stamps (synthetic reset-diff deltas
// carry the post-reset snapshot floor).
type ArrDelta struct {
	Row TableRow // Key/Value/Raw set on upserts; Key only on tombstones
	// Old is the row this delta replaced in the view, valid when HadOld:
	// always on tombstones, on upserts of a key the view already held, never
	// on a first insert. Attach's snapshot and the delta stream are a clean
	// cut, so it is exactly the row a listener last saw for the key —
	// listeners need no mirror of the view to retract it.
	Old       TableRow
	HadOld    bool
	KeyS      string
	Part      int
	Seq       uint64
	Epoch     int64
	Tombstone bool
}

// ArrListener receives ordered arrangement delta groups. Listeners run on
// the arrangement's applier goroutine with its state lock held: they must
// enqueue and return — never block, never call back into the arrangement.
type ArrListener func(ds []ArrDelta)

// tapEvent is one buffered tap callback: a delta group or a reset marker,
// kept in arrival order (which is per-partition mutation order).
type tapEvent struct {
	ds    []kv.Delta
	reset bool
	part  int
}

// arrRow is one maintained row plus the partition it lives in (needed to
// scope reset diffs to the partition that was replaced).
type arrRow struct {
	row  TableRow
	part int
}

// Arrangement is one shared maintained view. It implements kv.Tap; the
// tap callbacks only buffer, and a dedicated applier goroutine folds
// buffered events into the keyed view and fans deltas out to listeners.
type Arrangement struct {
	reg   *ArrangeRegistry
	table string
	m     *kv.Map

	// mu serializes view application against listener attach/detach, so a
	// new reader's snapshot and its subsequent delta stream are a clean
	// cut: every delta applied before the copy is in the snapshot, every
	// one after is delivered.
	mu         sync.Mutex
	rows       map[string]arrRow
	appliedSeq []uint64 // per-partition floor: deltas at or below are in the view
	listeners  map[int]ArrListener
	nextLis    int
	refs       int

	// pending is the tap-side buffer: appended under the emitting
	// segment's write lock, drained by the applier. pendMu is a leaf lock.
	pendMu  sync.Mutex
	pending []tapEvent
	wake    chan struct{}
	done    chan struct{}
	stopped chan struct{}

	deltasIn  atomic.Int64  // raw tap deltas buffered
	applied   atomic.Int64  // deltas folded into the view (post-dedup)
	resets    atomic.Int64  // partition resets re-derived
	watermark atomic.Uint64 // cumulative applied deltas: the subscription watermark
}

// OnDeltas implements kv.Tap: called under the segment write lock, it
// buffers and signals the applier.
func (a *Arrangement) OnDeltas(ds []kv.Delta) {
	a.deltasIn.Add(int64(len(ds)))
	a.pendMu.Lock()
	a.pending = append(a.pending, tapEvent{ds: ds})
	a.pendMu.Unlock()
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// OnReset implements kv.Tap: partition p was replaced wholesale; queue a
// re-derive marker in stream order.
func (a *Arrangement) OnReset(p int) {
	a.pendMu.Lock()
	a.pending = append(a.pending, tapEvent{reset: true, part: p})
	a.pendMu.Unlock()
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// run is the applier goroutine: drain buffered tap events, fold them into
// the view, deliver to listeners.
func (a *Arrangement) run() {
	defer close(a.stopped)
	for {
		select {
		case <-a.done:
			return
		case <-a.wake:
		}
		for {
			a.pendMu.Lock()
			evs := a.pending
			a.pending = nil
			a.pendMu.Unlock()
			if len(evs) == 0 {
				break
			}
			a.applyEvents(evs)
		}
	}
}

// applyEvents folds one drained batch into the view and fans out the
// resulting arrangement deltas.
func (a *Arrangement) applyEvents(evs []tapEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []ArrDelta
	for _, ev := range evs {
		if ev.reset {
			out = append(out, a.resetDiffLocked(ev.part)...)
			continue
		}
		for _, d := range ev.ds {
			if d.Seq <= a.appliedSeq[d.Part] {
				continue // already covered by a snapshot or reset re-derive
			}
			a.appliedSeq[d.Part] = d.Seq
			old, had := a.rows[d.KeyS]
			ad := ArrDelta{Old: old.row, HadOld: had, KeyS: d.KeyS, Part: d.Part, Seq: d.Seq, Epoch: d.Epoch}
			if d.Tombstone {
				if !had {
					continue
				}
				delete(a.rows, d.KeyS)
				ad.Tombstone = true
				ad.Row = TableRow{Key: d.Key}
			} else {
				ad.Row = TableRow{Key: d.Key, Value: kv.AsRow(d.Value), Raw: d.Value}
				a.rows[d.KeyS] = arrRow{row: ad.Row, part: d.Part}
			}
			out = append(out, ad)
			a.applied.Add(1)
			a.watermark.Add(1)
		}
	}
	if len(out) == 0 {
		return
	}
	for _, fn := range a.listeners {
		fn(out)
	}
}

// resetDiffLocked re-snapshots partition p and reconciles the view
// against it, emitting only genuine differences — an unchanged partition
// (the common case for a migration flip, which moves ownership but not
// contents) emits nothing, which is what makes deltas exactly-once across
// a mid-subscription rebalance.
func (a *Arrangement) resetDiffLocked(p int) []ArrDelta {
	a.resets.Add(1)
	entries, seq := a.m.SnapshotPartition(p)
	if seq > a.appliedSeq[p] {
		a.appliedSeq[p] = seq
	}
	epoch := a.m.Store().Assignment().PartitionEpoch(p)
	cur := make(map[string]kv.Entry, len(entries))
	for _, e := range entries {
		cur[partition.KeyString(e.Key)] = e
	}
	var out []ArrDelta
	for ks, ar := range a.rows {
		if ar.part != p {
			continue
		}
		if _, ok := cur[ks]; !ok {
			delete(a.rows, ks)
			out = append(out, ArrDelta{
				Row: TableRow{Key: ar.row.Key}, Old: ar.row, HadOld: true, KeyS: ks, Part: p,
				Seq: a.appliedSeq[p], Epoch: epoch, Tombstone: true,
			})
			a.applied.Add(1)
			a.watermark.Add(1)
		}
	}
	for ks, e := range cur {
		old, had := a.rows[ks]
		if had && reflect.DeepEqual(old.row.Raw, e.Value) {
			continue
		}
		row := TableRow{Key: e.Key, Value: kv.AsRow(e.Value), Raw: e.Value}
		a.rows[ks] = arrRow{row: row, part: p}
		out = append(out, ArrDelta{
			Row: row, Old: old.row, HadOld: had, KeyS: ks, Part: p,
			Seq: a.appliedSeq[p], Epoch: epoch,
		})
		a.applied.Add(1)
		a.watermark.Add(1)
	}
	return out
}

// Attach registers a listener and returns a consistent snapshot of the
// maintained view plus the watermark it reflects: every delta applied
// before the snapshot is in the returned rows, every later one will reach
// the listener, with nothing delivered twice. Detach with the returned id.
func (a *Arrangement) Attach(fn ArrListener) (rows []TableRow, watermark uint64, id int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rows = make([]TableRow, 0, len(a.rows))
	for _, ar := range a.rows {
		rows = append(rows, ar.row)
	}
	id = a.nextLis
	a.nextLis++
	a.listeners[id] = fn
	return rows, a.watermark.Load(), id
}

// Detach removes a listener registered by Attach. No new delta groups are
// delivered after Detach returns.
func (a *Arrangement) Detach(id int) {
	a.mu.Lock()
	delete(a.listeners, id)
	a.mu.Unlock()
}

// Table returns the live table this arrangement maintains.
func (a *Arrangement) Table() string { return a.table }

// Watermark returns the cumulative count of deltas folded into the view.
func (a *Arrangement) Watermark() uint64 { return a.watermark.Load() }

// Release drops one reference. The last release detaches the tap, stops
// the applier and removes the arrangement from its registry.
func (a *Arrangement) Release() { a.reg.release(a) }

// ArrangementInfo is the observable state of one arrangement — the rows
// behind sys.arrangements.
type ArrangementInfo struct {
	Table     string
	Refs      int
	Rows      int
	DeltasIn  int64
	Applied   int64
	Resets    int64
	Watermark uint64
}

// ArrangeRegistry shares arrangements by table: Acquire returns the
// existing maintained view when one exists (bumping its refcount) and
// builds it on first demand.
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
// building and populating it if this is the first reader. The table name
// is the operator (= live kv map) name. Callers must Release.
func (r *ArrangeRegistry) Acquire(table string) (*Arrangement, error) {
	name := LiveMapName(table)
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.arrs[name]; a != nil {
		a.mu.Lock()
		a.refs++
		a.mu.Unlock()
		return a, nil
	}
	if !r.store.HasMap(name) {
		return nil, fmt.Errorf("core: no live state table %q to arrange", table)
	}
	m := r.store.GetMap(name)
	nparts := r.store.Partitioner().Count()
	a := &Arrangement{
		reg:        r,
		table:      name,
		m:          m,
		rows:       make(map[string]arrRow),
		appliedSeq: make([]uint64, nparts),
		listeners:  make(map[int]ArrListener),
		refs:       1,
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		stopped:    make(chan struct{}),
	}
	// Attach-then-snapshot: the tap buffers concurrent writes while each
	// partition is copied with its sequence floor; the applier later skips
	// anything the floors already cover. No write is stalled, nothing is
	// missed, nothing applies twice.
	m.AttachTap(a)
	for p := 0; p < nparts; p++ {
		entries, seq := m.SnapshotPartition(p)
		for _, e := range entries {
			ks := partition.KeyString(e.Key)
			a.rows[ks] = arrRow{
				row:  TableRow{Key: e.Key, Value: kv.AsRow(e.Value), Raw: e.Value},
				part: p,
			}
		}
		a.appliedSeq[p] = seq
	}
	go a.run()
	r.arrs[name] = a
	return a, nil
}

// release drops a reference, tearing the arrangement down at zero.
func (r *ArrangeRegistry) release(a *Arrangement) {
	r.mu.Lock()
	a.mu.Lock()
	a.refs--
	last := a.refs == 0
	if last {
		delete(r.arrs, a.table)
	}
	a.mu.Unlock()
	r.mu.Unlock()
	if !last {
		return
	}
	a.m.DetachTap(a)
	close(a.done)
	<-a.stopped
}

// Infos returns accounting for every live arrangement, sorted by table —
// the programmatic twin of sys.arrangements.
func (r *ArrangeRegistry) Infos() []ArrangementInfo {
	r.mu.Lock()
	arrs := make([]*Arrangement, 0, len(r.arrs))
	for _, a := range r.arrs {
		arrs = append(arrs, a)
	}
	r.mu.Unlock()
	out := make([]ArrangementInfo, 0, len(arrs))
	for _, a := range arrs {
		a.mu.Lock()
		out = append(out, ArrangementInfo{
			Table:     a.table,
			Refs:      a.refs,
			Rows:      len(a.rows),
			DeltasIn:  a.deltasIn.Load(),
			Applied:   a.applied.Load(),
			Resets:    a.resets.Load(),
			Watermark: a.watermark.Load(),
		})
		a.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

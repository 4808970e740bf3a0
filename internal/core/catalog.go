package core

import (
	"fmt"
	"strings"
	"sync"

	"squery/internal/kv"
	"squery/internal/partition"
	"squery/internal/snapshot"
	"squery/internal/wire"
)

// Pseudo-column names every S-QUERY table exposes in addition to the
// state object's own fields (Figure 4 of the paper).
const (
	// ColPartitionKey is the operator's state key — the join column of
	// the paper's queries (JOIN ... USING(partitionKey)).
	ColPartitionKey = "partitionKey"
	// ColSSID is the snapshot id of a snapshot-table row.
	ColSSID = "ssid"
)

// TableRow is one row of a live or snapshot table: the state key, the
// snapshot version it came from (0 for live rows) and the state object's
// columns.
type TableRow struct {
	Key  partition.Key
	SSID int64
	// Value is the by-name column view. Rows read from state tables leave
	// it nil and adapt Raw on first use by name — a query that reads its
	// columns through the table's schema never pays for the adapter.
	// Provider-backed (virtual) and narrowed rows carry it explicitly.
	Value kv.Row
	// Raw is the state object itself, before Row adaptation — the direct
	// object interface hands it back unwrapped.
	Raw any
}

// Row returns the by-name column view of the state object.
func (r TableRow) Row() kv.Row {
	if r.Value != nil {
		return r.Value
	}
	return kv.AsRow(r.Raw)
}

// Field implements kv.Row, layering the pseudo-columns over the state
// object's fields.
func (r TableRow) Field(name string) (any, bool) {
	switch name {
	case ColPartitionKey:
		return r.Key, true
	case ColSSID:
		return r.SSID, true
	}
	return r.Row().Field(name)
}

// Columns implements kv.Row. The result is the caller's own: a struct
// row's column names are one slice shared by every row of the type.
func (r TableRow) Columns() []string {
	cols := r.Row().Columns()
	out := make([]string, 0, len(cols)+2)
	return append(append(out, cols...), ColPartitionKey, ColSSID)
}

// Catalog resolves SQL table names to scannable state tables. A table
// name is either an operator name (live state) or snapshot_<operator>
// (snapshot state); the catalog knows which snapshot registry governs
// each operator so that unpinned snapshot queries resolve to the latest
// committed id atomically (§VI.A).
type Catalog struct {
	store *kv.Store

	mu       sync.RWMutex
	regs     map[string]*snapshot.Registry // sanitized op name -> registry
	virtuals map[string]func() []TableRow  // sanitized name -> row provider
}

// NewCatalog creates an empty catalog over the store.
func NewCatalog(store *kv.Store) *Catalog {
	return &Catalog{
		store:    store,
		regs:     make(map[string]*snapshot.Registry),
		virtuals: make(map[string]func() []TableRow),
	}
}

// Partitions returns the partition count of the underlying store.
func (c *Catalog) Partitions() int { return c.store.Partitioner().Count() }

// RegisterVirtual registers a virtual table: a name (conventionally
// sys.<something>) whose rows are produced on demand by the provider
// instead of read from partitioned state. Virtual tables are how the
// engine's own telemetry (sys.operators, sys.partitions, sys.checkpoints,
// sys.queries) becomes queryable through the normal SQL path. The provider
// must be safe for concurrent calls and returns a point-in-time row set.
func (c *Catalog) RegisterVirtual(name string, rows func() []TableRow) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.virtuals[sanitize(name)] = rows
}

// RegisterJob associates the stateful operators of a job with its
// snapshot registry. Operator names must be unique across jobs.
func (c *Catalog) RegisterJob(reg *snapshot.Registry, operators ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, op := range operators {
		key := sanitize(op)
		if _, dup := c.regs[key]; dup {
			return fmt.Errorf("core: operator %q already registered in catalog", op)
		}
		c.regs[key] = reg
	}
	return nil
}

// UnregisterJob removes a job's operators (on job cancellation).
func (c *Catalog) UnregisterJob(operators ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, op := range operators {
		delete(c.regs, sanitize(op))
	}
}

// Operators returns the names of all registered stateful operators.
func (c *Catalog) Operators() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.regs))
	for op := range c.regs {
		out = append(out, op)
	}
	return out
}

// Table resolves a SQL table name. The returned TableRef is bound to the
// client view (remote to all nodes) — queries come from outside.
func (c *Catalog) Table(name string) (*TableRef, error) {
	op := sanitize(name)
	c.mu.RLock()
	virt := c.virtuals[op]
	c.mu.RUnlock()
	if virt != nil {
		return &TableRef{name: name, op: op, virtual: virt}, nil
	}
	isSnap := false
	if rest, ok := strings.CutPrefix(op, "snapshot_"); ok {
		isSnap = true
		op = rest
	}
	c.mu.RLock()
	reg, known := c.regs[op]
	c.mu.RUnlock()
	if !known {
		return nil, fmt.Errorf("core: unknown table %q: no stateful operator %q", name, op)
	}
	t := &TableRef{
		name:     name,
		op:       op,
		snapshot: isSnap,
		reg:      reg,
		store:    c.store,
		view:     c.store.View(kv.ClientNode),
	}
	t.m = t.backingMap()
	return t, nil
}

// TableRef is a resolved, scannable state table.
type TableRef struct {
	name     string
	op       string
	snapshot bool
	reg      *snapshot.Registry
	store    *kv.Store
	view     kv.NodeView
	// m is the kv map backing the table, resolved once: a keyed read per
	// joined row must not pay a name build and a store lookup each.
	m *kv.Map
	// virtual, when set, makes this a provider-backed table: a single
	// pseudo-partition on node 0, no snapshots, no network hops, no
	// fault surface. All scan paths iterate the provider's row set.
	virtual func() []TableRow
}

// IsVirtual reports whether this is a provider-backed sys.* table.
func (t *TableRef) IsVirtual() bool { return t.virtual != nil }

// Name returns the table name as written in the query.
func (t *TableRef) Name() string { return t.name }

// IsSnapshot reports whether this is a snapshot_<op> table.
func (t *TableRef) IsSnapshot() bool { return t.snapshot }

// Partitions returns the number of state partitions, for scatter-gather
// execution. Virtual tables have a single pseudo-partition.
func (t *TableRef) Partitions() int {
	if t.virtual != nil {
		return 1
	}
	return t.store.Partitioner().Count()
}

// PartitionOwner returns the node owning partition p.
func (t *TableRef) PartitionOwner(p int) int {
	if t.virtual != nil {
		return 0
	}
	return t.store.Assignment().Owner(p)
}

// PartitionOf returns the partition that would own the given state key —
// the basis of the executor's partition pruning for `partitionKey = <lit>`
// predicates. Only key types whose hash is consistent with SQL equality
// are accepted: strings, the int family (Hash normalizes them to one
// representation) and bools. Everything else reports false and the caller
// must scan all partitions.
func (t *TableRef) PartitionOf(key any) (int, bool) {
	if t.virtual != nil {
		return 0, true
	}
	switch key.(type) {
	case string, int, int32, int64, uint64, bool:
		return t.store.Partitioner().Of(key), true
	}
	return 0, false
}

// ResolveSSID validates and defaults the snapshot id a query targets.
// pinned == 0 means "latest committed" (the paper's default). For live
// tables it always returns 0.
func (t *TableRef) ResolveSSID(pinned int64) (int64, error) {
	if t.virtual != nil || !t.snapshot {
		return 0, nil
	}
	if pinned == 0 {
		latest := t.reg.LatestCommitted()
		if latest == snapshot.NoSnapshot {
			return 0, fmt.Errorf("core: no committed snapshot for table %q yet", t.name)
		}
		return latest, nil
	}
	if !t.reg.IsQueryable(pinned) {
		return 0, fmt.Errorf("core: snapshot %d of %q is not queryable (not committed or already pruned)", pinned, t.name)
	}
	return pinned, nil
}

// ScanSpec is the state layer's half of the partition-fragment contract:
// how one partition of the table is read for a query that runs where the
// partition lives. The SQL layer's fragment is the callback — it filters,
// probes the co-partitioned table (Lookup) and folds or projects a chunk of
// rows at a time; what the spec fixes is the version read, the access path,
// cancellation and the scratch the partition is read into.
type ScanSpec struct {
	// SSID is the snapshot id to read (from ResolveSSID; ignored live).
	SSID int64
	// Path, when non-nil, asks the scan to find its candidate rows through
	// a key lookup or a secondary index instead of iterating the
	// partition. It is an optimisation only — the caller's filter remains
	// the truth, and a scan silently falls back to full iteration when no
	// ready index serves the path (e.g. after DisableIndexes compiled it
	// away, or on the backup fallback read, which is never indexed).
	Path *AccessPath
	// Done, when non-nil, cancels the scan once closed; it is polled
	// between chunks.
	Done <-chan struct{}
	// Buf, when non-nil, is the scratch the partition's point-in-time copy
	// and its decoded chunks are taken into.
	Buf *ScanBuf
}

// ScanBuf is the scratch one goroutine's partition reads reuse: the
// partition's copied entries (see kv.ScanOpts.Buf) and the chunk of rows
// decoded from them. A chunk handed to a scan callback lives in it, so it
// is only valid until the callback returns.
type ScanBuf struct {
	entries []kv.Entry
	rows    []TableRow
}

// ScanPartition streams the rows of one partition as of snapshot ssid
// (which the caller obtained from ResolveSSID; ignored for live tables).
// The charge for reaching the partition's node is paid by the view.
func (t *TableRef) ScanPartition(ssid int64, p int, fn func(TableRow) bool) {
	t.ScanPartitionSpec(p, ScanSpec{SSID: ssid}, func(rows []TableRow) bool {
		for _, r := range rows {
			if !fn(r) {
				return false
			}
		}
		return true
	})
}

// ScanPartitionSpec reads one partition under the spec, handing fn the
// rows a chunk at a time: each chunk of at most kv.ScanBatch copied entries
// is decoded in one loop — every snapshot chain resolved at the spec's
// SSID — before fn sees any of its rows. false from fn stops the read.
func (t *TableRef) ScanPartitionSpec(p int, spec ScanSpec, fn func([]TableRow) bool) {
	t.scanPartition(p, spec, false, fn)
}

// decode turns one stored entry into the table row a query sees at ssid;
// ok is false when a snapshot key did not exist at that version.
func (t *TableRef) decode(e kv.Entry, ssid int64) (TableRow, bool) {
	if !t.snapshot {
		return TableRow{Key: e.Key, Raw: e.Value}, true
	}
	v, ok := e.Value.(*Chain).At(ssid)
	if !ok {
		return TableRow{}, false
	}
	return TableRow{Key: e.Key, SSID: v.SSID, Raw: v.Value}, true
}

// decodeChunk decodes a chunk of copied entries into rows, reused.
func (t *TableRef) decodeChunk(es []kv.Entry, ssid int64, rows []TableRow) []TableRow {
	rows = rows[:0]
	for _, e := range es {
		if r, ok := t.decode(e, ssid); ok {
			rows = append(rows, r)
		}
	}
	return rows
}

func (t *TableRef) scanPartition(p int, spec ScanSpec, backup bool, fn func([]TableRow) bool) {
	buf := spec.Buf
	if buf == nil {
		buf = &ScanBuf{}
	}
	if t.virtual != nil {
		rows := t.virtual()
		for len(rows) > 0 {
			if spec.Done != nil {
				select {
				case <-spec.Done:
					return
				default:
				}
			}
			n := min(len(rows), kv.ScanBatch)
			if !fn(rows[:n:n]) {
				return
			}
			rows = rows[n:]
		}
		return
	}
	if spec.Path != nil && spec.Path.Kind == KeyLookup {
		if r, ok := t.lookup(p, partition.KeyString(spec.Path.Eq), spec.SSID, backup); ok {
			buf.rows = append(buf.rows[:0], r)
			fn(buf.rows)
		}
		return
	}
	m := t.mapRef()
	opts := kv.ScanOpts{Done: spec.Done, Buf: &buf.entries}
	each := func(es []kv.Entry) bool {
		buf.rows = t.decodeChunk(es, spec.SSID, buf.rows)
		return len(buf.rows) == 0 || fn(buf.rows)
	}
	if backup {
		// The degraded read: the backup replica is never indexed.
		m.ScanPartitionBackupWith(p, opts, each)
		return
	}
	// Index-served scan. On a snapshot table the chain-union index yields
	// every key whose *any* version could match — a superset for any SSID
	// — and decodeChunk re-resolves At(SSID) exactly like the full scan.
	if lk, ok := spec.Path.lookup(); ok {
		if m.ScanPartitionIndexedWith(p, lk, opts, each) {
			return
		}
	}
	m.ScanPartitionWith(p, opts, each)
}

// Lookup is the keyed partition read: the row stored in partition p under
// the canonical key string ks (partition.KeyString), as of snapshot ssid
// for a snapshot table. A co-partitioned join probes it with the driving
// row's key — both sides of a key live in the same partition (§II), so
// the probe is local to the fragment and holds the segment read-lock no
// longer than a Get does. Virtual tables have no keyed storage and report
// nothing.
func (t *TableRef) Lookup(p int, ks string, ssid int64) (TableRow, bool) {
	return t.lookup(p, ks, ssid, false)
}

// LookupFallback is Lookup against the partition's backup replica of the
// snapshot table — the probe half of a degraded (PolicyFallback) read.
func (t *TableRef) LookupFallback(p int, ks string, ssid int64) (TableRow, bool) {
	return t.fallback().lookup(p, ks, ssid, true)
}

func (t *TableRef) lookup(p int, ks string, ssid int64, backup bool) (TableRow, bool) {
	if t.virtual != nil {
		return TableRow{}, false
	}
	e, ok := t.mapRef().Lookup(p, ks, backup)
	if !ok {
		return TableRow{}, false
	}
	return t.decode(e, ssid)
}

// fallback returns the table's degraded-read view: its snapshot map, the
// only state a backup replica serves reads from. A live table falls back
// to the committed id the caller resolved (LatestCommittedSSID).
func (t *TableRef) fallback() *TableRef {
	snap := *t
	snap.snapshot = true
	snap.m = snap.backingMap()
	return &snap
}

// Sample answers the planner's two questions about the partitions a scan
// will visit — partition part alone when the plan pruned to it, the whole
// table when part is negative — in one pass over their segments (one lock
// for a pruned plan): how many rows are there, and what is their schema.
//
// The schema is reported when the rows are one flat struct type — what
// lets the planner bind column references to ordinals once instead of
// resolving names per row. It is read off one stored row; nil means the
// table is empty there, or its rows are maps, scalars or structs the codec
// does not pack, and the query reads them by name. It is a promise about
// the sampled row only: readers check each row's type (wire.Schema.Ref)
// and fall back to reading by name on a mismatch. Virtual tables carry no
// statistics and no schema (ok false).
func (t *TableRef) Sample(part int) (rows int64, schema *wire.Schema, ok bool) {
	if t.virtual != nil {
		return 0, nil, false
	}
	var usable func(kv.Entry) bool
	if t.snapshot {
		// A chain of tombstones alone says nothing about the rows.
		usable = func(e kv.Entry) bool { _, live := e.Value.(*Chain).newest(); return live }
	}
	n, e, found := t.m.Sample(part, usable)
	if !found {
		return int64(n), nil, true
	}
	v := e.Value
	if t.snapshot {
		v, _ = v.(*Chain).newest()
	}
	return int64(n), wire.FlatSchemaOf(v), true
}

// projectedRow is a Row narrowed to the columns a query ships. Lookups
// are a linear probe over a handful of names — cheaper than a map for
// the column counts real queries project.
type projectedRow struct {
	cols []string
	vals []any
}

// Field implements kv.Row.
func (r projectedRow) Field(name string) (any, bool) {
	for i, c := range r.cols {
		if c == name {
			return r.vals[i], true
		}
	}
	return nil, false
}

// Columns implements kv.Row.
func (r projectedRow) Columns() []string { return append([]string(nil), r.cols...) }

// NarrowRow narrows a row's Value to cols by name (nil = no narrowing) —
// the shipped form of a row whose table reports no schema. Columns the
// underlying row does not have are simply absent from the projection, so
// an unknown-column reference still fails at evaluation exactly as it
// would against the full row. Raw is dropped: a narrowed row is a
// query-shaped wire row, not the state object.
func NarrowRow(r TableRow, cols []string) TableRow {
	if cols == nil {
		return r
	}
	full := r.Row()
	pr := projectedRow{cols: make([]string, 0, len(cols)), vals: make([]any, 0, len(cols))}
	for _, c := range cols {
		if v, ok := full.Field(c); ok {
			pr.cols = append(pr.cols, c)
			pr.vals = append(pr.vals, v)
		}
	}
	r.Value = pr
	r.Raw = nil
	return r
}

// ChargeClientHop charges one client→node network hop, for executors
// that drive ScanPartition directly (e.g. partition-wise joins).
func (t *TableRef) ChargeClientHop(node int) {
	if t.virtual != nil {
		return
	}
	t.view.ChargeHop(node)
}

// CheckPartition verifies that the owner node of partition p is reachable
// from the query client, consulting the store's fault hook. Fault-tolerant
// executors call it before each partition scan; a plain scan never does
// (the fault hook only intercepts fallible query paths, never the data
// plane).
func (t *TableRef) CheckPartition(p int) error {
	if t.virtual != nil {
		return nil
	}
	return t.store.CheckAccess(kv.ClientNode, p)
}

// CheckBackupPartition is CheckPartition against the partition's backup
// node — the replica PolicyFallback degrades to when the primary is
// unreachable. On a healthy layout primary and backup live on different
// nodes, so a fault severing the owner leaves the backup reachable.
func (t *TableRef) CheckBackupPartition(p int) error {
	if t.virtual != nil {
		return nil
	}
	return t.store.CheckBackupAccess(kv.ClientNode, p)
}

// LatestCommittedSSID returns the operator's latest committed snapshot id,
// or 0 when no checkpoint has committed yet — the version a degraded query
// falls back to when live state is unreachable.
func (t *TableRef) LatestCommittedSSID() int64 {
	if t.virtual != nil {
		return 0
	}
	latest := t.reg.LatestCommitted()
	if latest == snapshot.NoSnapshot {
		return 0
	}
	return latest
}

// ScanPartitionFallbackSpec reads partition p under the spec from the
// partition's backup replica instead of its primary copy. This is the
// degraded read behind PolicyFallback: the primary owner is unreachable,
// but the synchronously replicated backup on another node still holds
// every committed snapshot version — and a degraded read is still a
// fragment read. Yields nothing when the store is not replicated.
func (t *TableRef) ScanPartitionFallbackSpec(p int, spec ScanSpec, fn func([]TableRow) bool) {
	if t.virtual != nil {
		t.ScanPartitionSpec(p, spec, fn)
		return
	}
	t.fallback().scanPartition(p, spec, true, fn)
}

// Scan streams all rows of the table as of snapshot ssid, charging one
// network hop per remote node like any client-side full scan.
func (t *TableRef) Scan(ssid int64, fn func(TableRow) bool) {
	if t.virtual != nil {
		t.ScanPartition(ssid, 0, fn)
		return
	}
	mapName := LiveMapName(t.op)
	if t.snapshot {
		mapName = SnapshotMapName(t.op)
	}
	// Charge hops through the view by scanning via it, but decode
	// chains ourselves for snapshot tables.
	stop := false
	t.view.Scan(mapName, func(e kv.Entry) bool {
		if stop {
			return false
		}
		if t.snapshot {
			v, ok := e.Value.(*Chain).At(ssid)
			if !ok {
				return true
			}
			if !fn(TableRow{Key: e.Key, SSID: v.SSID, Raw: v.Value}) {
				stop = true
				return false
			}
			return true
		}
		if !fn(TableRow{Key: e.Key, Raw: e.Value}) {
			stop = true
			return false
		}
		return true
	})
}

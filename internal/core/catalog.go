package core

import (
	"errors"
	"fmt"
	"slices"
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
// snapshot registry. Operator names must be unique across jobs: on a clash
// nothing is registered.
func (c *Catalog) RegisterJob(reg *snapshot.Registry, operators ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkFreeLocked(operators); err != nil {
		return err
	}
	for _, op := range operators {
		c.regs[sanitize(op)] = reg
	}
	return nil
}

// CheckFree returns the error RegisterJob would return for operators
// without registering anything, so a job can be refused before it starts.
func (c *Catalog) CheckFree(operators ...string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.checkFreeLocked(operators)
}

func (c *Catalog) checkFreeLocked(operators []string) error {
	for _, op := range operators {
		if _, dup := c.regs[sanitize(op)]; dup {
			return fmt.Errorf("core: operator %q already registered in catalog", op)
		}
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

// HoldSSID validates and defaults the snapshot id a query targets and
// leases it in the job's registry until ReleaseSSID, so no merge drops a
// version the read needs however long it runs, and an id that has already
// retired is refused. pinned == 0 means "latest committed" (the paper's
// default). A live or virtual table holds nothing and returns 0.
func (t *TableRef) HoldSSID(pinned int64) (int64, error) {
	if t.virtual != nil || !t.snapshot {
		return 0, nil
	}
	if pinned == 0 {
		latest := t.reg.HoldLatest()
		if latest == snapshot.NoSnapshot {
			return 0, fmt.Errorf("core: no committed snapshot for table %q yet", t.name)
		}
		return latest, nil
	}
	if !t.reg.Hold(pinned) {
		return 0, fmt.Errorf("core: snapshot %d of %q is not queryable (not committed or already pruned)", pinned, t.name)
	}
	return pinned, nil
}

// ReleaseSSID drops the lease HoldSSID or HoldLatestSSID took on ssid; 0
// releases nothing.
func (t *TableRef) ReleaseSSID(ssid int64) {
	if ssid != 0 && t.reg != nil {
		t.reg.Release(ssid)
	}
}

// ScanSpec is the state layer's half of the partition-fragment contract:
// how one partition of the table is read for a query that runs where the
// partition lives. The SQL layer's fragment is the callback — it filters,
// probes the co-partitioned table (Lookup) and folds or projects a chunk of
// rows at a time; what the spec fixes is the version read, the access path,
// cancellation and the scratch the partition is read into.
type ScanSpec struct {
	// SSID is the snapshot id to read (from HoldSSID; ignored live).
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
// (which the caller obtained from HoldSSID; ignored for live tables).
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
// rows a chunk of at most kv.ScanBatch rows at a time — every snapshot key
// resolved at the spec's SSID — before fn sees any of its rows. false from
// fn stops the read.
func (t *TableRef) ScanPartitionSpec(p int, spec ScanSpec, fn func([]TableRow) bool) {
	t.scanPartition(p, spec, false, fn)
}

// Attach subscribes tap to this live table's change stream, then, unless
// seed is nil, seeds from every partition (Seed). A delta of partition p
// reaches the tap either before seed(p) — and the rows seed(p) is handed
// already hold its effect — or after seed(p) returns, on rows it has not
// seen. Live tables only; Detach with the same tap.
func (t *TableRef) Attach(tap kv.Tap, seed func(p int, rows []TableRow)) {
	t.m.AttachTap(tap)
	if seed != nil {
		t.Seed(seed)
	}
}

// Seed calls seed once per partition with that partition's rows, under
// the partition's read lock (kv.Map.ReadPartition), so no delta of the
// partition — in this table or any other — lands while seed(p) runs. A
// consumer whose tap is already attached seeds again this way to bring in
// state it did not keep. seed runs under the tap's contract, and its rows
// are valid only during the call. Live tables only.
func (t *TableRef) Seed(seed func(p int, rows []TableRow)) {
	var rows []TableRow
	for p := range t.Partitions() {
		t.m.ReadPartition(p, func(entries func(func(kv.Entry) bool)) {
			rows = rows[:0]
			entries(func(e kv.Entry) bool {
				rows = append(rows, TableRow{Key: e.Key, Raw: e.Value})
				return true
			})
			seed(p, rows)
		})
	}
}

// Detach unsubscribes a tap Attach subscribed. No new delta group reaches
// it after Detach returns, though one already in flight may complete.
func (t *TableRef) Detach(tap kv.Tap) { t.m.DetachTap(tap) }

// decodeChunk decodes a chunk of a live partition's copied entries into
// rows, reused.
func decodeChunk(es []kv.Entry, rows []TableRow) []TableRow {
	rows = rows[:0]
	for _, e := range es {
		rows = append(rows, TableRow{Key: e.Key, Raw: e.Value})
	}
	return rows
}

// runTableRow returns row i of run r as a snapshot table row.
func runTableRow(r *run, i int) TableRow {
	return TableRow{Key: r.keys[i], SSID: r.ssid(i), Raw: r.vals[i]}
}

// chunker hands a scan's rows to its callback at most kv.ScanBatch at a
// time, polling done before each chunk.
type chunker struct {
	rows []TableRow
	done <-chan struct{}
	fn   func([]TableRow) bool
}

// add appends one row, handing over a full chunk; false stops the scan.
func (c *chunker) add(r TableRow) bool {
	c.rows = append(c.rows, r)
	return len(c.rows) < kv.ScanBatch || c.flush()
}

// flush hands over the rows gathered so far.
func (c *chunker) flush() bool {
	if len(c.rows) == 0 {
		return true
	}
	if c.done != nil {
		select {
		case <-c.done:
			return false
		default:
		}
	}
	n := len(c.rows)
	more := c.fn(c.rows[:n:n])
	c.rows = c.rows[:0]
	return more
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
	if t.snapshot {
		c := chunker{rows: buf.rows[:0], done: spec.Done, fn: fn}
		rs := asRuns(m.Frozen(p, backup))
		// The degraded read is never indexed, like the backup replica it
		// reads. An index serves only when the map defines a ready one.
		if lk, ok := spec.Path.lookup(); ok && !backup && m.HasIndex(lk.Col, lk.Range) {
			m.IndexServed(lk)
			rs.eachIndexed(lk, spec.SSID, func(r *run, i int) bool { return c.add(runTableRow(r, i)) })
		} else {
			rs.each(spec.SSID, func(r *run, i int) bool { return c.add(runTableRow(r, i)) })
		}
		c.flush()
		buf.rows = c.rows
		return
	}
	opts := kv.ScanOpts{Done: spec.Done, Buf: &buf.entries}
	each := func(es []kv.Entry) bool {
		buf.rows = decodeChunk(es, buf.rows)
		return len(buf.rows) == 0 || fn(buf.rows)
	}
	if backup {
		// The degraded read: the backup replica is never indexed.
		m.ScanPartitionBackupWith(p, opts, each)
		return
	}
	if lk, ok := spec.Path.lookup(); ok {
		if m.ScanPartitionIndexedWith(p, lk, opts, each) {
			return
		}
	}
	m.ScanPartitionWith(p, opts, each)
}

// Lookup is the keyed partition read: the row stored in partition p under
// the canonical key string ks (partition.KeyString), as of snapshot ssid
// for a snapshot table — one Probe of partition p, read once. Virtual
// tables have no keyed storage and report nothing.
func (t *TableRef) Lookup(p int, ks string, ssid int64) (TableRow, bool) {
	return t.lookup(p, ks, ssid, false)
}

// LookupLocked is Lookup on a live table for a caller that already holds
// partition p's lock: a tap delivery or a Seed callback of partition p, of
// this table or any other (kv.Map.LookupLocked). It takes no lock and is
// valid nowhere else.
func (t *TableRef) LookupLocked(p int, ks string) (TableRow, bool) {
	e, ok := t.m.LookupLocked(p, ks)
	return TableRow{Key: e.Key, Raw: e.Value}, ok
}

// SameState reports whether two tables read the same kv map: a self-join
// names one table twice.
func (t *TableRef) SameState(o *TableRef) bool { return t.m != nil && t.m == o.m }

func (t *TableRef) lookup(p int, ks string, ssid int64, backup bool) (TableRow, bool) {
	if t.virtual != nil {
		return TableRow{}, false
	}
	if t.snapshot {
		return lookupRuns(asRuns(t.m.Frozen(p, backup)), ks, ssid)
	}
	e, ok := t.mapRef().Lookup(p, ks, backup)
	return TableRow{Key: e.Key, Raw: e.Value}, ok
}

// lookupRuns resolves ks in a snapshot partition's runs at ssid.
func lookupRuns(rs *runSet, ks string, ssid int64) (TableRow, bool) {
	r, i, ok := rs.get(ks, ssid)
	if !ok {
		return TableRow{}, false
	}
	return runTableRow(r, i), true
}

// GetAll returns the state objects stored under keys as of snapshot ssid
// (ignored live), nil where a key did not exist then, charging one hop per
// node the keys live on, in first-touch order — the batched read of the
// direct object interface.
func (t *TableRef) GetAll(ssid int64, keys []partition.Key) []any {
	out := make([]any, len(keys))
	var nodes []int
	for i, k := range keys {
		p := t.store.Partitioner().Of(k)
		if owner := t.PartitionOwner(p); !slices.Contains(nodes, owner) {
			nodes = append(nodes, owner)
		}
		if r, ok := t.lookup(p, partition.KeyString(k), ssid, false); ok {
			out[i] = r.Raw
		}
	}
	for _, node := range nodes {
		t.view.ChargeHop(node)
	}
	return out
}

// PartitionProbe is one partition of a table held for a fragment's keyed
// reads at one snapshot id: a snapshot table's run set is read once, when
// the probe is made, and every Lookup searches it with no lock taken.
// A live table's Lookup reads the partition as TableRef.Lookup does.
type PartitionProbe struct {
	t      *TableRef
	p      int
	ssid   int64
	backup bool
	rs     *runSet
}

// Probe holds partition p of the table for keyed reads at ssid — what a
// co-partitioned join probes the other table's copy of the partition it
// reads through.
func (t *TableRef) Probe(p int, ssid int64) PartitionProbe {
	return t.probe(p, ssid, false)
}

// ProbeFallback is Probe against the partition's backup replica of the
// snapshot table — the probe half of a degraded (PolicyFallback) read.
func (t *TableRef) ProbeFallback(p int, ssid int64) PartitionProbe {
	return t.fallback().probe(p, ssid, true)
}

func (t *TableRef) probe(p int, ssid int64, backup bool) PartitionProbe {
	pr := PartitionProbe{t: t, p: p, ssid: ssid, backup: backup}
	if t.snapshot && t.virtual == nil {
		pr.rs = asRuns(t.m.Frozen(p, backup))
	}
	return pr
}

// Lookup returns the row held under the canonical key string ks.
func (pr *PartitionProbe) Lookup(ks string) (TableRow, bool) {
	if pr.t.snapshot && pr.t.virtual == nil {
		return lookupRuns(pr.rs, ks, pr.ssid)
	}
	return pr.t.lookup(pr.p, ks, pr.ssid, pr.backup)
}

// fallback returns the table's degraded-read view: its snapshot map, the
// only state a backup replica serves reads from. A live table falls back
// to the committed id the caller holds (HoldLatestSSID).
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
// resolving names per row. It is read off one stored row — of partition
// part when it holds one, else of the first partition that does; nil means
// the table is empty, or its rows are maps, scalars or structs the codec
// does not pack, and the query reads them by name. It is a promise about
// the sampled row only: readers check each row's type (wire.Schema.Ref)
// and fall back to reading by name on a mismatch. Virtual tables carry no
// statistics and no schema (ok false).
func (t *TableRef) Sample(part int) (rows int64, schema *wire.Schema, ok bool) {
	if t.virtual != nil {
		return 0, nil, false
	}
	if t.snapshot {
		return t.sampleRuns(part)
	}
	n, e, found := t.m.Sample(part)
	if !found && part >= 0 {
		// The pruned partition holds no row to take the schema from, but
		// the table's rows still have one: a plan must not bind
		// differently because one partition is empty.
		e, found = t.m.Find()
	}
	if !found {
		return int64(n), nil, true
	}
	return int64(n), wire.FlatSchemaOf(e.Value), true
}

// sampleRuns is Sample for a snapshot table: its rows are its keys, and
// its schema is read off a version that is not a tombstone.
func (t *TableRef) sampleRuns(part int) (rows int64, schema *wire.Schema, ok bool) {
	n, _, _ := t.m.Sample(part)
	var v any
	found := false
	if part >= 0 {
		v, found = asRuns(t.m.PeekFrozen(part)).sample()
	}
	// A pruned partition with no row still binds like the rest.
	for q := 0; !found && q < t.Partitions(); q++ {
		v, found = asRuns(t.m.PeekFrozen(q)).sample()
	}
	if !found {
		return int64(n), nil, true
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
// nodes, so a fault severing the owner leaves the backup reachable. A
// store without replication has no backup copy to read: that is an error
// too, not an empty partition.
func (t *TableRef) CheckBackupPartition(p int) error {
	if t.virtual != nil {
		return nil
	}
	if !t.store.Replicated() {
		return errNotReplicated
	}
	return t.store.CheckBackupAccess(kv.ClientNode, p)
}

// errNotReplicated is CheckBackupPartition's answer on a store without
// replication.
var errNotReplicated = errors.New("core: the store keeps no backup replica (state replication is off)")

// HoldLatestSSID leases the operator's latest committed snapshot id and
// returns it, or returns 0, holding nothing, when no checkpoint has
// committed yet — the version a degraded read falls back to when live
// state is unreachable. ReleaseSSID drops the lease.
func (t *TableRef) HoldLatestSSID() int64 {
	if t.virtual != nil {
		return 0
	}
	return t.reg.HoldLatest()
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
	if !t.snapshot {
		t.view.Scan(LiveMapName(t.op), func(e kv.Entry) bool {
			return fn(TableRow{Key: e.Key, Raw: e.Value})
		})
		return
	}
	// One message per remote node, in first-touch order, as a client scan
	// of a live map pays.
	var nodes []int
	for p := 0; p < t.Partitions(); p++ {
		if owner := t.PartitionOwner(p); !slices.Contains(nodes, owner) {
			nodes = append(nodes, owner)
		}
	}
	for _, node := range nodes {
		t.view.ChargeHop(node)
	}
	for p := 0; p < t.Partitions(); p++ {
		more := true
		asRuns(t.m.Frozen(p, false)).each(ssid, func(r *run, i int) bool {
			more = fn(runTableRow(r, i))
			return more
		})
		if !more {
			return
		}
	}
}

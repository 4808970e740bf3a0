package sql

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
)

// SUBSCRIBE <select>: standing queries over live operator state. A
// standing query is the statement's compiled plan — the physPlan compile
// builds for a one-shot query, with its bound columns, pushed and residual
// filters and bound join key — fed signed rows instead of a scan. One fold
// runs a source row through the plan's stages as an insert or as a
// retraction, evaluating each as a batch of one row through the one
// evaluator the one-shot fragments run chunks through (evalBatch): the
// source's pushed filter, then for a join its partner rows, the residual
// filter, and last the select list
// (project, as the one-shot project sink calls it) or the row's group
// keys and aggregate arguments. Two drive modes feed it: each partition of
// each source table seeds in as inserts; then every delta of the table's
// live kv map folds in as the retraction of the row it replaced followed
// by the insert of its new row.
//
// Standing queries are grouped by what they evaluate. Each pushed
// conjunct `col = literal` is lifted into a parameter slot (lift), and the
// plan left over is a template that every standing query differing only
// in those literals shares (templateKey). A template holds one tap per
// source side on its table's map (sideTap) and its groups by parameter
// tuple: a group is the standing state of one tuple — its output, and the
// handles (StandingQuery) of every subscriber of that tuple, which all
// receive the one frame a delta makes. A delta reads its row's slot
// columns once and folds only into the groups under that tuple: the
// retraction of Old into those under Old's tuple, the insert of New into
// those under New's. A template without slots has one group. A plan that
// reads LOCALTIMESTAMP fixes it when its group is created, so the instant
// is part of the group's key: such queries share a template and its taps,
// and share output only with a query bound to the same instant. A pushed
// filter that reads LOCALTIMESTAMP is tested at the instant of the group
// (or join index) it serves; every other pushed filter once per row.
//
// A co-partitioned join — on the two partition keys, so a row's partner
// lives under its key in its partition (§II) — keeps no copy of either
// side: a fold reads the partner row from kv with LookupLocked, under the
// partition lock its delivery or seed already holds for every map of the
// store, and pairs the two in the groups both tuples reach (coFold). Any
// other join keeps one join index per source side and side key — the
// side's tuple, and the group's instant where that side's pushed filter
// reads LOCALTIMESTAMP — shared by every group that reads that key
// (jindex). A row is filed once, into its side key's index, and pairs
// with the partners filed under its join key in the index each of the
// index's groups reads on the other side: a symmetric hash join, in which
// a pair forms when the second of its two rows is filed (joinFold).
//
// Both drive modes run under the template's lock and under the
// partition's lock — the seed on the subscriber, the delta on the writer
// that made the change: no goroutine or queue stands between a state
// write and the frame the sinks receive for it. The lock order is
// partition lock, then the template's; attaches of one template's groups
// take turns ahead of both. Nothing that holds a partition lock takes one
// again: a Go RWMutex is not reentrant, and a nested read waits behind a
// pending writer.
//
// A retraction needs no record of what its row produced. A delta's Old is
// exactly the row the template inserted for the key, and evaluation is
// deterministic (a group's instant is fixed), so the old row has the same
// tuple, fails the same filters, joins under the same key and lands in the
// same group as it did on insert.
//
// A standing query holds no copy of its source tables: the kv map is the
// one copy. What stays resident per group is its output — matched rows,
// or groups — and, for a join that is not co-partitioned, the join index
// of each side key its groups read, of the rows that passed the side's
// pushed filter. A group is the one-shot group
// form kept live: a retractable partialGroup whose accumulators each
// member row's aggregate arguments are added to on insert and removed
// from on retraction, a member count, and a head row copied from its first
// insert for the GROUP BY columns (a bare column outside GROUP BY reads
// that row, which may since have left the group). A dirty group settles by
// running its live accumulators through HAVING and the select list
// (finisher, as the one-shot client merge finishes groups): no member rows
// are kept, and none is refolded.
//
// The supported dialect is the incremental-maintainable core of the
// engine's SELECT: single live tables or one inner equi-join, WHERE,
// projections, GROUP BY / aggregates / HAVING. ORDER BY and LIMIT are
// rejected (a standing result set has no stable order to page), as are
// snapshot_ and sys.* tables (snapshots are immutable and virtual tables
// have no change stream — poll those).

// splitSubscribe strips a leading SUBSCRIBE keyword, reporting whether the
// query requested a standing subscription and the statement that follows.
func splitSubscribe(query string) (bool, string) {
	rest, ok := cutKeyword(strings.TrimSpace(query), "SUBSCRIBE")
	if !ok {
		return false, query
	}
	return true, rest
}

// SubDelta is one output-row change of a standing query. Key identifies
// the output row the delta applies to, one-to-one within a subscription:
// the source row's partition-key string for plain standing queries,
// "left|right" for join rows, the grouping values joined by "|" (or "*"
// for a global aggregate) for aggregates. In the joined forms each
// component has its `\` and `|` escaped with a backslash and a NULL
// grouping value renders as `\N`, so no two output rows share a Key.
type SubDelta struct {
	Key    string
	Vals   []any // output column values; nil on Delete
	Delete bool
}

// SubEvent is one ordered delivery to a subscriber.
type SubEvent struct {
	Deltas []SubDelta
	// Watermark is the cumulative count of source deltas folded into the
	// standing query's state since the subscription attached, when the
	// event was emitted. A subscription that joins a live group counts
	// from its join, not from the group's start.
	Watermark uint64
	// Snapshot marks a full-state frame: the initial result at attach
	// time, or a resync after the subscriber's queue overflowed and shed.
	// Appliers must replace their view rather than merge.
	Snapshot bool
	// Err reports a standing-query evaluation failure; it is the final
	// event, the standing query stops applying deltas after emitting it.
	Err error
}

// subGroup is one live group of an aggregate standing query: its rendered
// key, how many joined rows are in it, its retractable accumulators with
// the head row (held by value, so the group is one allocation), the
// output row it last emitted (nil when none), and whether the batch being
// folded changed it.
type subGroup struct {
	disp    string
	members int
	pg      partialGroup
	out     []any
	dirty   bool
}

// joinEntry is one source row filed under its join key in a join index,
// with its partition-key string.
type joinEntry struct {
	ks  string
	row core.TableRow
}

// jindex is the join index of one source side and side key of a join that
// is not co-partitioned: the side's rows that passed its pushed filter,
// filed by join key — the shape the one-shot hash joins build, kept alive:
// few rows share a key, so a short slice beats a map per key. Its readers
// are the groups that read the side key (and so share one instant where
// the side's pushed filter reads LOCALTIMESTAMP); the last drops it. held
// records, while the index fills, which partitions it holds; nil once it
// is whole.
type jindex struct {
	keys    map[joinKey][]joinEntry
	held    []bool
	readers []*group
}

// holds reports whether the index holds partition p's rows.
func (ix *jindex) holds(p int) bool { return ix.held == nil || ix.held[p] }

// link files the row under ks at jk, or (add false) takes it out.
func (ix *jindex) link(jk joinKey, ks string, row *core.TableRow, add bool) {
	if add {
		ix.keys[jk] = append(ix.keys[jk], joinEntry{ks: ks, row: *row})
	} else {
		without(ix.keys, jk, func(e joinEntry) bool { return e.ks == ks })
	}
}

// without takes the elements drop selects out of m's list under k,
// deleting the key with its last element.
func without[K comparable, T any](m map[K][]T, k K, drop func(T) bool) {
	if xs := slices.DeleteFunc(m[k], drop); len(xs) > 0 {
		m[k] = xs
	} else {
		delete(m, k)
	}
}

// batchEff accumulates the output effects of one delta batch on one live
// group, so an update (tombstone + upsert of the same key, or a value
// change) emits one coalesced delta instead of a delete/insert pair. A
// batch touches a few rows, so they are a slice searched in place — with
// an index by key only once it outgrows a short scan — and the dirty
// aggregate groups are flagged on the group itself. Each group keeps one
// for its life, reset after it settles.
type batchEff struct {
	rows  []rowEff
	index map[string]int
	dirty []*subGroup
}

// rowEff is one touched non-aggregate output row: its projected values
// before the batch and now (nil = not matched).
type rowEff struct {
	key           string
	before, after []any
}

// effScan is how many touched rows a batch searches by scanning before it
// indexes them.
const effScan = 16

// row returns the effect of the output row under key, recording it at
// first touch with g's current values.
func (e *batchEff) row(key string, matched map[string][]any) *rowEff {
	if e.index != nil {
		if i, ok := e.index[key]; ok {
			return &e.rows[i]
		}
	} else {
		for i := range e.rows {
			if e.rows[i].key == key {
				return &e.rows[i]
			}
		}
	}
	cur := matched[key]
	e.rows = append(e.rows, rowEff{key: key, before: cur, after: cur})
	switch {
	case e.index != nil:
		e.index[key] = len(e.rows) - 1
	case len(e.rows) > effScan:
		e.index = make(map[string]int, len(e.rows))
		for i := range e.rows {
			e.index[e.rows[i].key] = i
		}
	}
	return &e.rows[len(e.rows)-1]
}

// reset empties the effects for the next batch, dropping what an unusually
// large one grew.
func (e *batchEff) reset() {
	if cap(e.rows) > 4*effScan {
		e.rows = nil
	} else {
		clear(e.rows)
		e.rows = e.rows[:0]
	}
	e.index = nil
	clear(e.dirty)
	e.dirty = e.dirty[:0]
}

// sideTap is one source side's tap on its table's live map. Each side is
// its own value: kv detaches a tap by equality, so the two sides of a
// self-join must not be equal.
type sideTap struct {
	t    *template
	side int
}

// OnDeltas implements kv.Tap: drive mode 2 for the side.
func (st *sideTap) OnDeltas(ds []kv.Delta) { st.t.deliver(st.side, ds) }

// template is one lifted plan and the state every standing query over it
// shares: a tap per source side, the groups by parameter tuple, and for a
// join that is not co-partitioned the join indexes by side key. Everything
// below mu is guarded by it.
type template struct {
	ex  *Executor
	key string
	pp  *physPlan
	// slots holds, per source, the bound columns of its lifted conjuncts.
	slots [2][]*colRef
	// nowDep: the plan reads LOCALTIMESTAMP, so a group's key carries the
	// instant its first query bound it to. nowSide[s]: side s's pushed
	// filter reads it, so it is tested under each group's instant (or
	// each join index's), not once per row.
	nowDep  bool
	nowSide [2]bool
	// ctx evaluates what every group shares, which reads no instant: slot
	// columns, join keys and pushed filters that do not read
	// LOCALTIMESTAMP.
	ctx  *evalCtx
	taps [2]sideTap
	// self: a co-partitioned join of a table with itself, whose two taps
	// receive the same deltas (coFold).
	self bool
	// open counts the handles on the template's groups; the last Close
	// detaches the taps. dead, set under mu, means the template takes no
	// more groups and folds nothing: its last handle closed, or an error
	// in what its groups share failed them all.
	open atomic.Int64
	dead atomic.Bool

	// attachMu orders attaches: one group seeds at a time.
	attachMu sync.Mutex

	mu sync.Mutex
	// tapped: the first group has attached the taps.
	tapped bool
	// groups holds every routed group by key; bySide[s] those a row of
	// side s with slots reaches, by the side's tuple; all every routed
	// group, for a side without slots.
	groups map[string]*group
	bySide [2]map[string][]*group
	all    []*group
	// attaching is the group being seeded (nil when none).
	attaching *group
	// deltas counts the deltas handed to the taps since the template
	// attached them.
	deltas uint64
	// jx[s] holds, for a join that is not co-partitioned, side s's join
	// indexes by the side's tuple: one per side key, so more than one only
	// where side s's pushed filter reads LOCALTIMESTAMP. A co-partitioned
	// join has none: it reads a row's partner from kv (coFold).
	jx [2]map[string][]*jindex
	// touched lists the live groups the batch being delivered changed.
	touched []*group

	// b is the working batch fold evaluates the plan over: one row from
	// each source in rows, the sources a step reads in b.cols.
	b    batch
	sc   scratch
	rows []core.TableRow
	one  [1]*group
	tup  []byte
	// fin finishes a dirty group, held in dirty, as a batch of one group.
	fin   *finisher
	dirty [1]*partialGroup
	// keyBuf, keyVals and colBuf are the scratch of one group-key pass.
	keyBuf  []byte
	keyVals []datum
	colBuf  [][]datum
}

// group is the standing state of one parameter tuple of a template — and,
// when the plan reads LOCALTIMESTAMP, one bound instant: its output, and
// the handles it delivers to. Guarded by its template's mu.
type group struct {
	t     *template
	key   string
	tuple [2]string
	ctx   *evalCtx // LOCALTIMESTAMP is fixed when the group is created
	sinks []*StandingQuery
	// seeded[s][p], while a group of a single-source or co-partitioned
	// template attaches, records whether side s's partition p is in its
	// state: a row of a partition not yet seeded is left out, because the
	// seed reads its effect. A nil side is whole.
	seeded [2][]bool
	// ix[s] is the join index g reads on side s, in a join that is not
	// co-partitioned.
	ix [2]*jindex
	// base is what deltas counted when the group started, plus the deltas
	// it left to its seeds: its watermark is the rest.
	base    uint64
	failed  error
	touched bool
	routed  bool
	eff     batchEff
	// matched is the non-aggregate output state — each matching row's
	// projected values under its SubDelta.Key — groups the aggregate one.
	matched map[string][]any
	groups  map[string]*subGroup
}

// StandingQuery is one subscriber's handle on a group: the statement it
// was created from and its sink. Events reach the sink in order and under
// the template's lock — the initial snapshot frame during subscription,
// each delta frame on the writer whose change it folds.
type StandingQuery struct {
	g     *group
	query string
	sink  func(SubEvent)
	// base is the group's watermark when the handle joined it: the
	// handle's watermark counts from there.
	base uint64
	// closed is set by Close, under the template's lock.
	closed bool
}

// SubscribeQuery compiles a statement (with or without the SUBSCRIBE
// prefix) into a standing query: check the dialect, compile the plan and
// lift its parameters, then take a handle on the group of the statement's
// template and tuple. A group that exists already is live: the handle
// joins it and receives its current output as the snapshot frame. A new
// group seeds from each source partition — the template's first group
// attaching each side's tap as it goes — then finishes its aggregate
// groups, goes live and emits its whole output as the snapshot frame.
// bind is called once with the handle, before any event is emitted, and
// returns the sink — so a sink that needs the handle (to resync from
// Snapshot, to end the subscription on a terminal error) has it by the
// time it first runs.
//
// A partition's seed and its deltas are ordered by the partition's lock.
// The lock order is the writer's — partition lock, then the template's —
// and nothing holds the template's lock while it waits for a partition
// lock.
//
// The sink receives the initial snapshot frame before SubscribeQuery
// returns, then one delta frame per delta group that changed the group's
// output; every handle on the group receives the same frame, and only
// reads it. The sink runs with the template's lock held, on whichever
// writer goroutine made the change, inside that writer's partition lock: it
// must do bounded work, never block on anything a writer can hold, never
// call into the store, and never call Close (hand that to another
// goroutine). Close drops the handle.
func (ex *Executor) SubscribeQuery(query string, bind func(*StandingQuery) func(SubEvent)) (*StandingQuery, error) {
	_, query = splitSubscribe(query)
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if err := validate(stmt); err != nil {
		return nil, err
	}
	pp, err := ex.compile(stmt, ExecOpts{}, false)
	if err != nil {
		return nil, err
	}
	pp.release() // a standing query reads no snapshot
	for _, s := range pp.srcs {
		if s.ref.IsVirtual() {
			return nil, fmt.Errorf("sql: cannot SUBSCRIBE to virtual table %q (no change stream — poll it)", s.name)
		}
		if s.ref.IsSnapshot() {
			return nil, fmt.Errorf("sql: cannot SUBSCRIBE to snapshot table %q (snapshots are immutable — query it once)", s.name)
		}
	}
	slots, tuple := pp.lift()
	now := time.Now()
	key := pp.templateKey(slots)
	sq := &StandingQuery{query: query}
	sq.sink = bind(sq)
	for {
		t := ex.template(key, pp, slots, now)
		if ok, err := t.subscribe(sq, tuple, now); err != nil {
			return nil, err
		} else if ok {
			return sq, nil
		}
	}
}

// validate checks what of the incremental dialect the statement's syntax
// decides; compile and the source check after it decide the rest.
func validate(stmt *Select) error {
	if len(stmt.OrderBy) > 0 {
		return fmt.Errorf("sql: SUBSCRIBE does not support ORDER BY (standing results have no stable order)")
	}
	if stmt.Limit >= 0 {
		return fmt.Errorf("sql: SUBSCRIBE does not support LIMIT")
	}
	for _, it := range stmt.Items {
		if it.Star {
			return fmt.Errorf("sql: SUBSCRIBE does not support SELECT * — name the output columns")
		}
	}
	if len(stmt.Joins) > 1 {
		return fmt.Errorf("sql: SUBSCRIBE supports at most one join")
	}
	if len(stmt.Joins) == 1 && stmt.Joins[0].Left {
		return fmt.Errorf("sql: SUBSCRIBE does not support LEFT JOIN")
	}
	return nil
}

// standing is the executor's registry of templates by key.
type standing struct {
	mu   sync.Mutex
	tpls map[string]*template
}

// template returns the registered template under key, registering one
// over pp — unattached: its first group attaches it — if there is none.
func (ex *Executor) template(key string, pp *physPlan, slots [2][]*colRef, now time.Time) *template {
	ex.standing.mu.Lock()
	defer ex.standing.mu.Unlock()
	if t := ex.standing.tpls[key]; t != nil && !t.dead.Load() {
		return t
	}
	if ex.standing.tpls == nil {
		ex.standing.tpls = map[string]*template{}
	}
	t := &template{ex: ex, key: key, pp: pp, slots: slots, ctx: &evalCtx{now: now},
		groups: map[string]*group{}, rows: make([]core.TableRow, len(pp.srcs))}
	t.nowDep = readsNow(pp.residual) || readsNow(pp.stmt.Having)
	for _, it := range pp.stmt.Items {
		t.nowDep = t.nowDep || readsNow(it.Expr)
	}
	for _, g := range pp.stmt.GroupBy {
		t.nowDep = t.nowDep || readsNow(g)
	}
	for i := range pp.srcs {
		t.taps[i] = sideTap{t, i}
		t.bySide[i] = map[string][]*group{}
		t.nowSide[i] = readsNow(pp.pushed[i])
		t.nowDep = t.nowDep || t.nowSide[i]
	}
	t.b = newBatch(pp.srcs, &t.sc)
	t.b.n = 1
	if pp.agg != nil {
		t.fin = newFinisher(pp.srcs)
	}
	switch {
	case pp.coPart:
		t.self = pp.srcs[0].ref.SameState(pp.srcs[1].ref)
	case len(pp.srcs) == 2:
		t.jx = [2]map[string][]*jindex{{}, {}}
	}
	ex.standing.tpls[key] = t
	return t
}

// forget unregisters a dead template.
func (ex *Executor) forget(t *template) {
	ex.standing.mu.Lock()
	defer ex.standing.mu.Unlock()
	if ex.standing.tpls[t.key] == t {
		delete(ex.standing.tpls, t.key)
	}
}

// StandingRefs returns, per live table, how many standing-query source
// sides read it: one per side of every open handle, however many share a
// template.
func (ex *Executor) StandingRefs() map[string]int {
	ex.standing.mu.Lock()
	defer ex.standing.mu.Unlock()
	refs := map[string]int{}
	for _, t := range ex.standing.tpls {
		n := int(t.open.Load())
		for _, s := range t.pp.srcs {
			if n > 0 {
				refs[core.LiveMapName(s.name)] += n
			}
		}
	}
	return refs
}

// subscribe takes sq onto the group of tuple (and instant now, for a plan
// that reads LOCALTIMESTAMP), creating and seeding the group if it does not
// exist. ok is false, with no error, when the template died before sq
// could join it: look it up again.
func (t *template) subscribe(sq *StandingQuery, tuple [2]string, now time.Time) (ok bool, err error) {
	t.attachMu.Lock()
	defer t.attachMu.Unlock()
	t.mu.Lock()
	if t.dead.Load() {
		t.mu.Unlock()
		return false, nil
	}
	key := tuple[0] + tuple[1]
	if t.nowDep {
		key = string(binary.AppendVarint([]byte(key), now.UnixNano()))
	}
	t.open.Add(1)
	if g := t.groups[key]; g != nil {
		sq.g, sq.base = g, g.watermark()
		g.sinks = append(g.sinks, sq)
		sq.sink(sq.Snapshot())
		t.mu.Unlock()
		return true, nil
	}
	first := !t.tapped
	t.tapped = true
	g := t.newGroup(key, tuple, now)
	sq.g, g.sinks = g, []*StandingQuery{sq}
	t.route(g)
	t.attaching = g
	if g.ix[0] != nil && g.ix[0].held == nil && g.ix[1].held == nil {
		t.join(g) // both of its join indexes are whole: nothing to seed
	}
	t.mu.Unlock()

	for i, s := range t.pp.srcs {
		var seed func(p int, rows []core.TableRow)
		if g.seeded[i] != nil || g.ix[i] != nil && g.ix[i].held != nil {
			seed = func(p int, rows []core.TableRow) { t.seed(g, i, p, rows) }
		}
		switch {
		case first:
			s.ref.Attach(&t.taps[i], seed)
		case seed != nil:
			s.ref.Seed(seed)
		}
	}

	// Every partition is seeded: the group's state is its output. Finish
	// its aggregate groups and emit it as the snapshot frame before any
	// delivery can emit a delta frame.
	t.mu.Lock()
	t.attaching, g.seeded = nil, [2][]bool{}
	for _, ix := range g.ix {
		if ix != nil {
			ix.held = nil
		}
	}
	t.unload() // the seeds' rows must not stay reachable through it
	g.touched = false
	for _, sg := range g.groups {
		t.finish(g, sg)
	}
	t.flush() // a shared failure in the seeds failed the live groups too
	if err := g.failed; err != nil {
		t.unroute(g)
		g.sinks, sq.closed = nil, true
		dead := t.drop()
		t.mu.Unlock()
		if dead {
			t.detach()
		}
		return false, err
	}
	sq.sink(sq.Snapshot())
	t.mu.Unlock()
	return true, nil
}

// newGroup builds the group of key, to be seeded. A single-source
// template seeds its one side. A co-partitioned join seeds side 1 alone,
// pairing each row with its partner read from kv, and needs side 0 seeded
// nowhere: until side 1's partition is in, no row of the partition pairs.
// A join with join indexes seeds, as route finds them, only the sides
// whose side key has no index yet.
func (t *template) newGroup(key string, tuple [2]string, now time.Time) *group {
	pp := t.pp
	g := &group{t: t, key: key, tuple: tuple, ctx: &evalCtx{now: now}, base: t.deltas,
		matched: map[string][]any{}, groups: map[string]*subGroup{}}
	switch {
	case len(pp.srcs) == 1:
		g.seeded[0] = make([]bool, pp.srcs[0].ref.Partitions())
	case pp.coPart:
		g.seeded[1] = make([]bool, pp.srcs[1].ref.Partitions())
	}
	if pp.agg != nil && len(pp.groupBy) == 0 {
		// A global aggregate emits one row even over an empty input; the
		// "*" group always exists and the snapshot frame always carries it.
		g.groups[""] = &subGroup{disp: "*", pg: *newPartialGroup("", pp.aggs, true)}
	}
	return g
}

// route makes g reachable by the rows it can change: in a join with join
// indexes, a reader of the index of each of its side keys — the one under
// its tuple, bound to its instant where the side's pushed filter reads
// LOCALTIMESTAMP, or a new one that holds no partition yet.
func (t *template) route(g *group) {
	t.groups[g.key] = g
	for s, src := range t.pp.srcs {
		switch ixs := t.jx[s][g.tuple[s]]; {
		case t.jx[s] != nil:
			i := slices.IndexFunc(ixs, func(ix *jindex) bool {
				return !t.nowSide[s] || ix.readers[0].ctx.now.UnixNano() == g.ctx.now.UnixNano()
			})
			if i < 0 {
				i, ixs = len(ixs), append(ixs, &jindex{keys: map[joinKey][]joinEntry{}, held: make([]bool, src.ref.Partitions())})
				t.jx[s][g.tuple[s]] = ixs
			}
			ixs[i].readers = append(ixs[i].readers, g)
			g.ix[s] = ixs[i]
		case len(t.slots[s]) > 0:
			t.bySide[s][g.tuple[s]] = append(t.bySide[s][g.tuple[s]], g)
		}
	}
	t.all = append(t.all, g)
	g.routed = true
}

// unroute takes g out of every route, and out of its join indexes, which
// the last reader drops: g folds nothing more.
func (t *template) unroute(g *group) {
	if !g.routed {
		return
	}
	g.routed = false
	delete(t.groups, g.key)
	not := func(h *group) bool { return h == g }
	for s := range t.pp.srcs {
		switch ix := g.ix[s]; {
		case ix != nil:
			if ix.readers = slices.DeleteFunc(ix.readers, not); len(ix.readers) == 0 {
				without(t.jx[s], g.tuple[s], func(x *jindex) bool { return x == ix })
			}
		case len(t.slots[s]) > 0:
			without(t.bySide[s], g.tuple[s], not)
		}
	}
	t.all = slices.DeleteFunc(t.all, not)
}

// drop gives up one handle's hold on the template, under mu; it reports
// whether that was the last, which kills the template: the caller then
// detaches it, after releasing mu.
func (t *template) drop() bool {
	if t.open.Add(-1) > 0 {
		return false
	}
	t.dead.Store(true)
	return true
}

// detach unregisters a dead template and detaches its taps.
func (t *template) detach() {
	t.ex.forget(t)
	for i, s := range t.pp.srcs {
		s.ref.Detach(&t.taps[i])
	}
}

// Columns returns the output column names, aligned with SubDelta.Vals.
func (sq *StandingQuery) Columns() []string {
	items := sq.g.t.pp.stmt.Items
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = it.OutputName()
	}
	return cols
}

// Query returns the statement text the subscription was created from.
func (sq *StandingQuery) Query() string { return sq.query }

// Tables returns the source table names, FROM first.
func (sq *StandingQuery) Tables() []string {
	srcs := sq.g.t.pp.srcs
	out := make([]string, len(srcs))
	for i, s := range srcs {
		out[i] = s.name
	}
	return out
}

// Watermark returns the cumulative count of source deltas folded into the
// standing query's state since the handle attached.
func (sq *StandingQuery) Watermark() uint64 {
	t := sq.g.t
	t.mu.Lock()
	defer t.mu.Unlock()
	return sq.g.watermark() - sq.base
}

// watermark counts the deltas handed to the template's taps since the
// group started, less those its seeds read instead.
func (g *group) watermark() uint64 { return g.t.deltas - g.base }

// Snapshot returns the group's full current output as a snapshot frame —
// the resync a shed subscriber re-converges from. Call it only from
// inside the sink, which runs with the template's lock held.
func (sq *StandingQuery) Snapshot() SubEvent {
	return SubEvent{Deltas: sq.g.output(), Watermark: sq.g.watermark() - sq.base, Snapshot: true}
}

// output lists the group's whole output as deltas.
func (g *group) output() []SubDelta {
	var ds []SubDelta
	if g.t.pp.agg != nil {
		for _, sg := range g.groups {
			if sg.out != nil {
				ds = append(ds, SubDelta{Key: sg.disp, Vals: sg.out})
			}
		}
	} else {
		for k, vals := range g.matched {
			ds = append(ds, SubDelta{Key: k, Vals: vals})
		}
	}
	return ds
}

// Close drops the handle from its group under the template's lock: no
// event reaches it after Close returns. The group's last handle drops the
// group, and the template's last detaches its taps. Idempotent. Never call
// it from the sink: Close waits for the lock the sink runs under.
func (sq *StandingQuery) Close() {
	g := sq.g
	t := g.t
	t.mu.Lock()
	if sq.closed {
		t.mu.Unlock()
		return
	}
	sq.closed = true
	if g.sinks = slices.DeleteFunc(g.sinks, func(x *StandingQuery) bool { return x == sq }); len(g.sinks) == 0 {
		t.unroute(g)
	}
	dead := t.drop()
	t.mu.Unlock()
	if dead {
		t.detach()
	}
}

// seed is drive mode 1, the snapshot scan: Seed calls it with the rows of
// source side's partition p under that partition's read lock. It marks the
// partition in g's state — or, in a join with join indexes, in the index g
// fills — then folds the rows into g's attach batch as inserts.
func (t *template) seed(g *group, side, p int, rows []core.TableRow) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix := g.ix[side]; ix != nil {
		ix.held[p] = true
	} else {
		g.seeded[side][p] = true
	}
	for i := range rows {
		r := &rows[i]
		t.fold(side, p, partition.KeyString(r.Key), r, true, g)
	}
}

// deliver is drive mode 2, a delta group of source side's table: it runs
// on the writer, under the writer's partition lock. It folds each delta into
// the groups it can change — a group still attaching only where its
// partitions are seeded — then settles every live group the batch touched
// and hands its output deltas to its sinks as one frame, or its evaluation
// failure as the final one, before it releases the lock.
func (t *template) deliver(side int, ds []kv.Delta) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead.Load() {
		return
	}
	t.deltas += uint64(len(ds))
	if g := t.attaching; g != nil && !t.folds(g, side, ds[0].Part) {
		// A group is one partition's deltas; the seed reads their effect.
		g.base += uint64(len(ds))
	}
	if t.self && side == 1 {
		return // side 0's delivery of the same deltas folded them
	}
	for i := range ds {
		d := &ds[i]
		if d.HadOld {
			old := core.TableRow{Key: d.Key, Raw: d.Old}
			t.fold(side, d.Part, d.KeyS, &old, false, nil)
		}
		if !d.Tombstone {
			row := core.TableRow{Key: d.Key, Raw: d.Value}
			t.fold(side, d.Part, d.KeyS, &row, true, nil)
		}
	}
	t.unload()
	t.flush()
}

// flush settles every live group the batch touched and hands each its
// frame: the output deltas, or the evaluation failure as the final event,
// after which the group folds nothing more.
func (t *template) flush() {
	for _, g := range t.touched {
		g.touched = false
		deltas := t.settle(g)
		switch {
		case g.failed != nil:
			g.emit(SubEvent{Err: g.failed})
			t.unroute(g)
		case len(deltas) > 0:
			g.emit(SubEvent{Deltas: deltas})
		}
	}
	clear(t.touched)
	t.touched = t.touched[:0]
}

// emit hands one frame to every sink of the group, each stamped with its
// handle's watermark.
func (g *group) emit(ev SubEvent) {
	w := g.watermark()
	for _, sq := range g.sinks {
		ev.Watermark = w - sq.base
		sq.sink(ev)
	}
}

// sees reports whether g, of a single-source or co-partitioned template,
// folds a row of side's partition p: it has not failed, and the partition
// is in its state.
func (g *group) sees(side, p int) bool {
	return g.failed == nil && (g.seeded[side] == nil || g.seeded[side][p])
}

// folds reports whether g folds a delta of side's partition p: its join
// index on that side holds the partition; or it sees the partition, and in
// a co-partitioned join the partner's too, since the two pair only there.
func (t *template) folds(g *group, side, p int) bool {
	if ix := g.ix[side]; ix != nil {
		return ix.holds(p)
	}
	return g.sees(side, p) && (!t.pp.coPart || g.sees(1-side, p))
}

// fold runs one source row through the template as an insert (add) or as
// the retraction of that row's earlier insert, as a batch of one, into the
// groups it can change — into only, for a seed. A join folds in coFold or
// joinFold. Otherwise it reads the side's slot columns once to find those
// groups, tests the pushed filter and takes the row to each group's
// output. ks is the row's partition-key string and part its partition.
func (t *template) fold(side, part int, ks string, row *core.TableRow, add bool, only *group) {
	t.rows[side] = *row
	switch {
	case t.pp.coPart:
		t.coFold(side, part, ks, add, only)
		return
	case t.jx[side] != nil:
		t.joinFold(side, part, ks, row, add, only)
		return
	}
	gs, ok := t.reach(side, only)
	if !ok || !t.admits(0, gs) {
		return
	}
	for _, g := range gs {
		if g.sees(0, part) && t.passes(g, 0) {
			t.output(g, ks, "", add)
		}
	}
}

// joinFold is fold for a join with join indexes, its row loaded in rows:
// in each index of its side key (only's, for a seed) that holds its
// partition and whose filter it passes, the row is filed or taken out and
// paired, in each group reading that index, with the partners filed under
// its join key in the group's index on the other side.
func (t *template) joinFold(side, part int, ks string, row *core.TableRow, add bool, only *group) {
	t.tup = t.tup[:0]
	if len(t.slots[side]) > 0 && !t.tuple(side) {
		return
	}
	ixs := t.jx[side][string(t.tup)]
	if only != nil {
		ixs = nil
		if only.tuple[side] == string(t.tup) {
			ixs = only.ix[side : side+1]
		}
	}
	if len(ixs) == 0 {
		return
	}
	jk, ok := t.joinKey(side)
	if !ok {
		return
	}
	o := 1 - side
	for _, ix := range ixs {
		if !ix.holds(part) || !t.pushed(ix.readers[0].ctx, side, ix.readers...) {
			continue
		}
		ix.link(jk, ks, row, add)
		for _, g := range ix.readers {
			partners := g.ix[o].keys[jk]
			for i := 0; i < len(partners) && g.failed == nil; i++ {
				e := &partners[i]
				t.rows[o] = e.row
				if side == 0 {
					t.output(g, ks, e.ks, add)
				} else {
					t.output(g, e.ks, ks, add)
				}
			}
		}
	}
}

// join takes the join of g's two whole join indexes into its output: a
// group whose side keys both have an index attaches with no kv read.
func (t *template) join(g *group) {
	for jk, es := range g.ix[0].keys {
		partners := g.ix[1].keys[jk]
		for i := range es {
			t.rows[0] = es[i].row
			for j := range partners {
				t.rows[1] = partners[j].row
				t.output(g, es[i].ks, partners[j].ks, true)
			}
		}
	}
}

// coFold is fold for a co-partitioned join, its row loaded in rows: the
// row's partner is the other side's row under the same key in the same
// partition, read from kv under the partition lock the delivery or seed
// holds for every map (LookupLocked) — in a self-join, the row itself,
// since both taps see the one delta and side 0's folds it. Where the two
// keys are join-equal, as the one-shot probe requires, the pair joins
// every group that both rows' tuples reach, that sees the partition on
// both sides and whose pushed filters both rows pass.
func (t *template) coFold(side, part int, ks string, add bool, only *group) {
	o := 1 - side
	gs, ok := t.reach(side, only)
	if !ok || !t.admits(side, gs) {
		return
	}
	if t.self {
		t.rows[o] = t.rows[side]
	} else {
		r, found := t.pp.srcs[o].ref.LookupLocked(part, ks)
		if !found || makeJoinKey(r.Key) != makeJoinKey(t.rows[side].Key) {
			return
		}
		t.rows[o] = r
	}
	oSlots := len(t.slots[o]) > 0
	switch {
	case !oSlots:
	case !t.tuple(o):
		return
	case len(t.slots[side]) == 0 && only == nil:
		gs = t.bySide[o][string(t.tup)]
	}
	if !t.admits(o, gs) {
		return
	}
	for _, g := range gs {
		if oSlots && g.tuple[o] != string(t.tup) || !g.sees(side, part) || !g.sees(o, part) {
			continue
		}
		if t.passes(g, side) && t.passes(g, o) {
			t.output(g, ks, ks, add)
		}
	}
}

// reach returns the groups a row of side, loaded in rows, can change:
// only, when set, if the row's tuple is its own; else those under the
// row's tuple, or every group for a side without slots.
func (t *template) reach(side int, only *group) ([]*group, bool) {
	if len(t.slots[side]) > 0 {
		if !t.tuple(side) {
			return nil, false
		}
		if only == nil {
			gs := t.bySide[side][string(t.tup)]
			return gs, len(gs) > 0
		}
		if only.tuple[side] != string(t.tup) {
			return nil, false
		}
	}
	if only == nil {
		return t.all, true
	}
	t.one[0] = only
	return t.one[:], true
}

// tuple reads side's slot columns off its row into tup; false when one is
// NULL or of another kind than its literal, which no tuple then matches.
func (t *template) tuple(side int) bool {
	t.solo(side)
	v := t.sc.datums(1)
	defer t.sc.dropDatums(1)
	t.tup = t.tup[:0]
	for _, c := range t.slots[side] {
		if err := t.ctx.evalBatch(c, &t.b, ident[:1], v); err != nil {
			t.fail(nil, err)
			return false
		}
		if v[0].k != c.kind {
			return false
		}
		t.tup = appendParam(t.tup, v[0])
	}
	return true
}

// joinKey evaluates side's bound join key on its row.
func (t *template) joinKey(side int) (joinKey, bool) {
	key := Expr(t.pp.joins[0].left)
	if side == 1 {
		key = t.pp.joins[0].right
	}
	t.solo(side)
	v := t.sc.datums(1)
	defer t.sc.dropDatums(1)
	if err := t.ctx.evalBatch(key, &t.b, ident[:1], v); err != nil {
		t.fail(nil, err)
		return joinKey{}, false
	}
	return v[0].joinKey(), true
}

// solo makes source s's row the working batch's only source: a step over
// one source reads no other, as in the one-shot fragments, where a source
// not yet reached has no column.
func (t *template) solo(s int) {
	clear(t.b.cols)
	t.b.cols[s] = t.rows[s : s+1]
}

// unload empties the working batch.
func (t *template) unload() {
	clear(t.rows)
	clear(t.b.cols)
}

// joinDisp renders a join row's key: "left|right", each partition-key
// string escaped.
func joinDisp(lks, rks string) string {
	return string(appendDisp(append(appendDisp(nil, lks), '|'), rks))
}

// appendDisp appends one escaped component of a display key: `\` and `|`
// are preceded by a backslash, so the "|" between components is never
// ambiguous and no escaped text reads as the NULL token `\N`.
func appendDisp(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' || s[i] == '|' {
			dst = append(dst, '\\')
		}
		dst = append(dst, s[i])
	}
	return dst
}

// admits tests side s's pushed filter on its row once for the groups gs it
// reaches, where the filter reads no instant; an evaluation error fails gs.
func (t *template) admits(s int, gs []*group) bool {
	return t.nowSide[s] || t.pushed(t.ctx, s, gs...)
}

// passes tests side s's pushed filter on its row for g at g's instant,
// where the filter reads LOCALTIMESTAMP; admits tested any other once.
func (t *template) passes(g *group, s int) bool {
	return !t.nowSide[s] || t.pushed(g.ctx, s, g)
}

// pushed tests source s's pushed filter on its row alone under ctx's
// instant; an evaluation error fails gs.
func (t *template) pushed(ctx *evalCtx, s int, gs ...*group) bool {
	t.solo(s)
	return t.test(ctx, t.pp.pushedB[s], gs...)
}

// test tests a bound predicate on the working batch's row under ctx's
// instant; an evaluation error fails gs.
func (t *template) test(ctx *evalCtx, pred filter, gs ...*group) bool {
	if pred.e == nil {
		return true
	}
	kept := t.sc.sel(1)
	defer t.sc.dropSel()
	kept, err := ctx.filterBatch(pred, &t.b, ident[:1], kept)
	if err != nil {
		for _, g := range gs {
			t.fail(g, err)
		}
		return false
	}
	return len(kept) == 1
}

// output takes the joined row in rows past the residual filter into g's
// output, or out of it: a non-aggregate query projects it into its
// matched output; an aggregate one adds it to or removes it from its
// group. lks and rks are the partition-key strings of the joined row's
// sources (rks unused for a single source).
func (t *template) output(g *group, lks, rks string, add bool) {
	for s := range t.rows {
		t.b.cols[s] = t.rows[s : s+1]
	}
	if !t.test(g.ctx, t.pp.residualB, g) {
		return
	}
	if t.pp.agg != nil {
		t.member(g, add)
		return
	}
	key := lks
	if len(t.rows) == 2 {
		key = joinDisp(lks, rks)
	}
	var r *rowEff
	if g != t.attaching {
		t.touch(g)
		r = g.eff.row(key, g.matched)
	}
	if !add {
		delete(g.matched, key)
		if r != nil {
			r.after = nil
		}
		return
	}
	vals, _, err := g.ctx.project(t.pp.items, nil, &t.b, ident[:1])
	if err != nil {
		t.fail(g, err)
		return
	}
	g.matched[key] = vals
	if r != nil {
		r.after = vals
	}
}

// member adds the joined row in the working batch to its group's
// accumulators in g, or retracts it, and marks the group dirty. The GROUP
// BY key is each grouping value in the self-delimiting binary form; a
// statement without GROUP BY has the one empty key. A new group's display
// key renders the same values, and its first member is copied as its head.
func (t *template) member(g *group, add bool) {
	pp := t.pp
	cols, err := groupCols(g.ctx, pp, &t.b, ident[:1], t.colBuf[:0])
	t.colBuf = cols
	defer t.sc.dropDatums(len(cols))
	if err != nil {
		t.fail(g, err)
		return
	}
	t.keyBuf, t.keyVals = t.keyBuf[:0], t.keyVals[:0]
	for _, kc := range cols[:len(pp.groupBy)] {
		t.keyBuf = kc[0].appendGroupKey(t.keyBuf)
		t.keyVals = append(t.keyVals, kc[0])
	}
	sg := g.groups[string(t.keyBuf)]
	if sg == nil {
		if !add {
			return
		}
		// The global "*" group is created with g and never gets here.
		gk := string(t.keyBuf)
		sg = &subGroup{disp: groupDisp(t.keyVals), pg: *newPartialGroup(gk, pp.aggs, true)}
		g.groups[gk] = sg
	}
	if !sg.dirty && g != t.attaching {
		t.touch(g)
		sg.dirty = true
		g.eff.dirty = append(g.eff.dirty, sg)
	}
	if add && sg.members == 0 {
		sg.pg.keepHead(&t.b, 0)
	}
	if err := sg.pg.fold(pp.aggs, cols[len(pp.groupBy):], 0, add); err != nil {
		t.fail(g, err)
		return
	}
	if add {
		sg.members++
	} else if sg.members--; sg.members == 0 {
		sg.pg.dropHead()
	}
}

// groupDisp renders a group's display key: its grouping values, each
// escaped (NULL as `\N`), joined by "|".
func groupDisp(vals []datum) string {
	var b []byte
	for i, v := range vals {
		if i > 0 {
			b = append(b, '|')
		}
		if v.k == dNull {
			b = append(b, `\N`...)
			continue
		}
		b = appendDisp(b, fmt.Sprint(v.box()))
	}
	return string(b)
}

// touch marks g changed by the batch being folded: a live group settles
// when the delivery ends. The attaching group records no effects — its
// first frame is its whole output — and is touched only by a failure,
// which its attach reports.
func (t *template) touch(g *group) {
	if !g.touched {
		g.touched = true
		if g != t.attaching {
			t.touched = append(t.touched, g)
		}
	}
}

// settle turns a live group's accumulated effects into output deltas and
// resets them: touched non-aggregate rows diff their before/after values,
// and each dirty group finishes (suppressing no-op upserts).
func (t *template) settle(g *group) []SubDelta {
	var out []SubDelta
	for _, r := range g.eff.rows {
		switch {
		case r.after != nil:
			if r.before != nil && sameVals(r.before, r.after) {
				continue
			}
			out = append(out, SubDelta{Key: r.key, Vals: r.after})
		case r.before != nil:
			out = append(out, SubDelta{Key: r.key, Delete: true})
		}
	}
	for _, sg := range g.eff.dirty {
		sg.dirty = false
		if d, ok := t.finish(g, sg); ok {
			out = append(out, d)
		}
	}
	g.eff.reset()
	if g.failed != nil {
		return nil
	}
	return out
}

// finish runs a changed aggregate group's live accumulators through
// HAVING and the select list and reports the output delta it makes, if
// any. A group that emptied (the global one never does) or that HAVING
// now rejects retracts its emitted row.
func (t *template) finish(g *group, sg *subGroup) (SubDelta, bool) {
	var vals []any // nil: the group emits no row
	if sg.members == 0 && len(t.pp.groupBy) > 0 {
		delete(g.groups, sg.pg.key)
	} else if g.failed == nil {
		t.dirty[0] = &sg.pg
		err := t.fin.finish(g.ctx, t.pp, t.dirty[:], func(_ int, v, _ []any) { vals = v })
		t.dirty[0] = nil
		if err != nil {
			t.fail(g, err)
		}
	}
	switch {
	case g.failed != nil, vals == nil && sg.out == nil, vals != nil && sameVals(sg.out, vals):
		return SubDelta{}, false
	case vals == nil:
		sg.out = nil
		return SubDelta{Key: sg.disp, Delete: true}, true
	}
	sg.out = vals
	return SubDelta{Key: sg.disp, Vals: vals}, true
}

// sameVals reports whether two output rows hold the same values, column
// by column as typed datums: the same kind and Go type, and the same value
// — a float by its bits, a time by its instant. A value of no SQL kind
// never compares equal, so its row is re-emitted rather than wrongly held.
func sameVals(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := fromAny(a[i]), fromAny(b[i])
		if x.k != y.k || x.w != y.w {
			return false
		}
		switch x.k {
		case dTime:
			if !x.time().Equal(y.time()) {
				return false
			}
		case dOther:
			return false
		default:
			if x.n != y.n || x.s != y.s {
				return false
			}
		}
	}
	return true
}

// fail records g's first evaluation error: g folds nothing more, and its
// delivery hands the error on as the final event. A nil g is an error in
// what every group shares — a slot column or a join key — which fails
// them all and the template with them.
func (t *template) fail(g *group, err error) {
	if g != nil {
		if g.failed == nil {
			g.failed = err
			t.touch(g)
		}
		return
	}
	t.dead.Store(true)
	for _, h := range t.all {
		t.fail(h, err)
	}
}

package sql

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"squery/internal/core"
	"squery/internal/partition"
)

// SUBSCRIBE <select>: standing queries over live operator state. A
// standing query is the statement's compiled plan — the physPlan compile
// builds for a one-shot query, with its bound columns, pushed and residual
// filters and bound join key — fed signed rows instead of a scan. One fold
// runs a source row through the plan's stages as an insert or as a
// retraction: the source's pushed filter, then for a join the join index
// and the partner rows it enumerates, the residual filter, and last the
// select list (projectRow, as the one-shot project sink calls it) or the
// row's group. Two drive modes feed it: the attach copy of each source
// table, taken through its shared arrangement, folds in as inserts; then
// every arrangement delta folds in as the retraction of the row it replaced
// followed by the insert of its new row. Both run under the standing
// query's lock, the second on the writer that made the change: no
// goroutine or queue stands between a state write and the frame the sink
// receives for it.
//
// A retraction needs no record of what its row produced. A delta's Old is
// exactly the row this query inserted for the key, and evaluation is
// deterministic (LOCALTIMESTAMP is fixed at subscribe time), so the old row
// fails the same filters, joins under the same key and lands in the same
// group as it did on insert.
//
// A standing query holds no copy of its source tables: the kv map is the
// one copy. What stays resident per subscriber is its output — matched
// rows, or groups — and, for a join, the join index of the rows that
// passed their side's pushed filter. A group is the one-shot group form
// kept live: a retractable partialGroup whose accumulators each member
// row's aggregate arguments are added to on insert and removed from on
// retraction, a member count, and a head row copied from its first insert
// for the GROUP BY columns (a bare column outside GROUP BY reads that row,
// which may since have left the group). A dirty group settles by running its live
// accumulators through HAVING and the select list (finishGroup): no member
// rows are kept, and none is refolded.
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

// SetArrangements wires the executor to a shared arrangement registry,
// enabling SUBSCRIBE. Without it every subscription attempt fails.
func (ex *Executor) SetArrangements(r *core.ArrangeRegistry) { ex.arr = r }

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
	// standing query's state when the event was emitted.
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
// the head row (held by value, so the group is one allocation), and the
// output row it last emitted (nil when none).
type subGroup struct {
	disp    string
	members int
	pg      partialGroup
	out     []any
}

// joinEntry is one source row filed under its join key in a join index.
type joinEntry struct {
	ks  string // partition-key string
	row core.TableRow
}

// pendDeltas is one arrangement delivery that reached a standing query
// before its attach copy was folded, tagged with the source it came from.
type pendDeltas struct {
	side int
	ds   []core.ArrDelta
}

// batchEff accumulates the output effects of one delta batch so an
// update (tombstone + upsert of the same key, or a value change) emits
// one coalesced delta instead of a delete/insert pair.
type batchEff struct {
	// before records, per touched non-aggregate output key, the projected
	// row at first touch (nil = was not matched).
	before map[string][]any
	// dirty records the aggregate groups needing recomputation.
	dirty map[string]bool
}

func newBatchEff() *batchEff {
	return &batchEff{before: map[string][]any{}, dirty: map[string]bool{}}
}

// StandingQuery is one compiled incrementally-maintained query: N of them
// attach to the same shared arrangement per source table. Events reach the
// sink in order and under the standing query's lock — the initial snapshot
// frame during subscription, each delta frame on the writer whose change
// it folds.
type StandingQuery struct {
	pp    *physPlan
	query string
	ctx   *evalCtx // LOCALTIMESTAMP is fixed at subscribe time
	sink  func(SubEvent)

	arrs    []*core.Arrangement
	lisIDs  []int
	closing sync.Once

	mu sync.Mutex
	// live is set once the attach copy has been folded. Until then the
	// listeners file their deliveries in early, and SubscribeQuery folds
	// those above floors[i], source i's per-partition sequence floors at
	// attach (deltas at or below them are already in the copy). Every later
	// delivery is above the floors.
	live      bool
	early     []pendDeltas
	floors    [][]uint64
	failed    error
	watermark uint64
	// jr is the working row fold evaluates the plan against, one slot per
	// source; a slot is nil until the fold reaches that source.
	jr joinedRow
	// jindex[i] files source i's rows that passed its pushed filter by join
	// key (join mode only) — the shape the one-shot hash joins build, kept
	// alive: few rows share a key, so a short slice beats a map per key.
	jindex [2]map[joinKey][]joinEntry
	// matched is the non-aggregate output state — each matching row's
	// projected values under its SubDelta.Key — groups the aggregate one.
	matched map[string][]any
	groups  map[string]*subGroup
	// keyBuf and keyVals are the scratch of one group-key pass.
	keyBuf  []byte
	keyVals []datum
}

// SubscribeQuery compiles a statement (with or without the SUBSCRIBE
// prefix) into a standing query: check the dialect, compile the plan,
// acquire one shared arrangement per source and attach a listener to it,
// then under the lock fold in the attach copy as inserts and the deltas
// that raced it, go live and emit the snapshot frame. bind is called once
// with the standing query, before any event is emitted, and returns the
// sink — so a sink that needs the handle (to resync from Snapshot, to end
// the subscription on a terminal error) has it by the time it first runs.
//
// The sink receives the initial snapshot frame before SubscribeQuery
// returns, then one delta frame per arrangement delivery that changed the
// output. It runs with the standing query's lock held, on whichever writer
// goroutine made the change, inside that writer's segment lock: it must do
// bounded work, never block on anything a writer can hold, never call into
// the arrangement or the store, and never call Close (hand that to another
// goroutine). Close detaches and releases the arrangements.
func (ex *Executor) SubscribeQuery(query string, bind func(*StandingQuery) func(SubEvent)) (*StandingQuery, error) {
	_, query = splitSubscribe(query)
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if ex.arr == nil {
		return nil, fmt.Errorf("sql: subscriptions are not enabled (no arrangement registry)")
	}
	if err := validate(stmt); err != nil {
		return nil, err
	}
	pp, err := ex.compile(stmt, ExecOpts{}, false)
	if err != nil {
		return nil, err
	}
	for _, s := range pp.srcs {
		if s.ref.IsVirtual() {
			return nil, fmt.Errorf("sql: cannot SUBSCRIBE to virtual table %q (no change stream — poll it)", s.name)
		}
		if s.ref.IsSnapshot() {
			return nil, fmt.Errorf("sql: cannot SUBSCRIBE to snapshot table %q (snapshots are immutable — query it once)", s.name)
		}
	}
	sq := &StandingQuery{
		pp:    pp,
		query: query,
		ctx:   &evalCtx{now: time.Now()},

		jr:      joinedRow{srcs: pp.srcs, tabs: make([]*core.TableRow, len(pp.srcs))},
		matched: map[string][]any{},
		groups:  map[string]*subGroup{},
	}
	sq.sink = bind(sq)
	if len(pp.srcs) == 2 {
		sq.jindex = [2]map[joinKey][]joinEntry{{}, {}}
	}

	// Acquire one shared arrangement per source and attach a listener. The
	// listener is registered before the table is copied, and the deltas it
	// files before the query goes live are folded after the copy, less what
	// the copy's floors cover — never lost or doubled. The copy is taken
	// without sq.mu: it reads under segment locks, and a writer holding one
	// may be waiting in the listener for sq.mu.
	seeds := make([][]core.TableRow, len(pp.srcs))
	for i := range pp.srcs {
		a, err := ex.arr.Acquire(pp.srcs[i].name)
		if err != nil {
			for j, prev := range sq.arrs {
				prev.Detach(sq.lisIDs[j])
				prev.Release()
			}
			return nil, err
		}
		sq.arrs = append(sq.arrs, a)
		side := i
		rows, floors, id := a.Attach(func(ds []core.ArrDelta) { sq.deliver(side, ds) })
		sq.lisIDs = append(sq.lisIDs, id)
		sq.floors = append(sq.floors, floors)
		seeds[i] = rows
	}

	// Drive mode 1, the snapshot scan: fold the copied rows in as inserts,
	// then the deltas filed while they were copied, and emit the result as
	// the snapshot frame before any listener can emit a delta frame.
	sq.mu.Lock()
	eff := newBatchEff()
	if pp.agg != nil && len(pp.groupBy) == 0 {
		// A global aggregate emits one row even over an empty input; the
		// "*" group always exists and the snapshot frame always carries it.
		sq.groups[""] = &subGroup{disp: "*", pg: *newPartialGroup("", pp.aggs, true)}
		eff.dirty[""] = true
	}
	for i := range seeds {
		for j := range seeds[i] {
			r := &seeds[i][j]
			sq.fold(i, partition.KeyString(r.Key), r, true, eff)
		}
	}
	for _, b := range sq.early {
		for i := range b.ds {
			if d := &b.ds[i]; d.Seq > sq.floors[b.side][d.Part] {
				sq.applyDelta(b.side, d, eff)
			}
		}
	}
	sq.early, sq.floors = nil, nil
	clear(sq.jr.tabs) // the attach copy must not stay reachable through it
	deltas := sq.settleLocked(eff)
	if err := sq.failed; err != nil {
		// Close takes the arrangements' listener locks, which a writer
		// waiting in the listener for sq.mu read-holds: unlock first.
		sq.mu.Unlock()
		sq.Close()
		return nil, err
	}
	sq.live = true
	sq.sink(SubEvent{Deltas: deltas, Watermark: sq.watermark, Snapshot: true})
	sq.mu.Unlock()
	return sq, nil
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

// Columns returns the output column names, aligned with SubDelta.Vals.
func (sq *StandingQuery) Columns() []string {
	cols := make([]string, len(sq.pp.stmt.Items))
	for i, it := range sq.pp.stmt.Items {
		cols[i] = it.OutputName()
	}
	return cols
}

// Query returns the statement text the subscription was created from.
func (sq *StandingQuery) Query() string { return sq.query }

// Tables returns the source table names, FROM first.
func (sq *StandingQuery) Tables() []string {
	out := make([]string, len(sq.pp.srcs))
	for i, s := range sq.pp.srcs {
		out[i] = s.name
	}
	return out
}

// Watermark returns the cumulative count of source deltas folded in.
func (sq *StandingQuery) Watermark() uint64 {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return sq.watermark
}

// Snapshot returns the standing query's full current output as a snapshot
// frame — the resync a shed subscriber re-converges from. Call it only
// from inside the sink, which runs with the standing query's lock held.
func (sq *StandingQuery) Snapshot() SubEvent {
	var ds []SubDelta
	if sq.pp.agg != nil {
		for _, g := range sq.groups {
			if g.out != nil {
				ds = append(ds, SubDelta{Key: g.disp, Vals: g.out})
			}
		}
	} else {
		for k, vals := range sq.matched {
			ds = append(ds, SubDelta{Key: k, Vals: vals})
		}
	}
	return SubEvent{Deltas: ds, Watermark: sq.watermark, Snapshot: true}
}

// Close detaches from the arrangements and releases them (dropping them
// at zero readers). Idempotent; no listener call is in flight after Detach
// returns, so no event is delivered after Close returns. Never call it from
// the sink: Detach waits for the listener call the sink runs in.
func (sq *StandingQuery) Close() {
	sq.closing.Do(func() {
		for i, a := range sq.arrs {
			a.Detach(sq.lisIDs[i])
			a.Release()
		}
	})
}

// deliver is drive mode 2, the arrangement listener for source side: it
// runs on the writer, under the writer's segment lock. Before the query is
// live it files the group for SubscribeQuery; after, it folds the group
// through the standing stages and hands the output deltas to the sink as
// one frame, or the evaluation failure as the final one, before it
// releases the lock.
func (sq *StandingQuery) deliver(side int, ds []core.ArrDelta) {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if !sq.live {
		sq.early = append(sq.early, pendDeltas{side: side, ds: ds})
		return
	}
	if sq.failed != nil {
		return
	}
	eff := newBatchEff()
	for i := range ds {
		sq.applyDelta(side, &ds[i], eff)
	}
	deltas := sq.settleLocked(eff)
	switch {
	case sq.failed != nil:
		sq.sink(SubEvent{Err: sq.failed, Watermark: sq.watermark})
	case len(deltas) > 0:
		sq.sink(SubEvent{Deltas: deltas, Watermark: sq.watermark})
	}
}

// applyDelta folds one arrangement delta into the derived state: the
// retraction of the row it replaced, then the insert of its new row.
// batchEff coalesces the pair back into one output delta. The delta is
// shared with every other listener of the arrangement and only read.
func (sq *StandingQuery) applyDelta(side int, d *core.ArrDelta, eff *batchEff) {
	sq.watermark++
	if d.HadOld {
		sq.fold(side, d.KeyS, &d.Old, false, eff)
	}
	if !d.Tombstone {
		sq.fold(side, d.KeyS, &d.Row, true, eff)
	}
}

// fold runs one source row through the plan as an insert (add) or as the
// retraction of that row's earlier insert: the source's pushed filter;
// for a join, linking or unlinking the row in its side's join index under
// the plan's bound join key, then every partner row the other side files
// under that key; then output. ks is the row's partition-key string.
func (sq *StandingQuery) fold(side int, ks string, row *core.TableRow, add bool, eff *batchEff) {
	if sq.failed != nil {
		return
	}
	pp, jr := sq.pp, &sq.jr
	clear(jr.tabs)
	jr.tabs[side] = row
	if !sq.passes(pp.pushedB[side]) {
		return
	}
	if len(pp.srcs) == 1 {
		sq.output(ks, "", add, eff)
		return
	}
	key := Expr(pp.joins[0].left)
	if side == 1 {
		key = pp.joins[0].right
	}
	v, err := sq.ctx.evalD(key, jr)
	if err != nil {
		sq.fail(err)
		return
	}
	jk := v.joinKey()
	es := sq.jindex[side][jk]
	if add {
		sq.jindex[side][jk] = append(es, joinEntry{ks: ks, row: *row})
	} else {
		if i := slices.IndexFunc(es, func(e joinEntry) bool { return e.ks == ks }); i >= 0 {
			es = slices.Delete(es, i, i+1)
		}
		if len(es) == 0 {
			delete(sq.jindex[side], jk)
		} else {
			sq.jindex[side][jk] = es
		}
	}
	o := 1 - side
	partners := sq.jindex[o][jk]
	for i := range partners {
		jr.tabs[o] = &partners[i].row
		l, r := ks, partners[i].ks
		if side == 1 {
			l, r = r, l
		}
		sq.output(l, r, add, eff)
	}
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

// passes tests a bound predicate against the working row; an evaluation
// error fails the standing query.
func (sq *StandingQuery) passes(pred Expr) bool {
	keep, err := holds(sq.ctx, pred, &sq.jr)
	if err != nil {
		sq.fail(err)
	}
	return keep
}

// output takes the joined row in the working row past the residual filter
// into the standing result, or out of it: a non-aggregate query projects
// it into its matched output; an aggregate one adds it to or removes it
// from its group. lks and rks are the partition-key strings of the joined
// row's sources (rks unused for a single source).
func (sq *StandingQuery) output(lks, rks string, add bool, eff *batchEff) {
	if !sq.passes(sq.pp.residualB) {
		return
	}
	if sq.pp.agg != nil {
		sq.member(add, eff)
		return
	}
	key := lks
	if len(sq.pp.srcs) == 2 {
		key = joinDisp(lks, rks)
	}
	if _, seen := eff.before[key]; !seen {
		eff.before[key] = sq.matched[key]
	}
	if !add {
		delete(sq.matched, key)
		return
	}
	vals, err := projectRow(sq.ctx, sq.pp.items, nil, &sq.jr)
	if err != nil {
		sq.fail(err)
		return
	}
	sq.matched[key] = vals
}

// member adds the joined row in the working row to its group's
// accumulators, or retracts it, and marks the group dirty. The GROUP BY
// key is each grouping value in the self-delimiting binary form; a
// statement without GROUP BY has the one empty key. A new group's display
// key renders the same values, and its first member is copied as its head.
func (sq *StandingQuery) member(add bool, eff *batchEff) {
	pp, jr := sq.pp, &sq.jr
	sq.keyBuf, sq.keyVals = sq.keyBuf[:0], sq.keyVals[:0]
	for _, ge := range pp.groupBy {
		v, err := sq.ctx.evalD(ge, jr)
		if err != nil {
			sq.fail(err)
			return
		}
		sq.keyBuf = v.appendGroupKey(sq.keyBuf)
		sq.keyVals = append(sq.keyVals, v)
	}
	g := sq.groups[string(sq.keyBuf)]
	if g == nil {
		if !add {
			return
		}
		// The global "*" group is seeded at subscribe time and never gets
		// here.
		gk := string(sq.keyBuf)
		g = &subGroup{disp: groupDisp(sq.keyVals), pg: *newPartialGroup(gk, pp.aggs, true)}
		sq.groups[gk] = g
	}
	eff.dirty[g.pg.key] = true
	if add && g.members == 0 {
		g.pg.keepHead(jr)
	}
	if err := g.pg.fold(sq.ctx, pp.aggs, jr, add); err != nil {
		sq.fail(err)
		return
	}
	if add {
		g.members++
	} else if g.members--; g.members == 0 {
		g.pg.dropHead()
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

// settleLocked turns a batch's accumulated effects into output deltas:
// touched non-aggregate rows diff their before/after matched state, dirty
// groups finish their accumulators (suppressing no-op upserts).
func (sq *StandingQuery) settleLocked(eff *batchEff) []SubDelta {
	if sq.failed != nil {
		return nil
	}
	var out []SubDelta
	for key, prev := range eff.before {
		cur := sq.matched[key]
		switch {
		case cur != nil:
			if prev != nil && sameVals(prev, cur) {
				continue
			}
			out = append(out, SubDelta{Key: key, Vals: cur})
		case prev != nil:
			out = append(out, SubDelta{Key: key, Delete: true})
		}
	}
	for gk := range eff.dirty {
		d, ok := sq.settleGroup(gk)
		if sq.failed != nil {
			return nil
		}
		if ok {
			out = append(out, d)
		}
	}
	return out
}

// settleGroup finishes one dirty group, returning the delta it produces
// (if any): finishGroup runs its live accumulators through HAVING and the
// select list. A group that emptied (the global one never does) or that
// HAVING now rejects retracts its emitted row.
func (sq *StandingQuery) settleGroup(gk string) (SubDelta, bool) {
	pp := sq.pp
	g := sq.groups[gk]
	if g == nil {
		return SubDelta{}, false
	}
	var vals []any // nil: the group emits no row
	if g.members == 0 && len(pp.groupBy) > 0 {
		delete(sq.groups, gk)
	} else {
		var err error
		if vals, _, err = finishGroup(sq.ctx, pp.having, pp.items, &g.pg); err != nil {
			sq.fail(err)
			return SubDelta{}, false
		}
	}
	switch {
	case vals == nil && g.out == nil:
		return SubDelta{}, false
	case vals == nil:
		g.out = nil
		return SubDelta{Key: g.disp, Delete: true}, true
	case sameVals(g.out, vals):
		return SubDelta{}, false
	}
	g.out = vals
	return SubDelta{Key: g.disp, Vals: vals}, true
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

// fail records the first evaluation error; the standing query stops
// producing deltas after it (the listener delivers it as the final event).
func (sq *StandingQuery) fail(err error) {
	if sq.failed == nil {
		sq.failed = err
	}
}

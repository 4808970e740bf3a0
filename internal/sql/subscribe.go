package sql

import (
	"fmt"
	"slices"
	"strings"
	"sync"
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
// source's pushed filter, then for a join the join index and the partner
// rows it enumerates, the residual filter, and last the select list
// (project, as the one-shot project sink calls it) or the row's group
// keys and aggregate arguments. Two drive modes feed it: each partition of
// each source table seeds in as inserts; then every delta of the table's
// live kv map folds in as the retraction of the row it replaced followed
// by the insert of its new row. Each source side is a tap of its table's
// map (sideTap), so a delta reaches it through kv's own tap loop. Both run
// under the standing query's lock and under the partition's segment lock —
// the seed on the subscriber, the delta on the writer that made the
// change: no goroutine or queue stands between a state write and the
// frame the sink receives for it.
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
// which may since have left the group). A dirty group settles by running
// its live accumulators through HAVING and the select list (finisher, as
// the one-shot client merge finishes groups): no member rows are kept, and
// none is refolded.
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

// sideTap is one source side's tap on its table's live map. Each side is
// its own value: kv detaches a tap by equality, so the two sides of a
// self-join must not be equal.
type sideTap struct {
	sq   *StandingQuery
	side int
}

// OnDeltas implements kv.Tap: drive mode 2 for the side.
func (t *sideTap) OnDeltas(ds []kv.Delta) { t.sq.deliver(t.side, ds) }

// StandingQuery is one compiled incrementally-maintained query, a tap on
// each source table's live map. Events reach the sink in order and under
// the standing query's lock — the initial snapshot frame during
// subscription, each delta frame on the writer whose change it folds.
type StandingQuery struct {
	pp    *physPlan
	query string
	ctx   *evalCtx // LOCALTIMESTAMP is fixed at subscribe time
	sink  func(SubEvent)
	taps  [2]sideTap

	mu sync.Mutex
	// closed is set by Close once both taps are detached; a delivery
	// already in flight then finds it and returns without folding.
	closed bool
	// attach is the attach batch: the effects of the seeds, and of the
	// deliveries after them, that SubscribeQuery settles as the snapshot
	// frame. It is nil once the query is live. Until then seeded[i][p]
	// records whether source i's partition p has been seeded: a delivery
	// for a partition not yet seeded is dropped, because the seed reads its
	// effect, and one for a seeded partition folds into the batch.
	attach    *batchEff
	seeded    [][]bool
	failed    error
	watermark uint64
	// b is the working batch fold evaluates the plan over: one row, held in
	// rows, from each source the fold has reached — a source not yet
	// reached has no column.
	b    batch
	sc   scratch
	rows []core.TableRow
	// fin finishes a dirty group, held in dirty, as a batch of one group.
	fin   *finisher
	dirty [1]*partialGroup
	// jindex[i] files source i's rows that passed its pushed filter by join
	// key (join mode only) — the shape the one-shot hash joins build, kept
	// alive: few rows share a key, so a short slice beats a map per key.
	jindex [2]map[joinKey][]joinEntry
	// matched is the non-aggregate output state — each matching row's
	// projected values under its SubDelta.Key — groups the aggregate one.
	matched map[string][]any
	groups  map[string]*subGroup
	// keyBuf, keyVals and colBuf are the scratch of one group-key pass.
	keyBuf  []byte
	keyVals []datum
	colBuf  [][]datum
}

// SubscribeQuery compiles a statement (with or without the SUBSCRIBE
// prefix) into a standing query: check the dialect, compile the plan, and
// per source attach the side's tap to the table's live map and seed from
// each partition; then settle the attach batch, go live and emit it as the
// snapshot frame. bind is called once with the standing query,
// before any event is emitted, and returns the sink — so a sink that needs
// the handle (to resync from Snapshot, to end the subscription on a
// terminal error) has it by the time it first runs.
//
// A partition's seed and its deltas are ordered by the partition's
// segment lock. The lock order is the writer's — segment lock, then the
// standing query's — and nothing holds the standing query's lock while it
// waits for a segment lock.
//
// The sink receives the initial snapshot frame before SubscribeQuery
// returns, then one delta frame per delta group that changed the output.
// It runs with the standing query's lock held, on whichever writer
// goroutine made the change, inside that writer's segment lock: it must do
// bounded work, never block on anything a writer can hold, never call into
// the store, and never call Close (hand that to another goroutine). Close
// detaches the taps.
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

		attach:  newBatchEff(),
		seeded:  make([][]bool, len(pp.srcs)),
		rows:    make([]core.TableRow, len(pp.srcs)),
		matched: map[string][]any{},
		groups:  map[string]*subGroup{},
	}
	sq.b = newBatch(pp.srcs, &sq.sc)
	sq.b.n = 1
	if pp.agg != nil {
		sq.fin = newFinisher(pp.srcs)
	}
	sq.sink = bind(sq)
	if len(pp.srcs) == 2 {
		sq.jindex = [2]map[joinKey][]joinEntry{{}, {}}
	}
	if pp.agg != nil && len(pp.groupBy) == 0 {
		// A global aggregate emits one row even over an empty input; the
		// "*" group always exists and the snapshot frame always carries it.
		sq.groups[""] = &subGroup{disp: "*", pg: *newPartialGroup("", pp.aggs, true)}
		sq.attach.dirty[""] = true
	}

	for i, s := range pp.srcs {
		sq.seeded[i] = make([]bool, s.ref.Partitions())
		sq.taps[i] = sideTap{sq, i}
		s.ref.Attach(&sq.taps[i], func(p int, rows []core.TableRow) { sq.seed(i, p, rows) })
	}

	// Every partition is seeded: settle the attach batch and emit it as the
	// snapshot frame before any delivery can emit a delta frame.
	sq.mu.Lock()
	sq.unload() // the seeds' rows must not stay reachable through it
	deltas := sq.settleLocked(sq.attach)
	if err := sq.failed; err != nil {
		// Close takes sq.mu after it detaches: unlock first.
		sq.mu.Unlock()
		sq.Close()
		return nil, err
	}
	sq.attach, sq.seeded = nil, nil
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

// Close detaches the taps, then marks the query closed under its lock.
// No delta group begins delivery to a detached tap, and a group already in
// flight either delivered before Close took the lock or finds the query
// closed, so no event is delivered after Close returns. Idempotent. Never
// call it from the sink: Close waits for the lock the sink runs under.
func (sq *StandingQuery) Close() {
	for i, s := range sq.pp.srcs {
		s.ref.Detach(&sq.taps[i])
	}
	sq.mu.Lock()
	sq.closed = true
	sq.mu.Unlock()
}

// seed is drive mode 1, the snapshot scan: Attach calls it with the rows
// of source side's partition p under that partition's segment read lock.
// It folds them into the attach batch as inserts and marks the partition
// seeded.
func (sq *StandingQuery) seed(side, p int, rows []core.TableRow) {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	for i := range rows {
		r := &rows[i]
		sq.fold(side, partition.KeyString(r.Key), r, true, sq.attach)
	}
	sq.seeded[side][p] = true
}

// deliver is drive mode 2, a delta group of source side's table: it runs
// on the writer, under the writer's segment lock. Before the query is
// live it folds the group into the attach batch if the group's partition
// is seeded, and drops it if not; after, it folds the group through the
// standing stages and hands the output deltas to the sink as one frame, or
// the evaluation failure as the final one, before it releases the lock.
func (sq *StandingQuery) deliver(side int, ds []kv.Delta) {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if sq.closed || sq.failed != nil {
		return
	}
	if sq.attach != nil {
		// A group is one partition's deltas.
		if sq.seeded[side][ds[0].Part] {
			for i := range ds {
				sq.applyDelta(side, &ds[i], sq.attach)
			}
		}
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

// applyDelta folds one delta into the derived state: the retraction of
// the row it replaced, then the insert of its new row. batchEff coalesces
// the pair back into one output delta. The delta is shared with every
// other tap of the map and only read.
func (sq *StandingQuery) applyDelta(side int, d *kv.Delta, eff *batchEff) {
	sq.watermark++
	if d.HadOld {
		old := core.TableRow{Key: d.Key, Raw: d.Old}
		sq.fold(side, d.KeyS, &old, false, eff)
	}
	if !d.Tombstone {
		row := core.TableRow{Key: d.Key, Raw: d.Value}
		sq.fold(side, d.KeyS, &row, true, eff)
	}
}

// fold runs one source row through the plan as an insert (add) or as the
// retraction of that row's earlier insert, as a batch of one: the source's
// pushed filter; for a join, linking or unlinking the row in its side's
// join index under the plan's bound join key, then every partner row the
// other side files under that key; then output. ks is the row's
// partition-key string.
func (sq *StandingQuery) fold(side int, ks string, row *core.TableRow, add bool, eff *batchEff) {
	if sq.failed != nil {
		return
	}
	pp := sq.pp
	sq.unload()
	sq.load(side, row)
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
	v := sq.sc.datums(1)
	defer sq.sc.dropDatums(1)
	if err := sq.ctx.evalBatch(key, &sq.b, ident[:1], v); err != nil {
		sq.fail(err)
		return
	}
	jk := v[0].joinKey()
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
		sq.load(o, &partners[i].row)
		l, r := ks, partners[i].ks
		if side == 1 {
			l, r = r, l
		}
		sq.output(l, r, add, eff)
	}
}

// load makes r source s's row of the working batch.
func (sq *StandingQuery) load(s int, r *core.TableRow) {
	sq.rows[s] = *r
	sq.b.cols[s] = sq.rows[s : s+1]
}

// unload empties the working batch.
func (sq *StandingQuery) unload() {
	clear(sq.rows)
	clear(sq.b.cols)
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

// passes tests a bound predicate on the working batch's row; an
// evaluation error fails the standing query.
func (sq *StandingQuery) passes(pred Expr) bool {
	kept := sq.sc.sel(1)
	defer sq.sc.dropSel()
	kept, err := sq.ctx.filterBatch(pred, &sq.b, ident[:1], kept)
	if err != nil {
		sq.fail(err)
	}
	return len(kept) == 1
}

// output takes the joined row in the working batch past the residual
// filter into the standing result, or out of it: a non-aggregate query
// projects it into its matched output; an aggregate one adds it to or
// removes it from its group. lks and rks are the partition-key strings of
// the joined row's sources (rks unused for a single source).
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
	vals, _, err := sq.ctx.project(sq.pp.items, nil, &sq.b, ident[:1])
	if err != nil {
		sq.fail(err)
		return
	}
	sq.matched[key] = vals
}

// member adds the joined row in the working batch to its group's
// accumulators, or retracts it, and marks the group dirty. The GROUP BY
// key is each grouping value in the self-delimiting binary form; a
// statement without GROUP BY has the one empty key. A new group's display
// key renders the same values, and its first member is copied as its head.
func (sq *StandingQuery) member(add bool, eff *batchEff) {
	pp := sq.pp
	cols, err := groupCols(sq.ctx, pp, &sq.b, ident[:1], sq.colBuf[:0])
	sq.colBuf = cols
	defer sq.sc.dropDatums(len(cols))
	if err != nil {
		sq.fail(err)
		return
	}
	sq.keyBuf, sq.keyVals = sq.keyBuf[:0], sq.keyVals[:0]
	for _, kc := range cols[:len(pp.groupBy)] {
		sq.keyBuf = kc[0].appendGroupKey(sq.keyBuf)
		sq.keyVals = append(sq.keyVals, kc[0])
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
		g.pg.keepHead(&sq.b, 0)
	}
	if err := g.pg.fold(pp.aggs, cols[len(pp.groupBy):], 0, add); err != nil {
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
// touched non-aggregate rows diff their before/after matched state, and
// each dirty group finishes its live accumulators through HAVING and the
// select list (suppressing no-op upserts). A group that emptied (the
// global one never does) or that HAVING now rejects retracts its emitted
// row.
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
		g := sq.groups[gk]
		var vals []any // nil: the group emits no row
		if g.members == 0 && len(sq.pp.groupBy) > 0 {
			delete(sq.groups, gk)
		} else {
			sq.dirty[0] = &g.pg
			err := sq.fin.finish(sq.ctx, sq.pp, sq.dirty[:], func(_ int, v, _ []any) { vals = v })
			sq.dirty[0] = nil
			if err != nil {
				sq.fail(err)
				return nil
			}
		}
		switch {
		case vals == nil && g.out == nil, vals != nil && sameVals(g.out, vals):
		case vals == nil:
			g.out = nil
			out = append(out, SubDelta{Key: g.disp, Delete: true})
		default:
			g.out = vals
			out = append(out, SubDelta{Key: g.disp, Vals: vals})
		}
	}
	return out
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
// producing deltas after it (deliver hands it on as the final event).
func (sq *StandingQuery) fail(err error) {
	if sq.failed == nil {
		sq.failed = err
	}
}

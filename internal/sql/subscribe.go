package sql

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"squery/internal/core"
	"squery/internal/partition"
)

// SUBSCRIBE <select>: standing queries over live operator state. Where the
// one-shot path compiles a statement into a pipeline that scans, filters,
// joins and aggregates once and exits, a standing query keeps the same
// logical stages alive and drives them in two modes: an initial copy of
// each source table taken through its shared arrangement, then
// incremental delta application as the arrangement streams changes. Both
// modes run one insert path — the snapshot phase replays the copied rows
// through exactly what a live upsert takes — and that path projects rows and
// finishes groups with the functions the one-shot sinks use (projectRow,
// finishGroup and the accumulators behind it).
//
// A standing query holds no copy of its source tables: the kv map is the
// one copy, and each delta names the row it replaced. What
// stays resident per subscriber is its output (matched rows, or groups
// with their member rows) and, for a join, the join index.
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
// the output row the delta applies to: the source row's partition-key
// string for plain standing queries, "left|right" for join rows, the
// rendered grouping key (or "*" for a global aggregate) for aggregates.
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

// matchedRow is one currently-matching output row of a non-aggregate
// standing query: its display key and projected values.
type matchedRow struct {
	disp string
	vals []any
}

// subGroup is one live group of an aggregate standing query: its rendered
// key and every joined row currently in the group, as built at insertion.
type subGroup struct {
	disp string
	rows map[string]joinedRow // by joined-row id
}

// joinEntry is one source row filed under its join key in a join index.
type joinEntry struct {
	ks  string // partition-key string
	row core.TableRow
}

// pendDeltas is one buffered arrangement delivery, tagged with the source
// it came from.
type pendDeltas struct {
	side int
	ds   []core.ArrDelta
}

// batchEff accumulates the output effects of one delta batch so an
// update (tombstone + upsert of the same key, or a value change) emits
// one coalesced delta instead of a delete/insert pair.
type batchEff struct {
	// before records, per touched non-aggregate output id, the matched row
	// at first touch (nil = was not matched).
	before map[string]*matchedRow
	// dirty records the aggregate groups needing recomputation.
	dirty map[string]bool
}

func newBatchEff() *batchEff {
	return &batchEff{before: map[string]*matchedRow{}, dirty: map[string]bool{}}
}

// StandingQuery is one compiled incrementally-maintained query: N of them
// attach to the same shared arrangement per source table. Events reach the
// sink in order — the initial snapshot frame synchronously during
// subscription, delta frames from the standing query's applier goroutine.
type StandingQuery struct {
	ex    *Executor
	stmt  *Select
	query string
	cols  []string
	items []Expr   // the select list's expressions, aligned with cols
	ctx   *evalCtx // LOCALTIMESTAMP is fixed at subscribe time
	sink  func(SubEvent)

	srcs   []tableSrc // name/alias only; the expression resolver's view
	arrs   []*core.Arrangement
	lisIDs []int
	// floors[i] is source i's per-partition sequence floor at attach:
	// deltas at or below it are already in the seed.
	floors  [][]uint64
	aggMode bool
	// joinCols[i] is source i's equi-join column (join mode only).
	joinCols [2]string

	// pending buffers arrangement deliveries (which run on the writer
	// under its segment lock and must not block) for the applier.
	pendMu  sync.Mutex
	pending []pendDeltas
	wake    chan struct{}
	done    chan struct{}
	stopped chan struct{}
	closing sync.Once

	mu        sync.Mutex
	failed    error
	watermark uint64
	// jindex[i] files source i's rows by join key (join mode only) — the
	// shape the one-shot joins build, kept alive: few rows share a key, so
	// a short slice beats a map per key.
	jindex [2]map[joinKey][]joinEntry
	// matched is the non-aggregate output state; groups/rowGroup/emitted
	// the aggregate one.
	matched  map[string]*matchedRow
	groups   map[string]*subGroup
	rowGroup map[string]string
	emitted  map[string]*matchedRow
}

// SubscribeQuery compiles a statement (with or without the SUBSCRIBE
// prefix) into a standing query: validate, acquire one shared arrangement
// per source, seed the standing state through the insert path live deltas
// take, emit the snapshot frame, start the applier. bind is called once
// with the standing query, before any event is emitted and before the
// applier starts, and returns the sink — so a sink that needs the handle
// (to resync from Snapshot, to Close on a terminal error) has it by the
// time it first runs. The sink receives the initial snapshot frame
// synchronously before SubscribeQuery returns, then ordered delta frames;
// it must not block (enqueue and return) and must tolerate being called
// from another goroutine. Close detaches and releases the arrangements.
func (ex *Executor) SubscribeQuery(query string, bind func(*StandingQuery) func(SubEvent)) (*StandingQuery, error) {
	_, query = splitSubscribe(query)
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if ex.arr == nil {
		return nil, fmt.Errorf("sql: subscriptions are not enabled (no arrangement registry)")
	}
	sq := &StandingQuery{
		ex:    ex,
		stmt:  stmt,
		query: query,
		ctx:   &evalCtx{now: time.Now()},

		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),

		matched:  map[string]*matchedRow{},
		groups:   map[string]*subGroup{},
		rowGroup: map[string]string{},
		emitted:  map[string]*matchedRow{},
	}
	if err := sq.validate(); err != nil {
		return nil, err
	}
	sq.sink = bind(sq)
	if len(sq.srcs) == 2 {
		sq.jindex = [2]map[joinKey][]joinEntry{{}, {}}
	}

	// Acquire one shared arrangement per source and attach buffering
	// listeners. The listener is registered before the table is copied and
	// the applier drops what the copy's floors cover, so deltas racing the
	// seed below are applied after it, never lost or doubled.
	seeds := make([][]core.TableRow, len(sq.srcs))
	for i := range sq.srcs {
		a, err := ex.arr.Acquire(sq.srcs[i].name)
		if err != nil {
			for j, prev := range sq.arrs {
				prev.Detach(sq.lisIDs[j])
				prev.Release()
			}
			return nil, err
		}
		sq.arrs = append(sq.arrs, a)
		side := i
		rows, floors, id := a.Attach(func(ds []core.ArrDelta) { sq.enqueue(side, ds) })
		sq.lisIDs = append(sq.lisIDs, id)
		sq.floors = append(sq.floors, floors)
		seeds[i] = rows
	}

	// Drive mode 1, the snapshot scan: replay the copied rows through the
	// same insert path live deltas take.
	sq.mu.Lock()
	eff := newBatchEff()
	if sq.aggMode && len(sq.stmt.GroupBy) == 0 {
		// A global aggregate emits one row even over an empty input; the
		// "*" group always exists and the snapshot frame always carries it.
		sq.groups[""] = &subGroup{disp: "*", rows: map[string]joinedRow{}}
		eff.dirty[""] = true
	}
	for i := range seeds {
		for _, r := range seeds[i] {
			if sq.failed != nil {
				break
			}
			sq.addSrcRow(i, partition.KeyString(r.Key), r, eff)
		}
	}
	deltas := sq.settleLocked(eff)
	failed := sq.failed
	wm := sq.watermark
	sq.mu.Unlock()
	if failed != nil {
		// The applier goroutine hasn't started, so nothing will ever
		// close stopped — satisfy Close's handshake first or it blocks
		// forever on a seed-time evaluation failure.
		close(sq.stopped)
		sq.Close()
		return nil, failed
	}
	sq.sink(SubEvent{Deltas: deltas, Watermark: wm, Snapshot: true})
	go sq.run()
	return sq, nil
}

// validate checks the statement against the incremental dialect and
// resolves sources and join columns.
func (sq *StandingQuery) validate() error {
	stmt := sq.stmt
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
	tables := []TableName{stmt.From}
	if len(stmt.Joins) == 1 {
		tables = append(tables, stmt.Joins[0].Table)
	}
	for _, t := range tables {
		ref, err := sq.ex.cat.Table(t.Name)
		if err != nil {
			return err
		}
		if ref.IsVirtual() {
			return fmt.Errorf("sql: cannot SUBSCRIBE to virtual table %q (no change stream — poll it)", t.Name)
		}
		if ref.IsSnapshot() {
			return fmt.Errorf("sql: cannot SUBSCRIBE to snapshot table %q (snapshots are immutable — query it once)", t.Name)
		}
		sq.srcs = append(sq.srcs, tableSrc{name: t.Name, alias: t.Ref(), partHint: -1})
	}
	sq.aggMode = stmt.HasAggregates() || len(stmt.GroupBy) > 0
	if stmt.Having != nil && !sq.aggMode {
		return fmt.Errorf("sql: HAVING requires aggregation")
	}
	if len(sq.srcs) == 2 {
		lk, rk, err := joinKeys(stmt.Joins[0], sq.srcs, 1)
		if err != nil {
			return err
		}
		sq.joinCols[0], sq.joinCols[1] = lk.Name, rk.Name
	}
	for _, it := range stmt.Items {
		sq.cols = append(sq.cols, it.OutputName())
		sq.items = append(sq.items, it.Expr)
	}
	return nil
}

// Columns returns the output column names, aligned with SubDelta.Vals.
func (sq *StandingQuery) Columns() []string { return append([]string(nil), sq.cols...) }

// Query returns the statement text the subscription was created from.
func (sq *StandingQuery) Query() string { return sq.query }

// Tables returns the source table names, FROM first.
func (sq *StandingQuery) Tables() []string {
	out := make([]string, len(sq.srcs))
	for i, s := range sq.srcs {
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
// frame — the resync a shed subscriber re-converges from.
func (sq *StandingQuery) Snapshot() SubEvent {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	out := sq.matched
	if sq.aggMode {
		out = sq.emitted
	}
	ds := make([]SubDelta, 0, len(out))
	for _, m := range out {
		ds = append(ds, SubDelta{Key: m.disp, Vals: m.vals})
	}
	return SubEvent{Deltas: ds, Watermark: sq.watermark, Snapshot: true}
}

// Close detaches from the arrangements (dropping them at zero readers)
// and stops the applier. Idempotent; no events are delivered after it
// returns.
func (sq *StandingQuery) Close() {
	sq.closing.Do(func() {
		for i, a := range sq.arrs {
			a.Detach(sq.lisIDs[i])
		}
		close(sq.done)
		<-sq.stopped
		for _, a := range sq.arrs {
			a.Release()
		}
	})
}

// enqueue is the arrangement listener: called on the writer under its
// segment lock, it buffers and wakes the applier.
func (sq *StandingQuery) enqueue(side int, ds []core.ArrDelta) {
	sq.pendMu.Lock()
	sq.pending = append(sq.pending, pendDeltas{side: side, ds: ds})
	sq.pendMu.Unlock()
	select {
	case sq.wake <- struct{}{}:
	default:
	}
}

// run is drive mode 2, the delta applier: fold buffered arrangement
// deltas above the attach floors through the standing stages and emit the
// resulting output deltas, one frame per drained buffer.
func (sq *StandingQuery) run() {
	defer close(sq.stopped)
	for {
		select {
		case <-sq.done:
			return
		case <-sq.wake:
		}
		for {
			sq.pendMu.Lock()
			batches := sq.pending
			sq.pending = nil
			sq.pendMu.Unlock()
			if len(batches) == 0 {
				break
			}
			sq.mu.Lock()
			if sq.failed != nil {
				sq.mu.Unlock()
				return
			}
			eff := newBatchEff()
			for _, b := range batches {
				for _, d := range b.ds {
					if d.Seq > sq.floors[b.side][d.Part] {
						sq.applyDelta(b.side, d, eff)
					}
				}
			}
			deltas := sq.settleLocked(eff)
			failed := sq.failed
			wm := sq.watermark
			sq.mu.Unlock()
			if failed != nil {
				sq.sink(SubEvent{Err: failed, Watermark: wm})
				return
			}
			if len(deltas) > 0 {
				sq.sink(SubEvent{Deltas: deltas, Watermark: wm})
			}
		}
	}
}

// applyDelta folds one arrangement delta into the derived state. An
// upsert of an existing key is a remove of the row the arrangement says it
// replaced plus an insert; batchEff coalesces the pair back into one
// output delta.
func (sq *StandingQuery) applyDelta(side int, d core.ArrDelta, eff *batchEff) {
	sq.watermark++
	if d.HadOld {
		sq.removeSrcRow(side, d.KeyS, d.Old, eff)
	}
	if !d.Tombstone {
		sq.addSrcRow(side, d.KeyS, d.Row, eff)
	}
}

// addSrcRow enumerates the joined rows a new source row creates and
// inserts each into the standing result.
func (sq *StandingQuery) addSrcRow(side int, ks string, row core.TableRow, eff *batchEff) {
	if len(sq.srcs) == 1 {
		sq.insertJR(ks, ks, []core.TableRow{row}, eff)
		return
	}
	jk, ok := sq.joinKeyOf(side, row)
	if !ok {
		return
	}
	e := joinEntry{ks: ks, row: row}
	sq.jindex[side][jk] = append(sq.jindex[side][jk], e)
	for _, p := range sq.jindex[1-side][jk] {
		l, r := e, p
		if side == 1 {
			l, r = p, e
		}
		sq.insertJR(pairID(l.ks, r.ks), l.ks+"|"+r.ks, []core.TableRow{l.row, r.row}, eff)
	}
}

// removeSrcRow removes every joined row a departing source row was part
// of. row is the departing version: a join unlinks under its key, which an
// update of the join column has since changed.
func (sq *StandingQuery) removeSrcRow(side int, ks string, row core.TableRow, eff *batchEff) {
	if len(sq.srcs) == 1 {
		sq.removeJR(ks, eff)
		return
	}
	jk, ok := sq.joinKeyOf(side, row)
	if !ok {
		return
	}
	es := sq.jindex[side][jk]
	if i := slices.IndexFunc(es, func(e joinEntry) bool { return e.ks == ks }); i >= 0 {
		es = slices.Delete(es, i, i+1)
	}
	if len(es) == 0 {
		delete(sq.jindex[side], jk)
	} else {
		sq.jindex[side][jk] = es
	}
	for _, p := range sq.jindex[1-side][jk] {
		lks, rks := ks, p.ks
		if side == 1 {
			lks, rks = rks, lks
		}
		sq.removeJR(pairID(lks, rks), eff)
	}
}

// joinKeyOf extracts a source row's equi-join key. A row missing the join
// column fails the standing query — the same contract the one-shot hash
// join enforces.
func (sq *StandingQuery) joinKeyOf(side int, row core.TableRow) (joinKey, bool) {
	v, ok := row.Field(sq.joinCols[side])
	if !ok {
		sq.fail(fmt.Errorf("sql: join column %q not found in %s", sq.joinCols[side], sq.srcs[side].name))
		return joinKey{}, false
	}
	return makeJoinKey(v), true
}

// pairID encodes a join row's identity collision-free (display keys use
// the readable "l|r" form, which may collide and is display-only).
func pairID(lks, rks string) string {
	return string(appendGroupKey(appendGroupKey(nil, lks), rks))
}

// insertJR runs one joined row through the standing WHERE and into the
// output (non-aggregate) or group (aggregate) state. rows is handed over:
// an aggregate group keeps the evaluation view built over it.
func (sq *StandingQuery) insertJR(id, disp string, rows []core.TableRow, eff *batchEff) {
	if sq.failed != nil {
		return
	}
	tabs := make([]*core.TableRow, len(rows))
	for i := range rows {
		tabs[i] = &rows[i]
	}
	jr := joinedRow{srcs: sq.srcs, tabs: tabs}
	if sq.stmt.Where != nil {
		v, err := sq.ctx.eval(sq.stmt.Where, &jr)
		if err != nil {
			sq.fail(err)
			return
		}
		if keep, ok := truthy(v); !ok || !keep {
			if !sq.aggMode {
				sq.touch(id, eff) // an update may revoke a previous match
			}
			return
		}
	}
	if sq.aggMode {
		sq.insertGroupRow(id, jr, eff)
		return
	}
	sq.touch(id, eff)
	vals, err := projectRow(sq.ctx, sq.items, nil, &jr)
	if err != nil {
		sq.fail(err)
		return
	}
	sq.matched[id] = &matchedRow{disp: disp, vals: vals}
}

// removeJR removes one joined row from the output or its group.
func (sq *StandingQuery) removeJR(id string, eff *batchEff) {
	if sq.failed != nil {
		return
	}
	if sq.aggMode {
		gk, ok := sq.rowGroup[id]
		if !ok {
			return
		}
		delete(sq.rowGroup, id)
		if g := sq.groups[gk]; g != nil {
			delete(g.rows, id)
		}
		eff.dirty[gk] = true
		return
	}
	if _, ok := sq.matched[id]; !ok {
		return
	}
	sq.touch(id, eff)
	delete(sq.matched, id)
}

// touch records the pre-batch matched state of one non-aggregate output id.
func (sq *StandingQuery) touch(id string, eff *batchEff) {
	if _, seen := eff.before[id]; seen {
		return
	}
	eff.before[id] = sq.matched[id]
}

// insertGroupRow files one matching joined row under its group and marks
// the group dirty.
func (sq *StandingQuery) insertGroupRow(id string, jr joinedRow, eff *batchEff) {
	// The GROUP BY key: each grouping expression's value in the
	// self-delimiting binary form. A statement without GROUP BY has the one
	// empty key.
	var kb []byte
	for _, ge := range sq.stmt.GroupBy {
		v, err := sq.ctx.evalD(ge, &jr)
		if err != nil {
			sq.fail(err)
			return
		}
		kb = v.appendGroupKey(kb)
	}
	gk := string(kb)
	g := sq.groups[gk]
	if g == nil {
		// The display key renders the grouping values; the global "*" group
		// is seeded at subscribe time and never gets here.
		parts := make([]string, len(sq.stmt.GroupBy))
		for i, ge := range sq.stmt.GroupBy {
			v, err := sq.ctx.eval(ge, &jr)
			if err != nil {
				sq.fail(err)
				return
			}
			parts[i] = fmt.Sprint(v)
		}
		g = &subGroup{disp: strings.Join(parts, "|"), rows: map[string]joinedRow{}}
		sq.groups[gk] = g
	}
	g.rows[id] = jr
	sq.rowGroup[id] = gk
	eff.dirty[gk] = true
}

// settleLocked turns a batch's accumulated effects into output deltas:
// touched non-aggregate rows diff their before/after matched state, dirty
// groups recompute their aggregates (suppressing no-op upserts).
func (sq *StandingQuery) settleLocked(eff *batchEff) []SubDelta {
	if sq.failed != nil {
		return nil
	}
	var out []SubDelta
	for id, prev := range eff.before {
		cur := sq.matched[id]
		switch {
		case cur != nil:
			if prev != nil && reflect.DeepEqual(prev.vals, cur.vals) {
				continue
			}
			out = append(out, SubDelta{Key: cur.disp, Vals: cur.vals})
		case prev != nil:
			out = append(out, SubDelta{Key: prev.disp, Delete: true})
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

// settleGroup recomputes one dirty group from its member rows, returning
// the delta it produces (if any). A group that emptied (the global one
// never does) or that HAVING now rejects retracts its emitted row.
func (sq *StandingQuery) settleGroup(gk string) (SubDelta, bool) {
	g := sq.groups[gk]
	var vals []any
	keep := false
	switch {
	case g == nil:
	case len(g.rows) == 0 && len(sq.stmt.GroupBy) > 0:
		delete(sq.groups, gk)
	default:
		rows := make([]joinedRow, 0, len(g.rows))
		for _, jr := range g.rows {
			rows = append(rows, jr)
		}
		var err error
		if vals, keep, err = finishGroup(sq.ctx, sq.stmt.Having, sq.items, groupRows(rows)); err != nil {
			sq.fail(err)
			return SubDelta{}, false
		}
	}
	prev, had := sq.emitted[gk]
	if !keep {
		if !had {
			return SubDelta{}, false
		}
		delete(sq.emitted, gk)
		return SubDelta{Key: prev.disp, Delete: true}, true
	}
	if had && reflect.DeepEqual(prev.vals, vals) {
		return SubDelta{}, false
	}
	sq.emitted[gk] = &matchedRow{disp: g.disp, vals: vals}
	return SubDelta{Key: g.disp, Vals: vals}, true
}

// fail records the first evaluation error; the standing query stops
// producing deltas after it (the applier delivers it as the final event).
func (sq *StandingQuery) fail(err error) {
	if sq.failed == nil {
		sq.failed = err
	}
}

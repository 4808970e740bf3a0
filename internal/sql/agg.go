package sql

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"squery/internal/core"
	"squery/internal/kv"
)

// Aggregation. One group form serves both drive modes: a partialGroup is
// a group's accumulators plus the first row it saw, kept for the select
// list's bare columns. A one-shot query folds every row into its group
// where the row lives and ships the partial groups, which the client
// merges and finishes. A standing query (subscribe.go) keeps one
// retractable partialGroup per live group: a member row's aggregate
// arguments are added when it joins the group and removed when it leaves,
// and a dirty group finishes its live accumulators the same way. A delta
// costs one step per aggregate — for MIN/MAX a binary search of the
// group's distinct values, plus a shift of the entries past a value that
// enters or leaves their middle — never a pass over the group's members.

// aggAcc is the running state of one aggregate call: foldable one value
// at a time, mergeable with the state another node folded, and — when
// built retractable — able to take a value back out. A retractable
// accumulator keeps what a retraction needs: MIN/MAX a counted multiset of
// values instead of one extreme, DISTINCT a count per value.
type aggAcc struct {
	fn       AggFunc
	distinct bool
	retract  bool

	count int64
	// sum+comp is the float sum, kept compensated (Neumaier) so that
	// values folded in and retracted again leave no drift.
	sum, comp float64
	sumI      int64
	nReal     int64 // non-integer values summed: SUM reports the float while any are in
	ext       datum // one-shot MIN/MAX so far; dNull until a value arrives
	// multi is a retractable MIN/MAX's values, one entry per distinct value
	// with its multiplicity, ordered so that the extreme is the last entry.
	multi []valCount
	// DISTINCT: the copies of each value folded in, and (one-shot) the
	// values in first-seen order so that a merge folds them
	// deterministically.
	seen  map[joinKey]int64
	order []datum
}

// valCount is one distinct value of a MIN/MAX multiset and its copies.
type valCount struct {
	v datum
	n int64
}

func newAggAcc(a Agg, retract bool) aggAcc {
	acc := aggAcc{fn: a.Func, distinct: a.Distinct && !a.Star, retract: retract}
	if acc.distinct {
		acc.seen = map[joinKey]int64{}
	}
	return acc
}

// add folds one argument value. NULLs are skipped, DISTINCT drops repeats.
func (a *aggAcc) add(v datum) error {
	if v.k == dNull {
		return nil
	}
	if a.distinct {
		k := v.joinKey()
		n := a.seen[k]
		a.seen[k] = n + 1
		if n > 0 {
			return nil
		}
		if !a.retract {
			a.order = append(a.order, v)
		}
	}
	return a.step(v, 1)
}

// remove retracts one argument value an earlier add folded in; only a
// retractable accumulator supports it.
func (a *aggAcc) remove(v datum) error {
	if v.k == dNull {
		return nil
	}
	if a.distinct {
		k := v.joinKey()
		switch n := a.seen[k]; {
		case n == 0:
			return a.unknown(v)
		case n > 1:
			a.seen[k] = n - 1
			return nil
		}
		delete(a.seen, k)
	}
	return a.step(v, -1)
}

// step folds one non-NULL value in (sign 1) or back out (sign -1).
func (a *aggAcc) step(v datum, sign int64) error {
	switch a.fn {
	case AggSum, AggAvg:
		f, ok := v.float()
		if !ok {
			return fmt.Errorf("sql: %s over non-numeric %T", a.fn, v.box())
		}
		a.addFloat(float64(sign) * f)
		if v.k == dInt {
			a.sumI += sign * v.n
		} else {
			a.nReal += sign
		}
	case AggMin, AggMax:
		var err error
		if a.retract {
			err = a.tally(v, sign)
		} else {
			err = a.extreme(v)
		}
		if err != nil {
			return err
		}
	}
	a.count += sign
	if a.count == 0 {
		a.sum, a.comp = 0, 0 // empty again: no rounding residue survives
	}
	return nil
}

// addFloat adds x to the compensated sum.
func (a *aggAcc) addFloat(x float64) {
	t := a.sum + x
	if math.Abs(a.sum) >= math.Abs(x) {
		a.comp += (a.sum - t) + x
	} else {
		a.comp += (x - t) + a.sum
	}
	a.sum = t
}

// total is the float sum.
func (a *aggAcc) total() float64 {
	if math.IsInf(a.sum, 0) || math.IsNaN(a.sum) {
		return a.sum // the compensation of an infinite sum is NaN
	}
	return a.sum + a.comp
}

// extreme keeps v when it beats the MIN/MAX so far (the first of equals
// stays).
func (a *aggAcc) extreme(v datum) error {
	if a.ext.k == dNull {
		a.ext = v
		return nil
	}
	c, err := orderD(v, a.ext)
	if err != nil {
		return err
	}
	if (a.fn == AggMin && c < 0) || (a.fn == AggMax && c > 0) {
		a.ext = v
	}
	return nil
}

// tally adds sign copies of v to the MIN/MAX multiset. The values are
// ordered so that the extreme is last (ascending for MAX, descending for
// MIN): retracting the current extreme is a search and a truncation.
func (a *aggAcc) tally(v datum, sign int64) error {
	var err error
	i, found := slices.BinarySearchFunc(a.multi, v, func(e valCount, v datum) int {
		c, cerr := orderD(e.v, v)
		if cerr != nil && err == nil {
			err = cerr
		}
		if c == 0 { // equal values of different types stay apart
			c = cmp.Compare(uint16(e.v.k)<<8|uint16(e.v.w), uint16(v.k)<<8|uint16(v.w))
		}
		if a.fn == AggMin {
			return -c
		}
		return c
	})
	switch {
	case err != nil:
		return err
	case found:
		if a.multi[i].n += sign; a.multi[i].n == 0 {
			a.multi = slices.Delete(a.multi, i, i+1)
		}
	case sign > 0:
		a.multi = slices.Insert(a.multi, i, valCount{v: v.owned(), n: 1})
	default:
		return a.unknown(v)
	}
	return nil
}

// unknown reports the retraction of a value that was never folded in — a
// broken invariant of the caller, surfaced instead of silently diverging.
func (a *aggAcc) unknown(v datum) error {
	return fmt.Errorf("sql: %s retracts %v, which it never folded in", a.fn, v.box())
}

// merge folds another partial of the same aggregate call into a.
func (a *aggAcc) merge(b *aggAcc) error {
	if a.distinct {
		for _, v := range b.order {
			if err := a.add(v); err != nil {
				return err
			}
		}
		return nil
	}
	a.count += b.count
	a.addFloat(b.sum)
	a.comp += b.comp
	a.sumI += b.sumI
	a.nReal += b.nReal
	if b.ext.k != dNull {
		return a.extreme(b.ext)
	}
	return nil
}

// result finishes the aggregate.
func (a *aggAcc) result() (datum, error) {
	switch a.fn {
	case AggCount:
		return intDatum(a.count), nil
	case AggSum:
		if a.count == 0 {
			return datum{}, nil
		}
		if a.nReal == 0 {
			return intDatum(a.sumI), nil
		}
		return floatDatum(a.total(), wFloat64), nil
	case AggAvg:
		if a.count == 0 {
			return datum{}, nil
		}
		return floatDatum(a.total()/float64(a.count), wFloat64), nil
	case AggMin, AggMax:
		if a.retract {
			if len(a.multi) == 0 {
				return datum{}, nil
			}
			return a.multi[len(a.multi)-1].v, nil
		}
		return a.ext, nil
	}
	return datum{}, fmt.Errorf("sql: unknown aggregate %q", a.fn)
}

// partialGroup is a group held as accumulators.
type partialGroup struct {
	key  string
	accs []aggAcc
	// head is a copy of the first row folded in, one row per source; nil
	// while the group has none. miss marks the sources absent from it (a
	// LEFT JOIN miss), and is nil when none is.
	head []core.TableRow
	miss []bool
}

// newPartialGroup builds a group's accumulators; retract builds them
// retractable, for a standing query.
func newPartialGroup(key string, aggs []Agg, retract bool) *partialGroup {
	g := &partialGroup{key: key, accs: make([]aggAcc, len(aggs))}
	for i, a := range aggs {
		g.accs[i] = newAggAcc(a, retract)
	}
	return g
}

// aggregate finishes one aggregate call of the group.
func (g *partialGroup) aggregate(a Agg) (datum, error) {
	if a.slot == 0 {
		return datum{}, fmt.Errorf("sql: aggregate %s was not planned", a)
	}
	return g.accs[a.slot-1].result()
}

// keepHead copies position i of b as the group's first row: the caller
// reuses the batch's storage for the next rows.
func (g *partialGroup) keepHead(b *batch, i int32) {
	g.head, g.miss = make([]core.TableRow, len(b.cols)), nil
	for s, col := range b.cols {
		if col != nil && (b.miss[s] == nil || !b.miss[s][i]) {
			g.head[s] = col[i]
			continue
		}
		if g.miss == nil {
			g.miss = make([]bool, len(b.cols))
		}
		g.miss[s] = true
	}
}

// dropHead forgets the group's first row: the group emptied, and a bare
// column of an empty (global) group is NULL.
func (g *partialGroup) dropHead() { g.head, g.miss = nil, nil }

// fold folds position i of a batch into the group's accumulators, or (add
// false) retracts it from a retractable group: args[k] is aggregate k's
// argument column, which a COUNT(*) does not read.
func (g *partialGroup) fold(aggs []Agg, args [][]datum, i int32, add bool) error {
	for k := range g.accs {
		var v datum
		if !aggs[k].Star {
			v = args[k][i]
		}
		if err := g.accs[k].fold(aggs[k].Star, v, add); err != nil {
			return err
		}
	}
	return nil
}

// fold adds one row's argument value (add false: retracts it); a
// COUNT(*) counts the row.
func (a *aggAcc) fold(star bool, v datum, add bool) error {
	switch {
	case star && add:
		a.count++
	case star:
		a.count--
	case add:
		return a.add(v)
	default:
		return a.remove(v)
	}
	return nil
}

// groupCols evaluates the plan's group keys and aggregate arguments over
// the selected positions of b, each as one scratch column appended to
// into: the keys first, then one column per aggregate (left unset for
// COUNT(*)). The caller gives the columns back with
// b.sc.dropDatums(len(cols)), also after an error.
func groupCols(ctx *evalCtx, pp *physPlan, b *batch, sel []int32, into [][]datum) ([][]datum, error) {
	for range len(pp.groupBy) + len(pp.aggs) {
		into = append(into, b.sc.datums(b.n))
	}
	for k, ge := range pp.groupBy {
		if err := ctx.evalBatch(ge, b, sel, into[k]); err != nil {
			return into, err
		}
	}
	for a, ag := range pp.aggs {
		if !ag.Star {
			if err := ctx.evalBatch(ag.Arg, b, sel, into[len(pp.groupBy)+a]); err != nil {
				return into, err
			}
		}
	}
	return into, nil
}

// groupTable is the aggregate sink: the partial groups one goroutine has
// folded so far, in first-seen order.
type groupTable struct {
	pp     *physPlan
	ctx    *evalCtx
	groups map[string]*partialGroup
	order  []*partialGroup
	keyBuf []byte
	colBuf [][]datum // the key and argument columns of the batch being folded
	in     int64     // rows folded
}

func newGroupTable(pp *physPlan, ctx *evalCtx) *groupTable {
	return &groupTable{pp: pp, ctx: ctx, groups: map[string]*partialGroup{}}
}

// group returns the partial group under key, creating it.
func (gt *groupTable) group(key []byte) (g *partialGroup, created bool) {
	if g = gt.groups[string(key)]; g != nil {
		return g, false
	}
	g = newPartialGroup(string(key), gt.pp.aggs, false)
	gt.groups[g.key] = g
	gt.order = append(gt.order, g)
	return g, true
}

// add folds the batch's selected rows into their groups. The group keys
// and the aggregate arguments are evaluated column by column over the
// whole selection first; then each row finds its group and folds.
func (gt *groupTable) add(b *batch, sel []int32) (bool, error) {
	cols, err := groupCols(gt.ctx, gt.pp, b, sel, gt.colBuf[:0])
	gt.colBuf = cols
	defer b.sc.dropDatums(len(cols))
	if err != nil {
		return false, err
	}
	keys, args := cols[:len(gt.pp.groupBy)], cols[len(gt.pp.groupBy):]
	for _, i := range sel {
		gt.keyBuf = gt.keyBuf[:0]
		for k := range keys {
			gt.keyBuf = keys[k][i].appendGroupKey(gt.keyBuf)
		}
		g, created := gt.group(gt.keyBuf)
		if created {
			g.keepHead(b, i)
		}
		gt.in++
		if err := g.fold(gt.pp.aggs, args, i, true); err != nil {
			return false, err
		}
	}
	return true, nil
}

// absorb merges another goroutine's partial groups into gt: the client
// merge, and what a guarded partition attempt does on success.
func (gt *groupTable) absorb(s sink) error {
	o := s.(*groupTable)
	gt.in += o.in
	for _, og := range o.order {
		g, created := gt.group([]byte(og.key))
		if created {
			g.head, g.miss = og.head, og.miss
		}
		for i := range g.accs {
			if err := g.accs[i].merge(&og.accs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// finisher finishes groups: HAVING, the select list and the ORDER BY keys
// evaluated over a batch whose rows are the groups' head rows and whose
// aggregates read the groups' accumulators. HAVING is a filter of that
// batch, and each select item and key one column of it. A group with no
// head row (the global group of an empty input) has every source absent,
// so its columns read NULL while its constants still evaluate. The
// finisher's buffers are reused from one finish to the next.
type finisher struct {
	b  batch
	sc scratch
}

func newFinisher(srcs []tableSrc) *finisher {
	f := &finisher{}
	f.b = newBatch(srcs, &f.sc)
	for s := range srcs {
		f.b.cols[s], f.b.miss[s] = []core.TableRow{}, []bool{}
	}
	return f
}

// finish runs gs through HAVING, the select list and the ORDER BY keys, at
// most kv.ScanBatch groups at a time, and calls emit with the values and
// sort keys of every group i of gs that HAVING keeps, in order.
func (f *finisher) finish(ctx *evalCtx, pp *physPlan, gs []*partialGroup, emit func(i int, vals, sortKey []any)) error {
	defer f.unload()
	for off := 0; off < len(gs); off += kv.ScanBatch {
		if err := f.chunk(ctx, pp, gs[off:min(off+kv.ScanBatch, len(gs))], off, emit); err != nil {
			return err
		}
	}
	return nil
}

func (f *finisher) chunk(ctx *evalCtx, pp *physPlan, gs []*partialGroup, off int, emit func(i int, vals, sortKey []any)) error {
	b := &f.b
	b.n, b.groups = len(gs), gs
	for s := range b.cols {
		rows, miss := b.cols[s][:0], b.miss[s][:0]
		for _, g := range gs {
			var r core.TableRow
			if g.head != nil {
				r = g.head[s]
			}
			rows = append(rows, r)
			miss = append(miss, g.head == nil || (g.miss != nil && g.miss[s]))
		}
		b.cols[s], b.miss[s] = rows, miss
	}
	kept := f.sc.sel(len(gs))
	defer f.sc.dropSel()
	kept, err := ctx.filterBatch(filter{e: pp.having}, b, ident[:len(gs)], kept)
	if err != nil || len(kept) == 0 {
		return err
	}
	vals, w, err := ctx.project(pp.items, nil, b, kept)
	if err != nil {
		return err
	}
	keys, kw, err := ctx.project(pp.orderBy, nil, b, kept)
	if err != nil {
		return err
	}
	for k, i := range kept {
		emit(off+int(i), rowAt(vals, w, k), rowAt(keys, kw, k))
	}
	return nil
}

// unload drops the finisher's references to the rows and groups it
// finished, so that its buffers keep nothing alive.
func (f *finisher) unload() {
	for s, rows := range f.b.cols {
		clear(rows[:cap(rows)])
		f.b.cols[s] = rows[:0]
	}
	f.b.groups = nil
}

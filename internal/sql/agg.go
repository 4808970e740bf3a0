package sql

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"squery/internal/core"
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
func (a *aggAcc) result() (any, error) {
	switch a.fn {
	case AggCount:
		return a.count, nil
	case AggSum:
		if a.count == 0 {
			return nil, nil
		}
		if a.nReal == 0 {
			return a.sumI, nil
		}
		return a.total(), nil
	case AggAvg:
		if a.count == 0 {
			return nil, nil
		}
		return a.total() / float64(a.count), nil
	case AggMin, AggMax:
		if a.retract {
			if len(a.multi) == 0 {
				return nil, nil
			}
			return a.multi[len(a.multi)-1].v.box(), nil
		}
		return a.ext.box(), nil
	}
	return nil, fmt.Errorf("sql: unknown aggregate %q", a.fn)
}

// partialGroup is a group held as accumulators.
type partialGroup struct {
	key  string
	accs []aggAcc
	// head is a copy of the first row folded in; rows backs its tabs.
	head joinedRow
	rows []core.TableRow
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
func (g *partialGroup) aggregate(a Agg) (any, error) {
	if a.slot == 0 {
		return nil, fmt.Errorf("sql: aggregate %s was not planned", a)
	}
	return g.accs[a.slot-1].result()
}

// keepHead copies jr as the group's first row: the caller reuses the
// storage jr points into for the next row.
func (g *partialGroup) keepHead(jr *joinedRow) {
	g.rows = make([]core.TableRow, len(jr.tabs))
	g.head = joinedRow{srcs: jr.srcs, tabs: make([]*core.TableRow, len(jr.tabs))}
	for i, t := range jr.tabs {
		if t != nil {
			g.rows[i] = *t
			g.head.tabs[i] = &g.rows[i]
		}
	}
}

// fold folds one working-set row into the group's accumulators, or
// (add false) retracts it from a retractable group: each aggregate
// argument is evaluated once and added or removed.
func (g *partialGroup) fold(ctx *evalCtx, aggs []Agg, jr *joinedRow, add bool) error {
	for i := range g.accs {
		a, acc := &aggs[i], &g.accs[i]
		if a.Star {
			if add {
				acc.count++
			} else {
				acc.count--
			}
			continue
		}
		v, err := ctx.evalD(a.Arg, jr)
		if err != nil {
			return err
		}
		if add {
			err = acc.add(v)
		} else {
			err = acc.remove(v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// dropHead forgets the group's first row: the group emptied, and a bare
// column of an empty (global) group is NULL.
func (g *partialGroup) dropHead() { g.head, g.rows = joinedRow{}, nil }

// groupTable is the aggregate sink: the partial groups one goroutine has
// folded so far, in first-seen order.
type groupTable struct {
	pp     *physPlan
	ctx    *evalCtx
	groups map[string]*partialGroup
	order  []*partialGroup
	keyBuf []byte
	in     int64 // rows folded
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

// add folds one working-set row into its group.
func (gt *groupTable) add(jr *joinedRow) (bool, error) {
	gt.keyBuf = gt.keyBuf[:0]
	for _, ge := range gt.pp.groupBy {
		v, err := gt.ctx.evalD(ge, jr)
		if err != nil {
			return false, err
		}
		gt.keyBuf = v.appendGroupKey(gt.keyBuf)
	}
	g, created := gt.group(gt.keyBuf)
	if created {
		g.keepHead(jr)
	}
	gt.in++
	if err := g.fold(gt.ctx, gt.pp.aggs, jr, true); err != nil {
		return false, err
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
			g.head, g.rows = og.head, og.rows
		}
		for i := range g.accs {
			if err := g.accs[i].merge(&og.accs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalWithAggs evaluates an expression that may contain aggregates, over
// one group. Non-aggregate subexpressions are evaluated against the
// group's first row (SQL's bare-column-in-GROUP-BY rule).
func evalWithAggs(ctx *evalCtx, e Expr, g *partialGroup) (any, error) {
	switch x := e.(type) {
	case Agg:
		return g.aggregate(x)
	case Binary:
		if containsAgg(x.L) || containsAgg(x.R) {
			l, err := evalWithAggs(ctx, x.L, g)
			if err != nil {
				return nil, err
			}
			r, err := evalWithAggs(ctx, x.R, g)
			if err != nil {
				return nil, err
			}
			return ctx.eval(Binary{Op: x.Op, L: Lit{Val: l}, R: Lit{Val: r}}, nil)
		}
	case Func:
		if containsAgg(x) {
			args := make([]Expr, len(x.Args))
			for i, a := range x.Args {
				v, err := evalWithAggs(ctx, a, g)
				if err != nil {
					return nil, err
				}
				args[i] = Lit{Val: v}
			}
			return ctx.evalFunc(Func{Name: x.Name, Args: args}, nil)
		}
	}
	if g.rows == nil {
		return nil, nil // the global group of an empty input
	}
	return ctx.eval(e, &g.head)
}

// finishGroup runs one group through HAVING and the select list. keep is
// false when HAVING rejects the group.
func finishGroup(ctx *evalCtx, having Expr, items []Expr, g *partialGroup) (vals []any, keep bool, err error) {
	if having != nil {
		hv, err := evalWithAggs(ctx, having, g)
		if err != nil {
			return nil, false, err
		}
		if ok, known := truthy(hv); !known || !ok {
			return nil, false, nil
		}
	}
	vals = make([]any, len(items))
	for i, e := range items {
		v, err := evalWithAggs(ctx, e, g)
		if err != nil {
			return nil, false, err
		}
		vals[i] = v
	}
	return vals, true, nil
}

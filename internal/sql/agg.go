package sql

import (
	"fmt"

	"squery/internal/core"
)

// Aggregation. One group form serves both drive modes: a partialGroup is
// a group's accumulators plus the first row it saw, kept for the select
// list's bare columns. A one-shot query folds every row into its group
// where the row lives and ships the partial groups, which the client
// merges and finishes; a standing query (subscribe.go) keeps a dirty
// group's member rows and, when it settles, folds them into a fresh
// partialGroup and finishes that the same way.

// aggAcc is the running state of one aggregate call: foldable one value
// at a time, mergeable with the state another node folded.
type aggAcc struct {
	fn       AggFunc
	distinct bool

	count   int64
	sum     float64
	sumI    int64
	hasReal bool  // a non-integer value was summed: SUM reports the float
	ext     datum // MIN/MAX so far; dNull until a value arrives
	// DISTINCT: the values seen so far, and in first-seen order so that a
	// merge folds them deterministically.
	seen  map[joinKey]struct{}
	order []datum
}

func newAggAcc(a Agg) aggAcc {
	acc := aggAcc{fn: a.Func, distinct: a.Distinct && !a.Star}
	if acc.distinct {
		acc.seen = map[joinKey]struct{}{}
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
		if _, dup := a.seen[k]; dup {
			return nil
		}
		a.seen[k] = struct{}{}
		a.order = append(a.order, v)
	}
	a.count++
	switch a.fn {
	case AggSum, AggAvg:
		f, ok := v.float()
		if !ok {
			return fmt.Errorf("sql: %s over non-numeric %T", a.fn, v.box())
		}
		a.sum += f
		if v.k == dInt {
			a.sumI += v.n
		} else {
			a.hasReal = true
		}
	case AggMin, AggMax:
		return a.extreme(v)
	}
	return nil
}

// extreme keeps v when it beats the MIN/MAX so far (the first of equals
// stays).
func (a *aggAcc) extreme(v datum) error {
	if a.ext.k == dNull {
		a.ext = v
		return nil
	}
	c, err := compareD(v, a.ext)
	if err != nil {
		return err
	}
	if (a.fn == AggMin && c < 0) || (a.fn == AggMax && c > 0) {
		a.ext = v
	}
	return nil
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
	a.sum += b.sum
	a.sumI += b.sumI
	a.hasReal = a.hasReal || b.hasReal
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
		if !a.hasReal {
			return a.sumI, nil
		}
		return a.sum, nil
	case AggAvg:
		if a.count == 0 {
			return nil, nil
		}
		return a.sum / float64(a.count), nil
	case AggMin, AggMax:
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

func newPartialGroup(key string, aggs []Agg) *partialGroup {
	g := &partialGroup{key: key, accs: make([]aggAcc, len(aggs))}
	for i, a := range aggs {
		g.accs[i] = newAggAcc(a)
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

// fold folds one working-set row into the group's accumulators.
func (g *partialGroup) fold(ctx *evalCtx, aggs []Agg, jr *joinedRow) error {
	for i := range g.accs {
		a := &aggs[i]
		if a.Star {
			g.accs[i].count++
			continue
		}
		v, err := ctx.evalD(a.Arg, jr)
		if err != nil {
			return err
		}
		if err := g.accs[i].add(v); err != nil {
			return err
		}
	}
	return nil
}

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
	g = newPartialGroup(string(key), gt.pp.aggs)
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
	if err := g.fold(gt.ctx, gt.pp.aggs, jr); err != nil {
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

package sql

import (
	"fmt"

	"squery/internal/core"
)

// Aggregation. One accumulator implementation serves both drive modes: a
// one-shot query folds every row into its group's accumulators where the
// row lives and ships the partial groups, which the client merges and
// finishes; a standing query (subscribe.go) folds a dirty group's member
// rows through the same accumulators when it settles. No group ever holds
// its rows in the one-shot path — a group is its accumulators plus the
// first row it saw, kept for the select list's bare columns.

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

// groupView is what finishing a group reads: its aggregates' results, and
// the row bare (non-aggregate) expressions evaluate against — SQL's
// bare-column-in-GROUP-BY rule takes the group's first row.
type groupView interface {
	aggregate(ctx *evalCtx, a Agg) (any, error)
	first() Resolver // nil when the group is empty
}

// groupRows is a group held as its member rows: the standing query's form.
type groupRows []joinedRow

func (g groupRows) first() Resolver {
	if len(g) == 0 {
		return nil
	}
	return &g[0]
}

// aggregate folds the group's rows through a fresh accumulator.
func (g groupRows) aggregate(ctx *evalCtx, a Agg) (any, error) {
	acc := newAggAcc(a)
	for i := range g {
		if a.Star {
			acc.count++
			continue
		}
		v, err := ctx.evalD(a.Arg, &g[i])
		if err != nil {
			return nil, err
		}
		if err := acc.add(v); err != nil {
			return nil, err
		}
	}
	return acc.result()
}

// partialGroup is a group held as accumulators: the one-shot query's form,
// built where the rows live and merged at the client.
type partialGroup struct {
	key  string
	accs []aggAcc
	// head is a copy of the first row folded in; rows backs its tabs.
	head joinedRow
	rows []core.TableRow
}

func (g *partialGroup) first() Resolver {
	if g.rows == nil {
		return nil // the global group of an empty input
	}
	return &g.head
}

func (g *partialGroup) aggregate(_ *evalCtx, a Agg) (any, error) {
	if a.slot == 0 {
		return nil, fmt.Errorf("sql: aggregate %s was not planned", a)
	}
	return g.accs[a.slot-1].result()
}

// keepHead copies jr as the group's first row: the fragment reuses the
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
	g = &partialGroup{key: string(key), accs: make([]aggAcc, len(gt.pp.aggs))}
	for i, a := range gt.pp.aggs {
		g.accs[i] = newAggAcc(a)
	}
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
	for i := range g.accs {
		a := &gt.pp.aggs[i]
		if a.Star {
			g.accs[i].count++
			continue
		}
		v, err := gt.ctx.evalD(a.Arg, jr)
		if err != nil {
			return false, err
		}
		if err := g.accs[i].add(v); err != nil {
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
func evalWithAggs(ctx *evalCtx, e Expr, g groupView) (any, error) {
	switch x := e.(type) {
	case Agg:
		return g.aggregate(ctx, x)
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
	row := g.first()
	if row == nil {
		return nil, nil
	}
	return ctx.eval(e, row)
}

// finishGroup runs one group through HAVING and the select list. keep is
// false when HAVING rejects the group.
func finishGroup(ctx *evalCtx, having Expr, items []Expr, g groupView) (vals []any, keep bool, err error) {
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

package sql

import (
	"fmt"
	"math/bits"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/wire"
)

// Batch evaluation. Every expression is evaluated by one traversal,
// evalBatch, over a batch of rows: a fragment runs a partition's rows
// through the plan a chunk at a time (fragment.go); a standing query folds
// a delta as a batch of one row (subscribe.go); and finishing groups is a
// batch whose rows are the groups' head rows. Each node is evaluated over
// the whole selection before its parent combines the results, so a loop
// reads one column of many independent rows — the CPU overlaps their cache
// misses instead of serialising them behind one row's walk through the
// evaluator — and the evaluator's dispatch is paid once per node per
// batch. A WHERE part is not evaluated but selected, through the
// predicate kernels of kernel.go; evalBatch evaluates what they cannot.

// batch is a chunk of the working set, column-major by source: cols[s][i]
// is source s's row at position i. A selection vector — the ascending
// positions still in play — travels beside it.
type batch struct {
	// cols holds one row column per source; nil while the source holds
	// nothing for the batch (a join not yet run).
	cols [][]core.TableRow
	// miss marks, for a source that can be absent (the right side of a
	// LEFT JOIN), the positions where it is; nil for every other source.
	miss [][]bool
	n    int
	// groups, in a batch of groups being finished, is the group at each
	// position, whose accumulators an aggregate reads; nil in any other
	// batch.
	groups []*partialGroup
	// jr is the row view of one position, for what reads a column by name.
	jr joinedRow
	sc *scratch
}

func newBatch(srcs []tableSrc, sc *scratch) batch {
	return batch{
		cols: make([][]core.TableRow, len(srcs)),
		miss: make([][]bool, len(srcs)),
		jr:   joinedRow{srcs: srcs, tabs: make([]*core.TableRow, len(srcs))},
		sc:   sc,
	}
}

// row returns the row view of position i; it is valid until the next call.
func (b *batch) row(i int32) *joinedRow {
	for s, col := range b.cols {
		if col == nil || (b.miss[s] != nil && b.miss[s][i]) {
			b.jr.tabs[s] = nil
		} else {
			b.jr.tabs[s] = &col[i]
		}
	}
	return &b.jr
}

// push appends position i of in, joined with r as source si — nil for a
// LEFT JOIN miss, which leaves si absent there.
func (b *batch) push(in *batch, i int32, si int, r *core.TableRow) {
	for s := 0; s < si; s++ {
		b.cols[s] = append(b.cols[s], in.cols[s][i])
		if b.miss[s] != nil {
			b.miss[s] = append(b.miss[s], in.miss[s][i])
		}
	}
	var row core.TableRow
	if r != nil {
		row = *r
	}
	b.cols[si] = append(b.cols[si], row)
	if b.miss[si] != nil {
		b.miss[si] = append(b.miss[si], r == nil)
	}
	b.n++
}

// reset empties the batch, keeping its columns' storage.
func (b *batch) reset() {
	b.n = 0
	for s := range b.cols {
		if b.cols[s] != nil {
			b.cols[s] = b.cols[s][:0]
		}
		if b.miss[s] != nil {
			b.miss[s] = b.miss[s][:0]
		}
	}
}

// ident is the selection of a whole chunk, positions 0..ScanBatch-1.
var ident = func() []int32 {
	s := make([]int32, kv.ScanBatch)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// scratch is the temporary columns one pipe's evaluation uses, taken and
// given back in stack order and reused from chunk to chunk, so a query
// allocates them once per pipe, sized to the largest chunk it saw.
type scratch struct {
	d      [][]datum
	s      [][]int32
	nd, ns int
	// The column a kernel reads its values into (kernel.go), by kind.
	strs  []string
	nums  []float64
	times []*time.Time
}

// datums takes a datum column of n positions.
func (sc *scratch) datums(n int) []datum {
	if sc.nd == len(sc.d) {
		sc.d = append(sc.d, nil)
	}
	sc.d[sc.nd] = grow(sc.d[sc.nd], n)
	sc.nd++
	return sc.d[sc.nd-1]
}

// dropDatums gives back the n datum columns taken last.
func (sc *scratch) dropDatums(n int) { sc.nd -= n }

// sel takes an empty selection with room for n positions.
func (sc *scratch) sel(n int) []int32 {
	if sc.ns == len(sc.s) {
		sc.s = append(sc.s, nil)
	}
	s := grow(sc.s[sc.ns], n)[:0]
	sc.s[sc.ns] = s
	sc.ns++
	return s
}

// dropSel gives back the selection taken last.
func (sc *scratch) dropSel() { sc.ns-- }

// grow returns s resliced to n elements. It reallocates when s is
// shorter, rounding the capacity up to a power of two, so that chunks of
// varying length settle on one buffer after a reallocation or two.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, 1<<bits.Len(uint(n-1)))
	}
	return s[:n]
}

// evalBatch evaluates e at every position sel selects, into out[i] for
// position i. It dispatches once per node: a bound column is gathered for
// the whole selection in one loop, a literal broadcast, and every other
// node evaluates its operands as columns and combines them element by
// element through its rule (eval.go). AND and OR evaluate their right side
// only where the left left the result open, and IN a list value only where
// no earlier one matched, so an error surfaces only where a row's own
// evaluation reaches it.
func (c *evalCtx) evalBatch(e Expr, b *batch, sel []int32, out []datum) error {
	switch x := e.(type) {
	case Lit:
		broadcast(fromAny(x.Val), sel, out)
		return nil
	case LocalTimestamp:
		broadcast(timeDatum(&c.now), sel, out)
		return nil
	case *colRef:
		return b.gather(x, sel, out)
	case Ident:
		for _, i := range sel {
			v, ok := b.row(i).Resolve(x.Table, x.Name)
			if !ok {
				return fmt.Errorf("sql: unknown column %s", x)
			}
			out[i] = fromAny(v)
		}
		return nil
	case IsNull:
		return c.unary(x.E, b, sel, out, func(v datum) (datum, error) {
			return boolDatum((v.k == dNull) != x.Not), nil
		})
	case Unary:
		if x.Op == "NOT" {
			return c.unary(x.E, b, sel, out, func(v datum) (datum, error) { return not3(v), nil })
		}
		return c.unary(x.E, b, sel, out, negate)
	case Like:
		return c.unary(x.E, b, sel, out, func(v datum) (datum, error) { return like(v, x.Pattern, x.Not) })
	case InList:
		return c.batchIn(x, b, sel, out)
	case Between:
		return c.batchBetween(x, b, sel, out)
	case Binary:
		switch x.Op {
		case "AND", "OR":
			return c.batchLogic(x, b, sel, out)
		case "=", "!=", "<", "<=", ">", ">=":
			return c.binary(x, b, sel, out, compareOp)
		case "+", "-", "*", "/", "%":
			return c.binary(x, b, sel, out, arith)
		}
		return fmt.Errorf("sql: unknown operator %q", x.Op)
	case Func:
		return c.batchFunc(x, b, sel, out)
	case Agg:
		if b.groups == nil {
			return fmt.Errorf("sql: aggregate %s used outside an aggregating context", x)
		}
		for _, i := range sel {
			d, err := b.groups[i].aggregate(x)
			if err != nil {
				return err
			}
			out[i] = d
		}
		return nil
	}
	return fmt.Errorf("sql: unhandled expression %T", e)
}

func broadcast(d datum, sel []int32, out []datum) {
	for _, i := range sel {
		out[i] = d
	}
}

// gather reads a bound column at every selected position, in one loop:
// through the schema's typed readers when the column is schema-bound and
// the row is of the schema's type, through joinedRow.col — pseudo-columns,
// by name — otherwise. The typed read is joinedRow.col's, written out in
// the loop so that the readers inline: this loop is where a scan's cache
// misses overlap.
func (b *batch) gather(c *colRef, sel []int32, out []datum) error {
	var rows []core.TableRow
	var miss []bool
	var sch *wire.Schema
	if c.src >= 0 {
		if rows, miss = b.cols[c.src], b.miss[c.src]; rows == nil {
			broadcast(datum{}, sel, out)
			return nil
		}
		sch = b.jr.srcs[c.src].schema
	}
	for _, i := range sel {
		if miss != nil && miss[i] {
			out[i] = datum{} // LEFT JOIN miss: columns are NULL
			continue
		}
		if c.ord >= 0 {
			if ref, ok := sch.Ref(rows[i].Raw); ok {
				switch c.kind {
				case dInt:
					out[i] = datum{k: dInt, w: c.w, n: sch.Int(ref, c.ord)}
				case dFloat:
					out[i] = floatDatum(sch.Float(ref, c.ord), c.w)
				case dString:
					out[i] = datum{k: dString, s: sch.Str(ref, c.ord)}
				case dBool:
					out[i] = boolDatum(sch.Bool(ref, c.ord))
				case dTime:
					out[i] = timeDatum(sch.Time(ref, c.ord))
				default:
					out[i] = fromAny(sch.Value(ref, c.ord))
				}
				continue
			}
		}
		d, ok := b.row(i).col(c)
		if !ok {
			return fmt.Errorf("sql: unknown column %s", c.id)
		}
		out[i] = d
	}
	return nil
}

// unary evaluates operand e into out and applies rule f at every selected
// position, in place.
func (c *evalCtx) unary(e Expr, b *batch, sel []int32, out []datum, f func(datum) (datum, error)) error {
	if err := c.evalBatch(e, b, sel, out); err != nil {
		return err
	}
	for _, i := range sel {
		d, err := f(out[i])
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

// binary evaluates both operands of x as columns and combines them with
// rule f, which takes x's operator, at every selected position.
func (c *evalCtx) binary(x Binary, b *batch, sel []int32, out []datum, f func(op string, l, r datum) (datum, error)) error {
	if err := c.evalBatch(x.L, b, sel, out); err != nil {
		return err
	}
	r := b.sc.datums(b.n)
	defer b.sc.dropDatums(1)
	if err := c.evalBatch(x.R, b, sel, r); err != nil {
		return err
	}
	for _, i := range sel {
		d, err := f(x.Op, out[i], r[i])
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

func (c *evalCtx) batchLogic(x Binary, b *batch, sel []int32, out []datum) error {
	and := x.Op == "AND"
	if err := c.evalBatch(x.L, b, sel, out); err != nil {
		return err
	}
	open := b.sc.sel(len(sel))
	defer b.sc.dropSel()
	for _, i := range sel {
		if settles(and, out[i]) {
			out[i] = boolDatum(!and)
		} else {
			open = append(open, i)
		}
	}
	if len(open) == 0 {
		return nil
	}
	r := b.sc.datums(b.n)
	defer b.sc.dropDatums(1)
	if err := c.evalBatch(x.R, b, open, r); err != nil {
		return err
	}
	for _, i := range open {
		out[i] = combine3(and, out[i], r[i])
	}
	return nil
}

func (c *evalCtx) batchIn(x InList, b *batch, sel []int32, out []datum) error {
	if err := c.evalBatch(x.E, b, sel, out); err != nil {
		return err
	}
	open := b.sc.sel(len(sel))
	defer b.sc.dropSel()
	for _, i := range sel {
		if out[i].k != dNull {
			open = append(open, i)
		}
	}
	lv := b.sc.datums(b.n)
	defer b.sc.dropDatums(1)
	for _, le := range x.List {
		if len(open) == 0 {
			return nil
		}
		if err := c.evalBatch(le, b, open, lv); err != nil {
			return err
		}
		left := open[:0]
		for _, i := range open {
			if inMatch(out[i], lv[i]) {
				out[i] = boolDatum(!x.Not)
			} else {
				left = append(left, i)
			}
		}
		open = left
	}
	for _, i := range open {
		out[i] = boolDatum(x.Not)
	}
	return nil
}

func (c *evalCtx) batchBetween(x Between, b *batch, sel []int32, out []datum) error {
	if err := c.evalBatch(x.E, b, sel, out); err != nil {
		return err
	}
	lo, hi := b.sc.datums(b.n), b.sc.datums(b.n)
	defer b.sc.dropDatums(2)
	if err := c.evalBatch(x.Lo, b, sel, lo); err != nil {
		return err
	}
	if err := c.evalBatch(x.Hi, b, sel, hi); err != nil {
		return err
	}
	for _, i := range sel {
		d, err := between(out[i], lo[i], hi[i], x.Not)
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

// batchFunc evaluates a scalar function's arguments as columns, then runs
// the function once per selected position over that position's boxed
// arguments.
func (c *evalCtx) batchFunc(x Func, b *batch, sel []int32, out []datum) error {
	// Argument k's column is cols[k*b.n : (k+1)*b.n].
	cols := b.sc.datums(len(x.Args) * b.n)
	defer b.sc.dropDatums(1)
	for k, a := range x.Args {
		if err := c.evalBatch(a, b, sel, cols[k*b.n:(k+1)*b.n]); err != nil {
			return err
		}
	}
	args := make([]any, len(x.Args))
	for _, i := range sel {
		for k := range args {
			args[k] = cols[k*b.n+int(i)].box()
		}
		v, err := callFunc(x.Name, args)
		if err != nil {
			return err
		}
		out[i] = fromAny(v)
	}
	return nil
}

// filterBatch appends to into the positions of sel where f holds — all of
// them for an empty filter — and returns it. The filter's kernels select
// when the batch's rows at sel are of their schemas' types (kernel.go);
// otherwise evalBatch evaluates the whole predicate.
func (c *evalCtx) filterBatch(f filter, b *batch, sel, into []int32) ([]int32, error) {
	if f.e == nil {
		return append(into, sel...), nil
	}
	if f.k != nil && f.admits(b, sel) {
		return f.k.sel(b, &c.now, sel, into), nil
	}
	v := b.sc.datums(b.n)
	defer b.sc.dropDatums(1)
	if err := c.evalBatch(f.e, b, sel, v); err != nil {
		return into, err
	}
	for _, i := range sel {
		if keep, ok := v[i].truthy(); ok && keep {
			into = append(into, i)
		}
	}
	return into, nil
}

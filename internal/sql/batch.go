package sql

import (
	"fmt"
	"math/bits"

	"squery/internal/core"
	"squery/internal/kv"
)

// Batch evaluation. A fragment runs a partition's rows through the plan a
// chunk at a time (fragment.go): the pushed filter, the join probe, the
// residual filter and the group keys and aggregate arguments are each
// evaluated over the whole chunk, one expression node at a time. Each loop
// reads one column of many independent rows, so the CPU overlaps their
// cache misses instead of serialising them behind one row's walk through
// the evaluator, and the evaluator's dispatch is paid once per node per
// chunk.

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
	// jr is the row view of one position, for what evaluates row by row.
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

// evalBatch is the batch form of evalD: it evaluates e at every position
// sel selects, into out[i] for position i. It dispatches once per node. A
// bound column is gathered for the whole selection in one loop, a literal
// broadcast; comparisons, AND/OR/NOT, IN, BETWEEN and IS NULL combine
// their operands' columns element by element through the rules evalD
// applies (compareOp, settles/combine3, not3, inMatch, between). AND and
// OR evaluate their right side only where the left left the result open,
// and IN a list value only where no earlier one matched, so an error
// surfaces exactly when the row form would raise it. Every other node —
// arithmetic, functions, LIKE, a by-name column — calls evalD once per
// selected position.
func (c *evalCtx) evalBatch(e Expr, b *batch, sel []int32, out []datum) error {
	switch x := e.(type) {
	case Lit:
		broadcast(fromAny(x.Val), sel, out)
		return nil
	case LocalTimestamp:
		broadcast(timeDatum(&c.now), sel, out)
		return nil
	case *colRef:
		if x.src >= 0 {
			return b.gather(x, sel, out)
		}
	case IsNull:
		if err := c.evalBatch(x.E, b, sel, out); err != nil {
			return err
		}
		for _, i := range sel {
			out[i] = boolDatum((out[i].k == dNull) != x.Not)
		}
		return nil
	case Unary:
		if x.Op == "NOT" {
			if err := c.evalBatch(x.E, b, sel, out); err != nil {
				return err
			}
			for _, i := range sel {
				out[i] = not3(out[i])
			}
			return nil
		}
	case InList:
		return c.batchIn(x, b, sel, out)
	case Between:
		return c.batchBetween(x, b, sel, out)
	case Binary:
		switch x.Op {
		case "AND", "OR":
			return c.batchLogic(x, b, sel, out)
		case "=", "!=", "<", "<=", ">", ">=":
			return c.batchCompare(x, b, sel, out)
		}
	}
	for _, i := range sel {
		d, err := c.evalD(e, b.row(i))
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

func broadcast(d datum, sel []int32, out []datum) {
	for _, i := range sel {
		out[i] = d
	}
}

// gather reads a source-bound column at every selected position, in one
// loop: through the schema's typed readers when the row is of the
// schema's type, through joinedRow.col — pseudo-columns, by name —
// otherwise. The typed read is joinedRow.col's, written out in the loop so
// that the readers inline: this loop is where a scan's cache misses
// overlap.
func (b *batch) gather(c *colRef, sel []int32, out []datum) error {
	rows, miss := b.cols[c.src], b.miss[c.src]
	if rows == nil {
		broadcast(datum{}, sel, out)
		return nil
	}
	sch := b.jr.srcs[c.src].schema
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

func (c *evalCtx) batchCompare(x Binary, b *batch, sel []int32, out []datum) error {
	if err := c.evalBatch(x.L, b, sel, out); err != nil {
		return err
	}
	r := b.sc.datums(b.n)
	defer b.sc.dropDatums(1)
	if err := c.evalBatch(x.R, b, sel, r); err != nil {
		return err
	}
	for _, i := range sel {
		d, err := compareOp(x.Op, out[i], r[i])
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

// filterBatch appends to into the positions of sel where pred holds — all
// of them for a nil predicate — and returns it.
func (c *evalCtx) filterBatch(pred Expr, b *batch, sel, into []int32) ([]int32, error) {
	if pred == nil {
		return append(into, sel...), nil
	}
	v := b.sc.datums(b.n)
	defer b.sc.dropDatums(1)
	if err := c.evalBatch(pred, b, sel, v); err != nil {
		return into, err
	}
	for _, i := range sel {
		if keep, ok := v[i].truthy(); ok && keep {
			into = append(into, i)
		}
	}
	return into, nil
}

package sql

import (
	"slices"
	"strings"
	"time"

	"squery/internal/wire"
)

// Predicate kernels. filterBatch selects; evalBatch evaluates. A WHERE part
// made only of kernel leaves under AND and OR is compiled once per plan
// into a selector tree. A kernel leaf is a schema-bound column compared
// with a constant: it reads the field in place through the schema and
// appends the positions where the comparison holds to a selection vector,
// with no datum per row (the typed primitives of MonetDB/X100). AND runs
// its right side on the left's selection; OR runs it on the positions the
// left did not select and merges the two. Any other WHERE part — a
// pseudo-column, a column read by name, arithmetic, a function, LIKE, IS
// NULL, NOT, IN, BETWEEN, a literal on the left — runs through evalBatch
// whole.
//
// A kernel never yields NULL and never raises an error, so a tree of them
// keeps exactly the rows evalBatch keeps, and a predicate that could raise
// an error is never a kernel tree: it raises it where it always did.
//
// A kernel reads a row only after the schema accepts the row's type. A
// chunk in which a kernel's source holds a row of another type, or none (a
// LEFT JOIN miss), at a selected position runs the whole predicate through
// evalBatch instead.

// filter is a bound WHERE part as filterBatch runs it.
type filter struct {
	// e is the bound predicate; nil keeps every row.
	e Expr
	// k is e compiled to kernels; nil when e is not kernel leaves under
	// AND/OR alone, and evalBatch runs it.
	k selector
	// guard lists the sources the kernels read, with their schemas.
	guard []guarded
}

type guarded struct {
	src int
	sch *wire.Schema
}

// newFilter compiles the bound predicate e over the plan's sources.
func newFilter(e Expr, srcs []tableSrc) filter {
	if e == nil {
		return filter{}
	}
	kc := kcompiler{srcs: srcs}
	if k := kc.compile(e); k != nil {
		return filter{e: e, k: k, guard: kc.guard}
	}
	return filter{e: e}
}

// admits reports whether the kernels may read the batch at sel: every
// source they read holds, at every selected position, a row of its
// schema's type.
func (f *filter) admits(b *batch, sel []int32) bool {
	for _, g := range f.guard {
		rows, miss := b.cols[g.src], b.miss[g.src]
		if rows == nil {
			return false
		}
		for _, i := range sel {
			if miss != nil && miss[i] {
				return false
			}
			if _, ok := g.sch.Ref(rows[i].Raw); !ok {
				return false
			}
		}
	}
	return true
}

// selector narrows a selection: sel appends to t the positions of in where
// the predicate holds. in and t ascend.
type selector interface {
	sel(b *batch, now *time.Time, in, t []int32) []int32
}

// kcompiler builds a filter's selector tree.
type kcompiler struct {
	srcs  []tableSrc
	guard []guarded
}

// compile returns e's selector, or nil when e is not kernel leaves under
// AND/OR alone.
func (kc *kcompiler) compile(e Expr) selector {
	x, ok := e.(Binary)
	if !ok {
		return nil
	}
	switch x.Op {
	case "AND", "OR":
		l, r := kc.compile(x.L), kc.compile(x.R)
		switch {
		case l == nil || r == nil:
			return nil
		case x.Op == "AND":
			return &andSel{l: l, r: r}
		}
		return &orSel{l: l, r: r}
	case "=", "!=", "<", "<=", ">", ">=":
		if c, ok := kernelCol(x.L); ok {
			if k, ok := constant(x.R, c.kind); ok {
				k.src, k.ord, k.sch, k.kind, k.w = c.src, c.ord, kc.srcs[c.src].schema, c.kind, c.w
				k.mask = opMask[x.Op]
				kc.watch(c.src)
				return k
			}
		}
	}
	return nil
}

// watch records source src for the row-type guard.
func (kc *kcompiler) watch(src int) {
	for _, g := range kc.guard {
		if g.src == src {
			return
		}
	}
	kc.guard = append(kc.guard, guarded{src: src, sch: kc.srcs[src].schema})
}

// kernelCol returns e when a kernel can read it: a column bound to a
// schema ordinal, of a kind the kernels compare.
func kernelCol(e Expr) (*colRef, bool) {
	c, ok := e.(*colRef)
	if !ok || c.src < 0 || c.ord < 0 {
		return nil, false
	}
	switch c.kind {
	case dString, dInt, dFloat, dTime:
		return c, true
	}
	return nil, false
}

// constant returns the leaf testing a column of kind k against e — false
// when e is not a constant, or not one compareD compares with such a
// column without error: a number with a number, and otherwise the same
// kind.
func constant(e Expr, k dkind) (*leaf, bool) {
	switch x := e.(type) {
	case LocalTimestamp:
		return &leaf{now: true}, k == dTime
	case Lit:
		d := fromAny(x.Val)
		switch {
		case d.k == dString && k == dString:
			return &leaf{s: d.s}, true
		case d.k == dTime && k == dTime:
			return &leaf{t: d.time()}, true
		case (d.k == dInt || d.k == dFloat) && (k == dInt || k == dFloat):
			f, _ := d.float()
			return &leaf{f: f}, true
		}
	}
	return nil, false
}

// The outcomes of a three-way comparison, as mask bits.
const (
	mLt uint8 = 1 << iota
	mEq
	mGt
)

// opMask is the outcomes each comparison operator accepts.
var opMask = map[string]uint8{"=": mEq, "!=": mLt | mGt, "<": mLt, "<=": mLt | mEq, ">": mGt, ">=": mGt | mEq}

// outcome is the mask bit of a three-way comparison's result.
func outcome(c int) uint8 { return 1 << uint(c+1) }

// fcmp orders two numbers as compareD does: NaN compares equal to all.
func fcmp(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// leaf is a kernel: column ord of source src, read in place through its
// schema, passes where its comparison with the constant has an outcome in
// mask. The constant is s, f or t by the column's kind — f for either
// number kind — or the execution's LOCALTIMESTAMP when now.
type leaf struct {
	src, ord int
	sch      *wire.Schema
	kind     dkind
	w        width
	mask     uint8
	s        string
	f        float64
	t        time.Time
	now      bool
}

// sel reads the column at every position of in first, in one loop of
// independent loads whose cache misses overlap, then tests the values.
func (k *leaf) sel(b *batch, now *time.Time, in, t []int32) []int32 {
	rows, sch, ord, sc := b.cols[k.src], k.sch, k.ord, b.sc
	switch k.kind {
	case dString:
		vals := grow(sc.strs, b.n)
		sc.strs = vals
		for _, i := range in {
			r, _ := sch.Ref(rows[i].Raw)
			vals[i] = sch.Str(r, ord)
		}
		return pick(t, in, vals, k.str)
	case dTime:
		vals := grow(sc.times, b.n)
		sc.times = vals
		for _, i := range in {
			r, _ := sch.Ref(rows[i].Raw)
			vals[i] = sch.Time(r, ord)
		}
		c := &k.t
		if k.now {
			c = now
		}
		return pick(t, in, vals, func(v *time.Time) bool { return k.mask&outcome(v.Compare(*c)) != 0 })
	}
	vals := grow(sc.nums, b.n)
	sc.nums = vals
	for _, i := range in {
		r, _ := sch.Ref(rows[i].Raw)
		switch {
		case k.kind == dFloat:
			vals[i] = sch.Float(r, ord)
		case k.w == wUint64:
			vals[i] = float64(uint64(sch.Int(r, ord)))
		default:
			vals[i] = float64(sch.Int(r, ord))
		}
	}
	return pick(t, in, vals, func(v float64) bool { return k.mask&outcome(fcmp(v, k.f)) != 0 })
}

// str tests a string: with == for = and !=, strings.Compare otherwise.
func (k *leaf) str(v string) bool {
	switch k.mask {
	case mEq:
		return v == k.s
	case mLt | mGt:
		return v != k.s
	}
	return k.mask&outcome(strings.Compare(v, k.s)) != 0
}

// pick appends to t the positions i of in where pass(vals[i]), without a
// branch on the verdict.
func pick[T any](t, in []int32, vals []T, pass func(T) bool) []int32 {
	n := len(t)
	t = slices.Grow(t, len(in))[:n+len(in)]
	for _, i := range in {
		t[n] = i
		n += int(b2i(pass(vals[i])))
	}
	return t[:n]
}

// andSel is l AND r: r runs on l's selection.
type andSel struct{ l, r selector }

func (s *andSel) sel(b *batch, now *time.Time, in, t []int32) []int32 {
	lt := s.l.sel(b, now, in, b.sc.sel(len(in)))
	defer b.sc.dropSel()
	return s.r.sel(b, now, lt, t)
}

// orSel is l OR r: r runs where l did not select, and the two selections
// merge.
type orSel struct{ l, r selector }

func (s *orSel) sel(b *batch, now *time.Time, in, t []int32) []int32 {
	sc := b.sc
	lt := s.l.sel(b, now, in, sc.sel(len(in)))
	rest := minus(sc.sel(len(in)), in, lt)
	rt := s.r.sel(b, now, rest, sc.sel(len(rest)))
	defer sc.dropSel()
	defer sc.dropSel()
	defer sc.dropSel()
	return union(t, lt, rt)
}

// union appends the merge of two ascending selections to dst.
func union(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// minus appends to dst the positions of ascending a not in ascending b.
func minus(dst, a, b []int32) []int32 {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			dst = append(dst, x)
		}
	}
	return dst
}

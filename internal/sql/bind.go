package sql

import (
	"reflect"
	"strings"
	"time"

	"squery/internal/core"
)

// Column binding. The planner resolves every column reference against the
// plan's sources once: which source it reads (attribution) and — when that
// source's table reports a schema — which field ordinal. Evaluation then
// reads a bound column through the schema's typed readers, with no name
// lookup and no boxing; a reference that could not be bound is read by
// name through Row.Field. Both go through one seam, joinedRow.col (and its
// batch form, batch.gather), chosen per source by whether its table
// reported a schema.

// Pseudo-ordinals of a colRef.
const (
	ordName = -1 - iota // read by name through the row's Field
	ordKey              // partitionKey pseudo-column
	ordSSID             // ssid pseudo-column
)

// colRef is an identifier the planner resolved against the plan's sources.
// It replaces the Ident in the expressions a plan evaluates.
type colRef struct {
	id Ident
	// src is the source the reference reads; -1 when it resolves by name
	// over all sources at run time (unknown qualifier, or an unqualified
	// name the schemas could not attribute to exactly one source).
	src int
	// ord is the field ordinal in the source's schema, or a pseudo-ordinal.
	ord int
	// kind is the value class of a schema-bound column; dOther columns are
	// read boxed.
	kind dkind
	w    width
}

func (*colRef) exprNode()        {}
func (c *colRef) String() string { return c.id.String() }

var (
	typInt     = reflect.TypeOf(int(0))
	typInt32   = reflect.TypeOf(int32(0))
	typInt64   = reflect.TypeOf(int64(0))
	typUint64  = reflect.TypeOf(uint64(0))
	typFloat32 = reflect.TypeOf(float32(0))
	typFloat64 = reflect.TypeOf(float64(0))
	typString  = reflect.TypeOf("")
	typBool    = reflect.TypeOf(false)
	typTime    = reflect.TypeOf(time.Time{})
)

// classify maps a column's Go type to the value class evaluation reads it
// in. Only the exact types compare() recognises are read typed; a named
// string type or an int16 stays boxed, so both accessors agree on it.
func classify(t reflect.Type) (dkind, width) {
	switch t {
	case typInt64:
		return dInt, wInt64
	case typInt:
		return dInt, wInt
	case typInt32:
		return dInt, wInt32
	case typUint64:
		return dInt, wUint64
	case typFloat64:
		return dFloat, wFloat64
	case typFloat32:
		return dFloat, wFloat32
	case typString:
		return dString, 0
	case typBool:
		return dBool, 0
	case typTime:
		return dTime, 0
	}
	return dOther, 0
}

// sourceOf returns the index of the source a qualifier names (alias or
// table name, first match), or -1.
func sourceOf(srcs []tableSrc, qualifier string) int {
	for i := range srcs {
		if strings.EqualFold(qualifier, srcs[i].alias) || strings.EqualFold(qualifier, srcs[i].name) {
			return i
		}
	}
	return -1
}

// attribute resolves an identifier to the one source it reads. A
// qualified name reads the source its qualifier names. An unqualified name
// reads the only source of a single-table query; in a join it is
// attributed only when every source reports a schema and exactly one of
// them has the column — a column found in several sources (the
// pseudo-columns always are), in none, or next to a source with no schema
// stays unattributed and resolves by name at run time, first source that
// has it, exactly as before binding existed.
func attribute(srcs []tableSrc, id Ident) (int, bool) {
	if id.Table != "" {
		si := sourceOf(srcs, id.Table)
		return si, si >= 0
	}
	if len(srcs) == 1 {
		return 0, true
	}
	if id.Name == core.ColPartitionKey || id.Name == core.ColSSID {
		return -1, false
	}
	found := -1
	for i := range srcs {
		if srcs[i].schema == nil {
			return -1, false
		}
		if _, ok := srcs[i].schema.FieldIndex(id.Name); ok {
			if found >= 0 {
				return -1, false
			}
			found = i
		}
	}
	return found, found >= 0
}

// bindIdent resolves one identifier to a colRef.
func bindIdent(srcs []tableSrc, id Ident) *colRef {
	si, ok := attribute(srcs, id)
	if !ok {
		return &colRef{id: id, src: -1, ord: ordName}
	}
	return bindTo(srcs, si, id)
}

// bindTo binds an identifier known to read source si: to a pseudo-column,
// to a field ordinal when the source's table reported a schema that has
// the column, by name otherwise.
func bindTo(srcs []tableSrc, si int, id Ident) *colRef {
	c := &colRef{id: id, src: si, ord: ordName}
	switch id.Name {
	case core.ColPartitionKey:
		c.ord = ordKey
	case core.ColSSID:
		c.ord = ordSSID
	default:
		if sch := srcs[si].schema; sch != nil {
			if i, ok := sch.FieldIndex(id.Name); ok {
				c.ord = i
				c.kind, c.w = classify(sch.ColumnType(i))
			}
		}
	}
	return c
}

// bind rewrites every identifier of an expression into a colRef and gives
// every aggregate call its accumulator slot (its position in pp.aggs, plus
// one). nil stays nil.
func (pp *physPlan) bind(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case Ident:
		return bindIdent(pp.srcs, x)
	case Binary:
		x.L, x.R = pp.bind(x.L), pp.bind(x.R)
		return x
	case Unary:
		x.E = pp.bind(x.E)
		return x
	case IsNull:
		x.E = pp.bind(x.E)
		return x
	case Between:
		x.E, x.Lo, x.Hi = pp.bind(x.E), pp.bind(x.Lo), pp.bind(x.Hi)
		return x
	case InList:
		x.E = pp.bind(x.E)
		list := make([]Expr, len(x.List))
		for i, v := range x.List {
			list[i] = pp.bind(v)
		}
		x.List = list
		return x
	case Like:
		x.E = pp.bind(x.E)
		return x
	case Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = pp.bind(a)
		}
		x.Args = args
		return x
	case Agg:
		x.Arg = pp.bind(x.Arg)
		pp.aggs = append(pp.aggs, x)
		x.slot = len(pp.aggs)
		return x
	}
	return e
}

// joinedRow is one row of the (possibly joined) working set: one TableRow
// per source, aligned with the sources slice. A nil entry means the source
// contributed no row (LEFT JOIN miss).
type joinedRow struct {
	srcs []tableSrc
	tabs []*core.TableRow
}

// Resolve reads a column of the joined row by name: ok is false for an
// unknown column, and a nil value with ok true is SQL NULL.
func (r *joinedRow) Resolve(table, column string) (any, bool) {
	if table != "" {
		si := sourceOf(r.srcs, table)
		if si < 0 {
			return nil, false
		}
		if r.tabs[si] == nil {
			return nil, true // LEFT JOIN miss: columns are NULL
		}
		return r.tabs[si].Field(column)
	}
	hadMiss := false
	for i := range r.srcs {
		if r.tabs[i] == nil {
			hadMiss = true
			continue
		}
		if v, ok := r.tabs[i].Field(column); ok {
			return v, true
		}
	}
	// With a LEFT JOIN miss the column may belong to the absent side,
	// whose schema we cannot see — resolve it as NULL. (The cost is that
	// a typo in such a query yields NULLs instead of an error.)
	if hadMiss {
		return nil, true
	}
	return nil, false
}

// col reads a bound column of the row: through the schema's typed readers
// when its table reported a schema and the row is of the schema's type, by
// name through Row.Field otherwise. ok is false for an unknown column.
func (r *joinedRow) col(c *colRef) (datum, bool) {
	if c.src >= 0 {
		t := r.tabs[c.src]
		if t == nil {
			return datum{}, true // LEFT JOIN miss: columns are NULL
		}
		switch c.ord {
		case ordKey:
			return fromAny(t.Key), true
		case ordSSID:
			return intDatum(t.SSID), true
		}
		if sch := r.srcs[c.src].schema; c.ord >= 0 {
			if ref, ok := sch.Ref(t.Raw); ok {
				switch c.kind {
				case dInt:
					return datum{k: dInt, w: c.w, n: sch.Int(ref, c.ord)}, true
				case dFloat:
					return floatDatum(sch.Float(ref, c.ord), c.w), true
				case dString:
					return datum{k: dString, s: sch.Str(ref, c.ord)}, true
				case dBool:
					return boolDatum(sch.Bool(ref, c.ord)), true
				case dTime:
					return timeDatum(sch.Time(ref, c.ord)), true
				}
				return fromAny(sch.Value(ref, c.ord)), true
			}
		}
		if v, ok := t.Field(c.id.Name); ok || c.id.Table != "" || len(r.srcs) == 1 {
			return fromAny(v), ok
		}
		// An unqualified name the schemas attributed here, on a row that is
		// not of the schema's type and lacks the column: resolve as if
		// unbound.
	}
	v, ok := r.Resolve(c.id.Table, c.id.Name)
	return fromAny(v), ok
}

package sql

import (
	"fmt"
	"strings"
	"time"
)

// Resolver supplies column values during evaluation. ok must be false for
// unknown columns; a nil value with ok true is SQL NULL.
type Resolver interface {
	Resolve(table, column string) (any, bool)
}

// evalCtx carries per-query evaluation state.
type evalCtx struct {
	now time.Time // LOCALTIMESTAMP, fixed at query start
}

// eval evaluates an expression against a row and boxes the result — the
// form a value takes when it reaches the result set or a scalar function.
// Aggregates must have been rewritten away before eval is called on
// post-aggregation expressions; encountering one here is a planner bug
// surfaced as an error.
//
// eval and evalD are one evaluator in two result forms: each operator is
// implemented once, in the form it computes in — arithmetic, functions and
// LIKE on boxed values here; column reads, literals, comparisons and
// three-valued logic on datums in evalD — and the other form converts.
func (c *evalCtx) eval(e Expr, row Resolver) (any, error) {
	switch x := e.(type) {
	case Lit:
		return x.Val, nil
	case LocalTimestamp:
		return c.now, nil
	case Ident:
		v, ok := row.Resolve(x.Table, x.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown column %s", x)
		}
		return v, nil
	case *colRef:
		if jr, ok := row.(*joinedRow); ok {
			v, ok := jr.value(x)
			if !ok {
				return nil, fmt.Errorf("sql: unknown column %s", x.id)
			}
			return v, nil
		}
		return c.eval(x.id, row)
	case Unary:
		if x.Op == "NOT" {
			break
		}
		v, err := c.eval(x.E, row)
		if err != nil {
			return nil, err
		}
		f, ok := toFloat(v)
		if !ok {
			return nil, fmt.Errorf("sql: cannot negate %T", v)
		}
		if i, isInt := toInt(v); isInt {
			return -i, nil
		}
		return -f, nil
	case Like:
		v, err := c.eval(x.E, row)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, nil
		}
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("sql: LIKE applied to %T", v)
		}
		return likeMatch(s, x.Pattern) != x.Not, nil
	case Binary:
		switch x.Op {
		case "+", "-", "*", "/", "%":
			l, err := c.eval(x.L, row)
			if err != nil {
				return nil, err
			}
			r, err := c.eval(x.R, row)
			if err != nil {
				return nil, err
			}
			return arith(x.Op, l, r)
		}
	case Func:
		return c.evalFunc(x, row)
	case Agg:
		return nil, fmt.Errorf("sql: aggregate %s used outside an aggregating context", x)
	}
	d, err := c.evalD(e, row)
	return d.box(), err
}

// evalD evaluates an expression to a typed datum: the form filters, join
// keys, group keys and aggregate arguments are consumed in. A column the
// planner bound (colRef) is read by ordinal through its table's schema;
// an Ident resolves by name through the Resolver. It only dispatches — the
// operators live in functions of their own, so that the frame a column
// read or a literal pays for stays small.
func (c *evalCtx) evalD(e Expr, row Resolver) (datum, error) {
	switch x := e.(type) {
	case Lit:
		return fromAny(x.Val), nil
	case LocalTimestamp:
		return timeDatum(&c.now), nil
	case *colRef:
		return c.evalCol(x, row)
	case Ident:
		v, ok := row.Resolve(x.Table, x.Name)
		if !ok {
			return datum{}, fmt.Errorf("sql: unknown column %s", x)
		}
		return fromAny(v), nil
	case Unary:
		if x.Op == "NOT" {
			return c.evalNot(x, row)
		}
	case IsNull:
		v, err := c.evalD(x.E, row)
		return boolDatum((v.k == dNull) != x.Not), err
	case InList:
		return c.evalIn(x, row)
	case Between:
		return c.evalBetween(x, row)
	case Binary:
		switch x.Op {
		case "AND", "OR":
			return c.evalLogic(x, row)
		case "=", "!=", "<", "<=", ">", ">=":
			return c.evalCompare(x, row)
		case "+", "-", "*", "/", "%":
		default:
			return datum{}, fmt.Errorf("sql: unknown operator %q", x.Op)
		}
	case Like, Func, Agg:
	default:
		return datum{}, fmt.Errorf("sql: unhandled expression %T", e)
	}
	v, err := c.eval(e, row)
	return fromAny(v), err
}

// evalCol reads a bound column.
func (c *evalCtx) evalCol(x *colRef, row Resolver) (datum, error) {
	jr, ok := row.(*joinedRow)
	if !ok {
		return c.evalD(x.id, row)
	}
	d, ok := jr.col(x)
	if !ok {
		return datum{}, fmt.Errorf("sql: unknown column %s", x.id)
	}
	return d, nil
}

func (c *evalCtx) evalNot(x Unary, row Resolver) (datum, error) {
	v, err := c.evalD(x.E, row)
	if err != nil {
		return datum{}, err
	}
	b, ok := v.truthy()
	if !ok {
		return datum{}, nil // NOT NULL-ish input stays NULL
	}
	return boolDatum(!b), nil
}

func (c *evalCtx) evalIn(x InList, row Resolver) (datum, error) {
	v, err := c.evalD(x.E, row)
	if err != nil {
		return datum{}, err
	}
	if v.k == dNull {
		return datum{}, nil
	}
	for _, le := range x.List {
		lv, err := c.evalD(le, row)
		if err != nil {
			return datum{}, err
		}
		cmp, err := compareD(v, lv)
		if err == nil && cmp == 0 {
			return boolDatum(!x.Not), nil
		}
	}
	return boolDatum(x.Not), nil
}

func (c *evalCtx) evalBetween(x Between, row Resolver) (datum, error) {
	v, err := c.evalD(x.E, row)
	if err != nil {
		return datum{}, err
	}
	lo, err := c.evalD(x.Lo, row)
	if err != nil {
		return datum{}, err
	}
	hi, err := c.evalD(x.Hi, row)
	if err != nil {
		return datum{}, err
	}
	if v.k == dNull || lo.k == dNull || hi.k == dNull {
		return datum{}, nil
	}
	cl, err := compareD(v, lo)
	if err != nil {
		return datum{}, err
	}
	ch, err := compareD(v, hi)
	if err != nil {
		return datum{}, err
	}
	return boolDatum((cl >= 0 && ch <= 0) != x.Not), nil
}

// evalFunc evaluates the scalar functions of the dialect. Except for
// COALESCE, a NULL argument yields NULL.
func (c *evalCtx) evalFunc(x Func, row Resolver) (any, error) {
	args := make([]any, len(x.Args))
	for i, a := range x.Args {
		v, err := c.eval(a, row)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: %s takes %d argument(s), got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "COALESCE":
		if len(args) == 0 {
			return nil, fmt.Errorf("sql: COALESCE needs at least one argument")
		}
		for _, v := range args {
			if v != nil {
				return v, nil
			}
		}
		return nil, nil
	case "ABS":
		if err := argc(1); err != nil {
			return nil, err
		}
		if args[0] == nil {
			return nil, nil
		}
		if i, ok := toInt(args[0]); ok {
			if i < 0 {
				return -i, nil
			}
			return i, nil
		}
		f, ok := toFloat(args[0])
		if !ok {
			return nil, fmt.Errorf("sql: ABS of %T", args[0])
		}
		if f < 0 {
			return -f, nil
		}
		return f, nil
	case "ROUND":
		if err := argc(1); err != nil {
			return nil, err
		}
		if args[0] == nil {
			return nil, nil
		}
		if i, ok := toInt(args[0]); ok {
			return i, nil
		}
		f, ok := toFloat(args[0])
		if !ok {
			return nil, fmt.Errorf("sql: ROUND of %T", args[0])
		}
		if f >= 0 {
			return int64(f + 0.5), nil
		}
		return int64(f - 0.5), nil
	case "UPPER", "LOWER", "LENGTH", "TRIM":
		if err := argc(1); err != nil {
			return nil, err
		}
		if args[0] == nil {
			return nil, nil
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sql: %s of %T", x.Name, args[0])
		}
		switch x.Name {
		case "UPPER":
			return strings.ToUpper(s), nil
		case "LOWER":
			return strings.ToLower(s), nil
		case "TRIM":
			return strings.TrimSpace(s), nil
		default:
			return int64(len(s)), nil
		}
	case "CONCAT":
		var b strings.Builder
		for _, v := range args {
			if v == nil {
				continue
			}
			fmt.Fprintf(&b, "%v", v)
		}
		return b.String(), nil
	}
	return nil, fmt.Errorf("sql: unknown function %s", x.Name)
}

// evalLogic evaluates AND / OR under three-valued logic.
func (c *evalCtx) evalLogic(x Binary, row Resolver) (datum, error) {
	l, err := c.evalD(x.L, row)
	if err != nil {
		return datum{}, err
	}
	lb, lok := l.truthy()
	// Short-circuit where three-valued logic allows.
	if x.Op == "AND" && lok && !lb {
		return boolDatum(false), nil
	}
	if x.Op == "OR" && lok && lb {
		return boolDatum(true), nil
	}
	r, err := c.evalD(x.R, row)
	if err != nil {
		return datum{}, err
	}
	rb, rok := r.truthy()
	// Three-valued logic: FALSE AND NULL = FALSE, TRUE OR NULL = TRUE,
	// otherwise a NULL operand makes the result NULL.
	if x.Op == "AND" {
		if rok && !rb {
			return boolDatum(false), nil
		}
		if !lok || !rok {
			return datum{}, nil
		}
		return boolDatum(true), nil
	}
	if rok && rb {
		return boolDatum(true), nil
	}
	if !lok || !rok {
		return datum{}, nil
	}
	return boolDatum(false), nil
}

// evalCompare evaluates = != < <= > >=.
func (c *evalCtx) evalCompare(x Binary, row Resolver) (datum, error) {
	l, err := c.evalD(x.L, row)
	if err != nil {
		return datum{}, err
	}
	r, err := c.evalD(x.R, row)
	if err != nil {
		return datum{}, err
	}
	if l.k == dNull || r.k == dNull {
		return datum{}, nil // comparisons with NULL are NULL
	}
	cmp, err := compareD(l, r)
	if err != nil {
		return datum{}, err
	}
	switch x.Op {
	case "=":
		return boolDatum(cmp == 0), nil
	case "!=":
		return boolDatum(cmp != 0), nil
	case "<":
		return boolDatum(cmp < 0), nil
	case "<=":
		return boolDatum(cmp <= 0), nil
	case ">":
		return boolDatum(cmp > 0), nil
	default:
		return boolDatum(cmp >= 0), nil
	}
}

// truthy interprets a value as a boolean; ok is false for NULL/non-bool.
func truthy(v any) (val, ok bool) {
	b, isB := v.(bool)
	return b, isB
}

// toInt reports integer-typed values as int64.
func toInt(v any) (int64, bool) {
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case int64:
		return n, true
	case uint64:
		return int64(n), true
	}
	return 0, false
}

// toFloat widens any numeric value to float64.
func toFloat(v any) (float64, bool) {
	if i, ok := toInt(v); ok {
		return float64(i), true
	}
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	}
	return 0, false
}

// compare orders two boxed values (see compareD).
func compare(a, b any) (int, error) { return compareD(fromAny(a), fromAny(b)) }

// arith evaluates arithmetic with integer preservation: int op int stays
// int64 (except /, which divides exactly when possible).
func arith(op string, l, r any) (any, error) {
	if l == nil || r == nil {
		return nil, nil
	}
	li, lInt := toInt(l)
	ri, rInt := toInt(r)
	if lInt && rInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "%":
			if ri == 0 {
				return nil, fmt.Errorf("sql: modulo by zero")
			}
			return li % ri, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("sql: division by zero")
			}
			if li%ri == 0 {
				return li / ri, nil
			}
			return float64(li) / float64(ri), nil
		}
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return nil, fmt.Errorf("sql: arithmetic on %T and %T", l, r)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("sql: division by zero")
		}
		return lf / rf, nil
	case "%":
		return nil, fmt.Errorf("sql: modulo on floating point")
	}
	return nil, fmt.Errorf("sql: unknown arithmetic operator %q", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char).
func likeMatch(s, pattern string) bool {
	// Dynamic programming over the pattern, iterative two-pointer with
	// backtracking on the last %.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		if pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]) {
			si++
			pi++
		} else if pi < len(pattern) && pattern[pi] == '%' {
			star = pi
			sBack = si
			pi++
		} else if star >= 0 {
			pi = star + 1
			sBack++
			si = sBack
		} else {
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

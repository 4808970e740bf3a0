package sql

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"
)

// Expression evaluation has one traversal, evalBatch (batch.go), which
// evaluates a node over a batch of rows; a single row is a batch of one.
// This file holds the rules it applies at each position, each defined
// once: comparison, three-valued logic, IN, BETWEEN, arithmetic, negation,
// LIKE and the scalar functions.

// evalCtx carries per-query evaluation state.
type evalCtx struct {
	now time.Time // LOCALTIMESTAMP, fixed at query start
}

// callFunc runs scalar function name over one position's boxed arguments.
// Except for COALESCE, a NULL argument yields NULL.
func callFunc(name string, args []any) (any, error) {
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: %s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
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
			return nil, fmt.Errorf("sql: %s of %T", name, args[0])
		}
		switch name {
		case "UPPER":
			return strings.ToUpper(s), nil
		case "LOWER":
			return strings.ToLower(s), nil
		case "TRIM":
			return strings.TrimSpace(s), nil
		default:
			return int64(utf8.RuneCountInString(s)), nil
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
	return nil, fmt.Errorf("sql: unknown function %s", name)
}

// compareOp applies comparison operator op: NULL when either operand is
// NULL, else the operator's test of compareD's order.
func compareOp(op string, l, r datum) (datum, error) {
	if l.k == dNull || r.k == dNull {
		return datum{}, nil // comparisons with NULL are NULL
	}
	cmp, err := compareD(l, r)
	if err != nil {
		return datum{}, err
	}
	switch op {
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

// settles reports whether AND's (and true) or OR's left operand alone
// decides the result — FALSE AND x is FALSE, TRUE OR x is TRUE — so that
// the right operand is not evaluated; the result is then !and.
func settles(and bool, l datum) bool {
	b, ok := l.truthy()
	return ok && b != and
}

// combine3 is AND or OR of a left operand that did not settle the result
// and the right operand, under three-valued logic: a right operand that
// settles it decides, otherwise a NULL operand makes the result NULL.
func combine3(and bool, l, r datum) datum {
	if settles(and, r) {
		return boolDatum(!and)
	}
	if _, lok := l.truthy(); !lok {
		return datum{}
	}
	if _, rok := r.truthy(); !rok {
		return datum{}
	}
	return boolDatum(and)
}

// not3 is NOT under three-valued logic: a NULL-ish operand stays NULL.
func not3(v datum) datum {
	b, ok := v.truthy()
	if !ok {
		return datum{}
	}
	return boolDatum(!b)
}

// inMatch reports whether IN's non-NULL operand equals one list value;
// values that cannot be compared do not match.
func inMatch(v, lv datum) bool {
	cmp, err := compareD(v, lv)
	return err == nil && cmp == 0
}

// between is [NOT] BETWEEN over evaluated operands.
func between(v, lo, hi datum, not bool) (datum, error) {
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
	return boolDatum((cl >= 0 && ch <= 0) != not), nil
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

// arith applies arithmetic operator op with integer preservation: int op
// int stays int64 (except /, which divides exactly when possible), any
// other numeric pair computes in float64, and a NULL operand makes NULL.
func arith(op string, l, r datum) (datum, error) {
	if l.k == dNull || r.k == dNull {
		return datum{}, nil
	}
	if l.k == dInt && r.k == dInt {
		li, ri := l.n, r.n
		switch op {
		case "+":
			return intDatum(li + ri), nil
		case "-":
			return intDatum(li - ri), nil
		case "*":
			return intDatum(li * ri), nil
		case "%":
			if ri == 0 {
				return datum{}, fmt.Errorf("sql: modulo by zero")
			}
			return intDatum(li % ri), nil
		case "/":
			if ri == 0 {
				return datum{}, fmt.Errorf("sql: division by zero")
			}
			if li%ri == 0 {
				return intDatum(li / ri), nil
			}
			return floatDatum(float64(li)/float64(ri), wFloat64), nil
		}
	}
	lf, lok := l.float()
	rf, rok := r.float()
	if !lok || !rok {
		return datum{}, fmt.Errorf("sql: arithmetic on %T and %T", l.box(), r.box())
	}
	switch op {
	case "+":
		return floatDatum(lf+rf, wFloat64), nil
	case "-":
		return floatDatum(lf-rf, wFloat64), nil
	case "*":
		return floatDatum(lf*rf, wFloat64), nil
	case "/":
		if rf == 0 {
			return datum{}, fmt.Errorf("sql: division by zero")
		}
		return floatDatum(lf/rf, wFloat64), nil
	case "%":
		return datum{}, fmt.Errorf("sql: modulo on floating point")
	}
	return datum{}, fmt.Errorf("sql: unknown arithmetic operator %q", op)
}

// negate is unary minus: an integer negates to int64, a float to float64,
// NULL stays NULL.
func negate(v datum) (datum, error) {
	switch v.k {
	case dNull:
		return v, nil
	case dInt:
		return intDatum(-v.n), nil
	case dFloat:
		return floatDatum(-v.f(), wFloat64), nil
	}
	return datum{}, fmt.Errorf("sql: cannot negate %T", v.box())
}

// like is [NOT] LIKE over an evaluated operand.
func like(v datum, pattern string, not bool) (datum, error) {
	switch v.k {
	case dNull:
		return v, nil
	case dString:
		return boolDatum(likeMatch(v.s, pattern) != not), nil
	}
	return datum{}, fmt.Errorf("sql: LIKE applied to %T", v.box())
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// character): an iterative two-pointer match over the characters of s,
// backtracking to the last %.
func likeMatch(s, pattern string) bool {
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		r, rn := utf8.DecodeRuneInString(s[si:])
		if pi < len(pattern) {
			p, pn := utf8.DecodeRuneInString(pattern[pi:])
			if p == '%' {
				star, sBack = pi, si
				pi++
				continue
			}
			if p == '_' || p == r {
				si += rn
				pi += pn
				continue
			}
		}
		if star < 0 {
			return false
		}
		// The last % absorbs one more character.
		_, bn := utf8.DecodeRuneInString(s[sBack:])
		sBack += bn
		si, pi = sBack, star+1
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

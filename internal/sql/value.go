package sql

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"time"
)

// datum is one SQL value during evaluation: a typed cell, so that a
// filter, a join key, a group key and an aggregate argument are read,
// compared and hashed without boxing — only a value that reaches the
// result set becomes an `any` (box). A column read by ordinal through the
// table's schema arrives as a datum directly; a value that arrived boxed
// (a literal, a by-name column, a function result) is classified once by
// fromAny. compare, truthy, makeJoinKey and appendGroupKey are defined on
// datums; their `any` forms wrap them, so both accessors share one
// semantics.
type datum struct {
	k dkind
	w width // the Go type behind a dInt or dFloat, so box returns it
	n int64 // dInt value; dBool as 0/1; dFloat as IEEE bits
	s string
	// a carries what does not fit a word — dOther's value, and a dTime as
	// the time.Time it arrived boxed in or as a *time.Time into the row a
	// schema read it from, so neither form allocates — and, for any other
	// kind that arrived boxed, that box.
	a any
}

// dkind is the value class SQL semantics distinguish.
type dkind uint8

const (
	dNull  dkind = iota
	dInt         // the integer family compare coalesces: int, int32, int64, uint64
	dFloat       // float64, float32
	dString
	dBool
	dTime
	dOther // any other Go value, carried boxed
)

// width names the Go type behind a numeric datum.
type width uint8

const (
	wInt64 width = iota
	wInt
	wInt32
	wUint64
	wFloat64
	wFloat32
)

func intDatum(n int64) datum { return datum{k: dInt, n: n} }
func boolDatum(b bool) datum { return datum{k: dBool, n: b2i(b)} }
func floatDatum(f float64, w width) datum {
	return datum{k: dFloat, w: w, n: int64(math.Float64bits(f))}
}

// timeDatum wraps a time that outlives the datum where it is: a row's
// column, or the execution's LOCALTIMESTAMP.
func timeDatum(t *time.Time) datum { return datum{k: dTime, a: t} }

// f returns a dFloat's value.
func (d datum) f() float64 { return math.Float64frombits(uint64(d.n)) }

// time returns a dTime's value.
func (d datum) time() time.Time {
	if p, ok := d.a.(*time.Time); ok {
		return *p
	}
	t, _ := d.a.(time.Time)
	return t
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// fromAny classifies a boxed value. The datum keeps the box, so that box
// hands the same interface back instead of boxing the value again.
func fromAny(v any) datum {
	switch x := v.(type) {
	case nil:
		return datum{}
	case string:
		return datum{k: dString, s: x, a: v}
	case int64:
		return datum{k: dInt, n: x, a: v}
	case int:
		return datum{k: dInt, w: wInt, n: int64(x), a: v}
	case int32:
		return datum{k: dInt, w: wInt32, n: int64(x), a: v}
	case uint64:
		return datum{k: dInt, w: wUint64, n: int64(x), a: v}
	case float64:
		return datum{k: dFloat, w: wFloat64, n: int64(math.Float64bits(x)), a: v}
	case float32:
		return datum{k: dFloat, w: wFloat32, n: int64(math.Float64bits(float64(x))), a: v}
	case bool:
		return datum{k: dBool, n: b2i(x), a: v}
	case time.Time:
		return datum{k: dTime, a: v}
	}
	return datum{k: dOther, a: v}
}

// box returns the value as the Go type it was read from: the box it
// arrived in, when it arrived boxed.
func (d datum) box() any {
	switch d.k {
	case dNull:
		return nil
	case dTime:
		if p, ok := d.a.(*time.Time); ok {
			return *p
		}
		return d.a
	}
	if d.a != nil {
		return d.a
	}
	switch d.k {
	case dInt:
		switch d.w {
		case wInt:
			return int(d.n)
		case wInt32:
			return int32(d.n)
		case wUint64:
			return uint64(d.n)
		}
		return d.n
	case dFloat:
		if d.w == wFloat32 {
			return float32(d.f())
		}
		return d.f()
	case dString:
		return d.s
	case dBool:
		return d.n != 0
	}
	return nil
}

// float widens a numeric datum to float64, a uint64 through its unsigned
// value.
func (d datum) float() (float64, bool) {
	switch d.k {
	case dInt:
		if d.w == wUint64 {
			return float64(uint64(d.n)), true
		}
		return float64(d.n), true
	case dFloat:
		return d.f(), true
	}
	return 0, false
}

// truthy interprets the datum as a boolean; ok is false for NULL/non-bool.
func (d datum) truthy() (val, ok bool) { return d.n != 0, d.k == dBool }

// compareD orders two values: numerics by value, strings
// lexicographically, times chronologically, bools false<true. Comparing
// incompatible types is an error, matching strict SQL engines.
func compareD(a, b datum) (int, error) {
	switch a.k {
	case dTime:
		if b.k != dTime {
			return 0, fmt.Errorf("sql: cannot compare timestamp with %T", b.box())
		}
		return a.time().Compare(b.time()), nil
	case dString:
		if b.k != dString {
			return 0, fmt.Errorf("sql: cannot compare string with %T", b.box())
		}
		return strings.Compare(a.s, b.s), nil
	case dBool:
		if b.k != dBool {
			return 0, fmt.Errorf("sql: cannot compare bool with %T", b.box())
		}
		switch {
		case a.n == b.n:
			return 0, nil
		case b.n != 0:
			return -1, nil
		}
		return 1, nil
	}
	fa, aok := a.float()
	fb, bok := b.float()
	if aok && bok {
		switch {
		case fa < fb:
			return -1, nil
		case fa > fb:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("sql: cannot compare %T with %T", a.box(), b.box())
}

// orderD is compareD with integers compared exactly: two int64 stamps a
// few nanoseconds apart round to the same float64, and an aggregate's
// extreme must tell them apart.
func orderD(a, b datum) (int, error) {
	if a.k == dInt && b.k == dInt && (a.w == wUint64) == (b.w == wUint64) {
		if a.w == wUint64 {
			return cmp.Compare(uint64(a.n), uint64(b.n)), nil
		}
		return cmp.Compare(a.n, b.n), nil
	}
	return compareD(a, b)
}

// owned returns d detached from the row it was read from: a time read
// through a schema points into its row, and a value an accumulator keeps
// past the fold must not hold that row alive.
func (d datum) owned() datum {
	if p, ok := d.a.(*time.Time); ok {
		d.a = *p
	}
	return d
}

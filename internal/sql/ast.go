package sql

import (
	"fmt"
	"strings"
)

// Expr is a SQL expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Ident references a column, optionally qualified by a table name:
// orderState, or snapshot_orderinfo.ssid.
type Ident struct {
	Table string // empty when unqualified
	Name  string
}

func (Ident) exprNode() {}
func (e Ident) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// Lit is a literal: string, float64/int64 number, bool, or nil (NULL).
type Lit struct {
	Val any
}

func (Lit) exprNode() {}
func (e Lit) String() string {
	switch v := e.Val.(type) {
	case nil:
		return "NULL"
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// LocalTimestamp is the LOCALTIMESTAMP keyword, evaluated once per query.
type LocalTimestamp struct{}

func (LocalTimestamp) exprNode()      {}
func (LocalTimestamp) String() string { return "LOCALTIMESTAMP" }

// Binary is a binary operation. Op is one of
// = != < <= > >= + - * / % AND OR.
type Binary struct {
	Op   string
	L, R Expr
}

func (Binary) exprNode() {}
func (e Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// Unary is NOT <expr> or - <expr>.
type Unary struct {
	Op string // "NOT" or "-"
	E  Expr
}

func (Unary) exprNode() {}
func (e Unary) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.E.String() + ")"
	}
	return "(-" + e.E.String() + ")"
}

// IsNull is <expr> IS [NOT] NULL.
type IsNull struct {
	E   Expr
	Not bool
}

func (IsNull) exprNode() {}
func (e IsNull) String() string {
	if e.Not {
		return "(" + e.E.String() + " IS NOT NULL)"
	}
	return "(" + e.E.String() + " IS NULL)"
}

// InList is <expr> [NOT] IN (v1, v2, ...).
type InList struct {
	E    Expr
	List []Expr
	Not  bool
}

func (InList) exprNode() {}
func (e InList) String() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	op := "IN"
	if e.Not {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", e.E, op, strings.Join(parts, ", "))
}

// Between is <expr> BETWEEN lo AND hi.
type Between struct {
	E, Lo, Hi Expr
	Not       bool
}

func (Between) exprNode() {}
func (e Between) String() string {
	op := "BETWEEN"
	if e.Not {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("(%s %s %s AND %s)", e.E, op, e.Lo, e.Hi)
}

// Like is <expr> [NOT] LIKE 'pattern' with % and _ wildcards.
type Like struct {
	E       Expr
	Pattern string
	Not     bool
}

func (Like) exprNode() {}
func (e Like) String() string {
	op := "LIKE"
	if e.Not {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s '%s')", e.E, op, e.Pattern)
}

// Func is a scalar function call: ABS(x), UPPER(s), COALESCE(a, b), ...
type Func struct {
	Name string // upper-cased
	Args []Expr
}

func (Func) exprNode() {}
func (e Func) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// AggFunc names an aggregate function.
type AggFunc string

// Aggregate functions supported in SELECT lists.
const (
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// Agg is an aggregate call: COUNT(*), COUNT(expr), SUM(expr), ...
type Agg struct {
	Func     AggFunc
	Arg      Expr // nil for COUNT(*)
	Star     bool
	Distinct bool
	// slot, when non-zero, is 1 + the index of the accumulator a compiled
	// plan folds this call into (set by the planner's bind step, never by
	// the parser).
	slot int
}

func (Agg) exprNode() {}
func (e Agg) String() string {
	if e.Star {
		return string(e.Func) + "(*)"
	}
	if e.Distinct {
		return fmt.Sprintf("%s(DISTINCT %s)", e.Func, e.Arg)
	}
	return fmt.Sprintf("%s(%s)", e.Func, e.Arg)
}

// SelectItem is one entry of the SELECT list.
type SelectItem struct {
	Expr  Expr   // nil when Star
	Alias string // AS name, optional
	Star  bool   // SELECT *
}

func (s SelectItem) String() string {
	if s.Star {
		return "*"
	}
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// OutputName is the column name this item produces in the result set.
func (s SelectItem) OutputName() string {
	if s.Alias != "" {
		return s.Alias
	}
	if id, ok := s.Expr.(Ident); ok {
		return id.Name
	}
	return s.Expr.String()
}

// TableName is a FROM or JOIN table with an optional alias.
type TableName struct {
	Name  string
	Alias string
}

// Ref returns the name expressions should use to qualify columns of this
// table: the alias when present, the table name otherwise.
func (t TableName) Ref() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// Join is one JOIN clause. The dialect supports equi-joins via
// USING(col) — the paper's queries join on partitionKey — or ON a = b.
type Join struct {
	Table TableName
	Using string // USING(col); empty when ON is used
	OnL   Ident  // ON left = right
	OnR   Ident
	Left  bool // LEFT [OUTER] JOIN
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a parsed SELECT statement.
type Select struct {
	Items   []SelectItem
	From    TableName
	Joins   []Join
	Where   Expr // nil when absent
	GroupBy []Expr
	Having  Expr // nil when absent
	OrderBy []OrderItem
	Limit   int // -1 when absent
}

// HasAggregates reports whether any select item contains an aggregate.
func (s *Select) HasAggregates() bool {
	for _, it := range s.Items {
		if it.Star {
			continue
		}
		if containsAgg(it.Expr) {
			return true
		}
	}
	return false
}

func containsAgg(e Expr) bool {
	return containsExpr(e, func(x Expr) bool { _, ok := x.(Agg); return ok })
}

// readsNow reports whether an expression reads LOCALTIMESTAMP.
func readsNow(e Expr) bool {
	return containsExpr(e, func(x Expr) bool { _, ok := x.(LocalTimestamp); return ok })
}

// containsExpr reports whether any node of an expression matches.
func containsExpr(e Expr, match func(Expr) bool) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if !found && match(x) {
			found = true
		}
	})
	return found
}

// walkExpr visits every node of an expression, parents before children,
// operands left to right. nil visits nothing.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case Binary:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case Unary:
		walkExpr(x.E, fn)
	case IsNull:
		walkExpr(x.E, fn)
	case Between:
		walkExpr(x.E, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case InList:
		walkExpr(x.E, fn)
		for _, v := range x.List {
			walkExpr(v, fn)
		}
	case Like:
		walkExpr(x.E, fn)
	case Func:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case Agg:
		walkExpr(x.Arg, fn)
	}
}

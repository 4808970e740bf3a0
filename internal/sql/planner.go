package sql

import (
	"fmt"
	"strings"
	"time"

	"squery/internal/core"
	"squery/internal/sql/plan"
)

// physPlan is the compiled form of one SELECT. It is two things: a
// partition fragment — what runs where a partition lives: the access path,
// the bound filter, the join probe, and either the projected select list or
// per-group partial accumulators (fragment.go) — and a client merge that
// concatenates, sorts and limits rows or merges partials and finishes
// groups. The plan.Node tree describes both; execution runs the plan,
// EXPLAIN renders the tree, EXPLAIN ANALYZE renders the very instance an
// execution ran — one derivation, three consumers.
type physPlan struct {
	stmt *Select
	srcs []tableSrc
	// pushed holds, per source, the AND of the WHERE conjuncts that run
	// against that source's rows alone, before any join (nil = nothing
	// pushed).
	pushed []Expr
	// residual is what remains of WHERE: the conjuncts that need the
	// joined row. It runs after the joins — still inside the fragment.
	residual Expr

	// The expressions execution evaluates: the statement's, with every
	// column reference bound (bind.go). items is aligned with stmt.Items,
	// nil for a star; aggs holds the aggregate calls in slot order.
	pushedB   []Expr
	residualB Expr
	items     []Expr
	groupBy   []Expr
	having    Expr
	orderBy   []Expr
	aggs      []Agg
	// joins holds one step per stmt.Joins entry, the keys bound.
	joins []joinStep
	// star expands SELECT * from the first row the query produces.
	star starExpansion

	// coPart: the one join is USING(partitionKey), so the fragment probes
	// the other table's same partition by key. drive is the source whose
	// partitions the fragment reads — 0, or 1 when a co-partitioned join
	// is driven from its right side.
	coPart   bool
	drive    int
	driveEst int64
	// clientSide: the DisablePushdown reference. Every source ships whole
	// to the client, which filters, joins and folds there.
	clientSide bool

	root   plan.Node
	scans  []*plan.Scan
	filter *plan.Filter
	// join is the topmost join node (nil for single-table queries).
	join plan.Node
	// hjoins holds the HashJoin nodes in join order (general joins only).
	hjoins []*plan.HashJoin
	agg    *plan.Aggregate
	proj   *plan.Project
	// earlyStop: filling LIMIT cancels all in-flight scans.
	earlyStop bool

	// Execution summary, filled by execTraced for the analyze footer.
	total    time.Duration
	degraded int
	returned int
	// Resource accounting, filled by execTraced: estimated bytes shipped
	// across the client hop. The client holds all of it until the merge is
	// done, so it is also the execution's peak memory estimate.
	bytesShipped int64
}

// joinStep is one equi-join of the plan: the key expression over the
// sources to its left and the key column of the source it joins in.
type joinStep struct {
	left  Expr
	right *colRef
	outer bool
}

// render renders the plan tree (shared by EXPLAIN and EXPLAIN ANALYZE).
func (pp *physPlan) render(nodes int, analyzed bool) string {
	parts := 0
	if len(pp.srcs) > 0 {
		parts = pp.srcs[0].ref.Partitions()
	}
	return plan.Render(pp.root, plan.RenderOpts{
		ClusterNodes: nodes,
		Partitions:   parts,
		Analyzed:     analyzed,
		Total:        pp.total,
		Returned:     pp.returned,
		Degraded:     pp.degraded,
	})
}

// unknownSelectivity is the share of its candidate rows a pushed filter is
// assumed to keep when no index measured it — the classic one-third of a
// predicate nothing is known about. It only ranks the two sides of a
// co-partitioned join against each other.
const unknownSelectivity = 3

// compile lowers a parsed SELECT into a physPlan: resolve tables, strip
// ssid pins, derive partition pruning hints, resolve snapshot ids, ask
// each table for its rows' schema, split the WHERE clause into pushed and
// residual parts by attributing every column to a source, choose access
// paths and the join's driving side, bind the expressions, and build the
// plan tree. With planOnly (EXPLAIN) an unresolvable snapshot id is
// reported on the scan node instead of failing the whole plan.
func (ex *Executor) compile(stmt *Select, opts ExecOpts, planOnly bool) (*physPlan, error) {
	pp := &physPlan{stmt: stmt, clientSide: opts.DisablePushdown}

	pp.srcs = make([]tableSrc, 0, 1+len(stmt.Joins))
	addSrc := func(t TableName) error {
		ref, err := ex.cat.Table(t.Name)
		if err != nil {
			return err
		}
		pp.srcs = append(pp.srcs, tableSrc{ref: ref, name: t.Name, alias: t.Ref(), partHint: -1})
		return nil
	}
	if err := addSrc(stmt.From); err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		if err := addSrc(j.Table); err != nil {
			return nil, err
		}
	}
	aggregated := stmt.HasAggregates() || len(stmt.GroupBy) > 0
	if aggregated {
		for _, it := range stmt.Items {
			if it.Star {
				return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
			}
		}
	}

	where, pins, err := extractPins(stmt.Where)
	if err != nil {
		return nil, err
	}
	applyKeyHints(stmt, pp.srcs, where)
	// A co-partitioned join probes keyed storage; a provider-backed table
	// has none and joins through the general path.
	pp.coPart = !pp.clientSide && len(pp.srcs) == 2 && len(stmt.Joins) == 1 &&
		stmt.Joins[0].Using == core.ColPartitionKey && !stmt.Joins[0].Left &&
		!pp.srcs[0].ref.IsVirtual() && !pp.srcs[1].ref.IsVirtual()

	// One Scan leaf per source, snapshot ids resolved atomically now
	// (§VI.A): concurrent checkpoints never tear a result set.
	pp.scans = make([]*plan.Scan, len(pp.srcs))
	for i := range pp.srcs {
		s := &pp.srcs[i]
		sc := &plan.Scan{
			Table:        s.name,
			ClusterNodes: ex.clusterNodes(),
			Partitions:   s.ref.Partitions(),
			PartHint:     -1,
		}
		switch {
		case s.ref.IsVirtual():
			sc.Mode = plan.Virtual
		case s.ref.IsSnapshot():
			sc.Mode = plan.Snapshot
		default:
			sc.Mode = plan.Live
		}
		pinned := pins.forTable(s.alias, s.name)
		sc.Pinned = pinned != 0
		ssid, err := s.ref.ResolveSSID(pinned)
		if err != nil {
			if !planOnly {
				return nil, err
			}
			sc.Unresolved = err.Error()
		}
		s.ssid = ssid
		sc.SSID = ssid
		if s.partHint >= 0 && !s.ref.IsVirtual() {
			sc.PartHint = s.partHint
			sc.PrunedParts = int64(s.ref.Partitions() - 1)
		}
		// One sample per source, over what the scan will visit — the pruned
		// partition alone when the plan pruned to one. Its cardinality rides
		// on every non-virtual scan, so EXPLAIN shows what the chosen path
		// was weighed against even when no index wins (chooseAccessPath
		// overrides EstRows with the winner's selectivity); its rows' schema
		// is what lets references bind to ordinals. The reference mode keeps
		// every source on the by-name accessor.
		if est, schema, ok := s.ref.Sample(s.partHint); ok {
			sc.EstRows, sc.EstValid = est, true
			if !pp.clientSide {
				s.schema = schema
			}
		}
		s.scan = sc
		pp.scans[i] = sc
	}

	// Pushdown: attribute every conjunct to the one source it reads, and
	// give the gathered sources the column set the rest of the query can
	// touch.
	pp.pushed = make([]Expr, len(pp.srcs))
	pp.residual = where
	if !pp.clientSide {
		pp.residual = pp.splitPushdown(where)
		for i, e := range pp.pushed {
			if e != nil {
				pp.scans[i].Filter = e.String()
			}
		}
		// Access paths run over the key pin and the pushed conjuncts only:
		// a conjunct that could not be pushed cannot bound a scan either.
		if !opts.DisableIndexes {
			for i := range pp.srcs {
				pp.chooseAccessPath(i)
			}
		}
	}
	switch {
	case pp.coPart:
		pp.chooseDrivingSide()
	case pp.clientSide:
		for _, sc := range pp.scans {
			sc.Gathered = true
		}
	default:
		// The build sides of a general join ship to the client narrowed to
		// what the rest of the query can touch.
		cols := pp.neededColumns()
		for i := 1; i < len(pp.srcs); i++ {
			pp.srcs[i].cols = cols
			pp.scans[i].Cols = cols
			pp.scans[i].Gathered = true
		}
	}
	if err := pp.bindAll(); err != nil {
		return nil, err
	}

	// Assemble the tree bottom-up: scans → joins → filter →
	// aggregate/project → sort → limit.
	var node plan.Node
	switch {
	case len(pp.srcs) == 1:
		node = pp.scans[0]
	case pp.coPart:
		probe := pp.scans[1-pp.drive]
		probe.Probe = true
		cj := &plan.CoJoin{Drive: pp.scans[pp.drive], Probe: probe, DriveEst: pp.driveEst}
		node, pp.join = cj, cj
	default:
		node = pp.scans[0]
		for ji, j := range stmt.Joins {
			hj := &plan.HashJoin{Left: node, Right: pp.scans[ji+1], Cond: joinCond(j), LeftOuter: j.Left, AtClient: pp.clientSide}
			pp.hjoins = append(pp.hjoins, hj)
			node = hj
		}
		pp.join = node
	}
	if pp.residual != nil {
		pp.filter = &plan.Filter{Input: node, Pred: pp.residual.String(), AtClient: pp.clientSide}
		node = pp.filter
	}
	if aggregated {
		groups := make([]string, len(stmt.GroupBy))
		for i, g := range stmt.GroupBy {
			groups[i] = g.String()
		}
		pp.agg = &plan.Aggregate{Input: node, GroupBy: groups, AtClient: pp.clientSide}
		if stmt.Having != nil {
			pp.agg.Having = stmt.Having.String()
		}
		node = pp.agg
	} else {
		items := make([]string, len(stmt.Items))
		for i, it := range stmt.Items {
			items[i] = it.String()
		}
		pp.proj = &plan.Project{Input: node, Items: items, AtClient: pp.clientSide}
		node = pp.proj
	}
	if len(stmt.OrderBy) > 0 {
		keys := make([]string, len(stmt.OrderBy))
		for i, oi := range stmt.OrderBy {
			dir := "ASC"
			if oi.Desc {
				dir = "DESC"
			}
			keys[i] = oi.Expr.String() + " " + dir
		}
		node = &plan.Sort{Input: node, Keys: keys}
	}
	if stmt.Limit >= 0 {
		pp.earlyStop = !aggregated && len(stmt.OrderBy) == 0 && !pp.clientSide
		node = &plan.Limit{Input: node, N: stmt.Limit, EarlyStop: pp.earlyStop}
	}
	pp.root = node
	return pp, nil
}

// bindAll binds every expression the plan evaluates. The WHERE parts bind
// first and their aggregate slots are dropped: an aggregate there is an
// error the evaluator reports, never a fold.
func (pp *physPlan) bindAll() error {
	stmt := pp.stmt
	pp.pushedB = make([]Expr, len(pp.pushed))
	for i, e := range pp.pushed {
		pp.pushedB[i] = pp.bind(e)
	}
	pp.residualB = pp.bind(pp.residual)
	pp.aggs = nil
	pp.items = make([]Expr, len(stmt.Items))
	for i, it := range stmt.Items {
		if it.Star {
			pp.star.wanted = true
			continue
		}
		pp.items[i] = pp.bind(it.Expr)
	}
	pp.groupBy = make([]Expr, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		pp.groupBy[i] = pp.bind(g)
	}
	pp.having = pp.bind(stmt.Having)
	pp.orderBy = make([]Expr, len(stmt.OrderBy))
	for i, oi := range stmt.OrderBy {
		pp.orderBy[i] = pp.bind(oi.Expr)
	}
	pp.joins = make([]joinStep, len(stmt.Joins))
	for ji, j := range stmt.Joins {
		si := ji + 1
		left, right, err := joinKeys(j, pp.srcs, si)
		if err != nil {
			return err
		}
		pp.joins[ji] = joinStep{
			left:  bindLeftKey(pp.srcs[:si], left),
			right: bindTo(pp.srcs, si, right),
			outer: j.Left,
		}
	}
	return nil
}

// bindLeftKey binds the left-hand key of a join over the sources to its
// left: the source a qualifier names, else the first source that has the
// column. A source with no schema leaves it to run-time resolution.
func bindLeftKey(left []tableSrc, id Ident) Expr {
	if id.Table != "" {
		if si := sourceOf(left, id.Table); si >= 0 {
			return bindIdent(left, id)
		}
		id.Table = ""
	}
	if id.Name == core.ColPartitionKey || id.Name == core.ColSSID || len(left) == 1 {
		return bindTo(left, 0, id)
	}
	for i := range left {
		if left[i].schema == nil {
			break
		}
		if _, ok := left[i].schema.FieldIndex(id.Name); ok {
			return bindTo(left, i, id)
		}
	}
	return &colRef{id: id, src: -1, ord: ordName}
}

// chooseDrivingSide picks which side of a co-partitioned join the fragment
// scans: the one with the smaller post-filter estimate, so the fewer rows
// pay the probe. Ties drive from the left.
func (pp *physPlan) chooseDrivingSide() {
	est := func(i int) int64 {
		n := pp.scans[i].EstRows
		if pp.pushed[i] != nil && pp.srcs[i].path == nil {
			n /= unknownSelectivity
		}
		return n
	}
	l, r := est(0), est(1)
	if r < l {
		pp.drive = 1
	}
	pp.driveEst = min(l, r)
}

// joinCond pre-renders a join condition for the plan tree.
func joinCond(j Join) string {
	if j.Using != "" {
		return "USING(" + j.Using + ")"
	}
	return fmt.Sprintf("ON %s = %s", j.OnL, j.OnR)
}

// splitPushdown walks the WHERE clause's AND-conjuncts, moving every
// conjunct that provably references exactly one source into that
// source's pushed predicate, and returns the residual. Pushing is an
// optimisation with one soundness rule baked into pushTarget: the right
// side of a LEFT JOIN is never pre-filtered (that would turn matching
// rows into NULL-extended misses).
func (pp *physPlan) splitPushdown(where Expr) Expr {
	if where == nil {
		return nil
	}
	andTo := func(dst, e Expr) Expr {
		if dst == nil {
			return e
		}
		return Binary{Op: "AND", L: dst, R: e}
	}
	var residual Expr
	var walk func(e Expr)
	walk = func(e Expr) {
		if b, ok := e.(Binary); ok && b.Op == "AND" {
			walk(b.L)
			walk(b.R)
			return
		}
		if si, ok := pp.pushTarget(e); ok {
			pp.pushed[si] = andTo(pp.pushed[si], e)
			return
		}
		residual = andTo(residual, e)
	}
	walk(where)
	return residual
}

// pushTarget decides whether one conjunct may run against a single
// source's rows, before any join, and which source. Single-source queries
// push every non-aggregate conjunct. Multi-source queries push a conjunct
// only when every identifier in it is attributed (bind.go: by qualifier,
// or as the one source whose schema has the column) to the same source —
// and that source is not the right side of a LEFT JOIN.
func (pp *physPlan) pushTarget(e Expr) (int, bool) {
	if containsAgg(e) {
		// Aggregates in WHERE are an error; leave it for the residual
		// evaluation to report as such.
		return 0, false
	}
	if len(pp.srcs) == 1 {
		return 0, true
	}
	target := -1
	attributable := true
	walkIdents(e, func(id Ident) {
		if !attributable {
			return
		}
		found, ok := attribute(pp.srcs, id)
		if !ok || (target >= 0 && target != found) {
			attributable = false
			return
		}
		target = found
	})
	if !attributable || target < 0 {
		return 0, false
	}
	if target > 0 && pp.stmt.Joins[target-1].Left {
		return 0, false
	}
	return target, true
}

// chooseAccessPath picks source si's access path from its pushed
// predicate: walk the AND-conjuncts for sargable atoms (`col = lit` →
// equality probe; `col < | <= | > | >= lit` and `col BETWEEN lo AND hi` →
// merged range), ask the catalog what each candidate would cost, and take
// the cheapest path that beats the full scan. The choice is purely an
// optimisation: the pushed filter still evaluates against every candidate
// row, index probes return supersets (type coercion, strict bounds), and
// an unserveable path silently degrades to the full scan at the kv layer.
func (pp *physPlan) chooseAccessPath(si int) {
	s := &pp.srcs[si]
	if s.ref.IsVirtual() {
		return
	}
	// A pinned key beats any index: the partition's own key map serves it.
	if s.partHint >= 0 {
		s.path = &core.AccessPath{Kind: core.KeyLookup, Column: core.ColPartitionKey, Eq: s.keyPin}
		s.scan.Access = s.path.String()
		s.scan.EstRows = 1
		return
	}
	pushed := pp.pushed[si]
	if pushed == nil {
		return
	}
	type rng struct{ lo, hi any }
	ranges := map[string]*rng{}
	var cands []*core.AccessPath
	bound := func(col string, v any, isLo bool) {
		r := ranges[col]
		if r == nil {
			r = &rng{}
			ranges[col] = r
		}
		// Tighten when the new bound is comparably stricter; keep the old
		// one otherwise — either bound alone yields a candidate superset,
		// the filter settles the intersection.
		if isLo {
			if r.lo == nil {
				r.lo = v
			} else if c, err := compare(v, r.lo); err == nil && c > 0 {
				r.lo = v
			}
		} else {
			if r.hi == nil {
				r.hi = v
			} else if c, err := compare(v, r.hi); err == nil && c < 0 {
				r.hi = v
			}
		}
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Binary:
			if x.Op == "AND" {
				walk(x.L)
				walk(x.R)
				return
			}
			col, v, flipped, ok := sargableAtom(x)
			if !ok {
				return
			}
			op := x.Op
			if flipped {
				op = flipCmp(op)
			}
			switch op {
			case "=":
				cands = append(cands, &core.AccessPath{Kind: core.IndexEq, Column: col, Eq: v})
			case "<", "<=":
				bound(col, v, false)
			case ">", ">=":
				bound(col, v, true)
			}
		case Between:
			if x.Not {
				return
			}
			id, okI := x.E.(Ident)
			lo, okL := litScalar(x.Lo)
			hi, okH := litScalar(x.Hi)
			if okI && okL && okH && indexableCol(id) {
				bound(id.Name, lo, true)
				bound(id.Name, hi, false)
			}
		}
	}
	walk(pushed)
	for col, r := range ranges {
		if r.lo != nil || r.hi != nil {
			cands = append(cands, &core.AccessPath{Kind: core.IndexRange, Column: col, Lo: r.lo, Hi: r.hi})
		}
	}
	best, bestEst := (*core.AccessPath)(nil), s.scan.EstRows
	for _, c := range cands {
		if est, ok := s.ref.EstimatePathIn(s.partHint, c); ok && est < bestEst {
			best, bestEst = c, est
		}
	}
	if best != nil {
		s.path = best
		s.scan.Access = best.String()
		s.scan.EstRows = bestEst
	}
}

// sargableAtom decomposes `col op lit` / `lit op col` comparisons; flipped
// reports the literal was on the left (the caller mirrors the operator).
func sargableAtom(b Binary) (col string, v any, flipped, ok bool) {
	switch b.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return "", nil, false, false
	}
	if id, isID := b.L.(Ident); isID && indexableCol(id) {
		if v, okV := litScalar(b.R); okV {
			return id.Name, v, false, true
		}
	}
	if id, isID := b.R.(Ident); isID && indexableCol(id) {
		if v, okV := litScalar(b.L); okV {
			return id.Name, v, true, true
		}
	}
	return "", nil, false, false
}

// flipCmp mirrors a comparison operator for a literal-on-the-left atom.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// indexableCol rejects the pseudo-columns (partition pruning and snapshot
// pinning already serve those; no index ever exists on them).
func indexableCol(id Ident) bool {
	return !strings.EqualFold(id.Name, core.ColPartitionKey) && !strings.EqualFold(id.Name, core.ColSSID)
}

// litScalar unwraps a non-NULL literal operand.
func litScalar(e Expr) (any, bool) {
	l, ok := e.(Lit)
	if !ok || l.Val == nil {
		return nil, false
	}
	return l.Val, true
}

// neededColumns computes the union of column names anything downstream of
// a gathered source's scan can touch: select items, the residual filter,
// grouping, having, order keys and join keys. Pushed predicates are
// excluded — they run against the whole row on the owning node. Returns
// nil (ship everything) when the select list has a star.
func (pp *physPlan) neededColumns() []string {
	stmt := pp.stmt
	for _, it := range stmt.Items {
		if it.Star {
			return nil
		}
	}
	seen := map[string]bool{}
	cols := []string{}
	add := func(id Ident) {
		if !seen[id.Name] {
			seen[id.Name] = true
			cols = append(cols, id.Name)
		}
	}
	for _, it := range stmt.Items {
		walkIdents(it.Expr, add)
	}
	if pp.residual != nil {
		walkIdents(pp.residual, add)
	}
	for _, g := range stmt.GroupBy {
		walkIdents(g, add)
	}
	if stmt.Having != nil {
		walkIdents(stmt.Having, add)
	}
	for _, oi := range stmt.OrderBy {
		walkIdents(oi.Expr, add)
	}
	for _, j := range stmt.Joins {
		if j.Using != "" {
			add(Ident{Name: j.Using})
		} else {
			add(Ident{Name: j.OnL.Name})
			add(Ident{Name: j.OnR.Name})
		}
	}
	return cols
}

// walkIdents visits every identifier in an expression.
func walkIdents(e Expr, fn func(Ident)) {
	switch x := e.(type) {
	case Ident:
		fn(x)
	case Binary:
		walkIdents(x.L, fn)
		walkIdents(x.R, fn)
	case Unary:
		walkIdents(x.E, fn)
	case IsNull:
		walkIdents(x.E, fn)
	case Between:
		walkIdents(x.E, fn)
		walkIdents(x.Lo, fn)
		walkIdents(x.Hi, fn)
	case InList:
		walkIdents(x.E, fn)
		for _, v := range x.List {
			walkIdents(v, fn)
		}
	case Like:
		walkIdents(x.E, fn)
	case Func:
		for _, a := range x.Args {
			walkIdents(a, fn)
		}
	case Agg:
		if x.Arg != nil {
			walkIdents(x.Arg, fn)
		}
	}
}

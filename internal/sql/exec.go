package sql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"squery/internal/core"
	"squery/internal/metrics"
	"squery/internal/sql/plan"
	"squery/internal/trace"
	"squery/internal/wire"
)

// Executor runs SELECT statements against the state tables of a catalog.
// It is safe for concurrent use; every query resolves its snapshot id
// atomically at start (§VI.A), so concurrent checkpoints never tear a
// result set.
//
// Execution is two-phase: compile lowers the parsed statement into a
// physPlan (planner.go) — column binding, pushdown decisions, pruning, the
// plan.Node tree — and run (fragment.go) executes that plan as partition
// fragments on the owning nodes plus a client merge. EXPLAIN renders the
// same compiled plan; EXPLAIN ANALYZE renders the exact plan instance an
// execution ran.
type Executor struct {
	cat *core.Catalog
	// nodes is the scatter-gather fan-out: the cluster's node count. It
	// is atomic because elastic membership can grow the cluster while
	// queries run (see SetClusterNodes).
	nodes  atomic.Int32
	m      execInstruments
	tracer *trace.Tracer
	// arr is the shared arrangement registry standing queries attach to;
	// nil means SUBSCRIBE is disabled (see SetArrangements).
	arr *core.ArrangeRegistry
}

// clusterNodes returns the current scatter-gather fan-out.
func (ex *Executor) clusterNodes() int { return int(ex.nodes.Load()) }

// SetClusterNodes updates the scatter-gather fan-out after the cluster
// changes size (a joined node owns partitions that scans must now visit).
// Safe against concurrent queries: an execution reads the count once.
func (ex *Executor) SetClusterNodes(n int) {
	if n < 1 {
		n = 1
	}
	ex.nodes.Store(int32(n))
}

// execInstruments holds the executor's resolved registry instruments. The
// zero value (nil fields) is fully functional: every instrument method is
// a no-op on nil, so an executor without SetMetrics pays nothing.
type execInstruments struct {
	reg          *metrics.Registry
	queries      *metrics.Counter
	errors       *metrics.Counter
	rowsScanned  *metrics.Counter
	rowsShipped  *metrics.Counter
	rowsReturned *metrics.Counter
	partsScanned *metrics.Counter
	partsPruned  *metrics.Counter
	indexScans   *metrics.Counter
	degraded     *metrics.Counter
	bytesShipped *metrics.Counter
	latency      *metrics.Histogram
	log          *metrics.EventLog
	// Slow-query accounting: executions whose wall time reaches
	// slowThreshold are counted and mirrored into the bounded slowLog
	// (sys.slow_queries). slowThreshold <= 0 disables the mirror.
	slowQueries   *metrics.Counter
	slowLog       *metrics.EventLog
	slowThreshold time.Duration
	// planRows/planWall aggregate per-stage rows and wall time by plan
	// node kind under ("sql", "plan"), fed from each query's plan tree.
	planRows map[string]*metrics.Counter
	planWall map[string]*metrics.Counter
	// part caches the ("sql", "p<N>") scan instruments by partition index
	// so the per-scan hot path never touches the registry's lock.
	part []partScanIns
}

// partScanIns holds one partition's pre-resolved scan instruments.
type partScanIns struct {
	scans *metrics.Counter
	rows  *metrics.Counter
	scan  *metrics.Histogram
}

// SetMetrics wires the executor into a metrics registry: query-level
// counters and latency under ("sql", "exec"), per-plan-stage totals under
// ("sql", "plan"), per-partition scan stats under ("sql", "p<N>"), and
// the "queries" event log behind sys.queries. rows_scanned counts rows
// read on the owning nodes (scanned, or found by a join's key lookup);
// rows_shipped counts what crossed the client hop — projected rows,
// partial groups, or a gathered source's rows. Call before serving
// queries; a nil registry leaves metrics disabled. Log bounds and the
// slow-query threshold take the MetricsLimits defaults — use
// SetMetricsLimits to configure them.
func (ex *Executor) SetMetrics(reg *metrics.Registry) {
	ex.setMetrics(reg, MetricsLimits{}.WithDefaults())
}

func (ex *Executor) setMetrics(reg *metrics.Registry, lim MetricsLimits) {
	ex.m = execInstruments{
		reg:          reg,
		queries:      reg.Counter("sql", "exec", "queries"),
		errors:       reg.Counter("sql", "exec", "errors"),
		rowsScanned:  reg.Counter("sql", "exec", "rows_scanned"),
		rowsShipped:  reg.Counter("sql", "exec", "rows_shipped"),
		rowsReturned: reg.Counter("sql", "exec", "rows_returned"),
		partsScanned: reg.Counter("sql", "exec", "partitions_scanned"),
		partsPruned:  reg.Counter("sql", "exec", "partitions_pruned"),
		indexScans:   reg.Counter("sql", "exec", "index_scans"),
		degraded:     reg.Counter("sql", "exec", "degraded_partitions"),
		bytesShipped: reg.Counter("sql", "exec", "bytes_shipped"),
		latency:      reg.Histogram("sql", "exec", "latency"),
		log:          reg.Log("queries", lim.QueryLogCapacity),

		slowQueries:   reg.Counter("sql", "exec", "slow_queries"),
		slowLog:       reg.Log("slow_queries", lim.SlowQueryLogCapacity),
		slowThreshold: lim.SlowQueryThreshold,
	}
	if reg != nil {
		ex.m.planRows = make(map[string]*metrics.Counter, len(plan.Kinds))
		ex.m.planWall = make(map[string]*metrics.Counter, len(plan.Kinds))
		for _, k := range plan.Kinds {
			ex.m.planRows[k] = reg.Counter("sql", "plan", k+"_rows")
			ex.m.planWall[k] = reg.Counter("sql", "plan", k+"_wall_ns")
		}
		part := make([]partScanIns, ex.cat.Partitions())
		for p := range part {
			id := "p" + strconv.Itoa(p)
			part[p] = partScanIns{
				scans: reg.Counter("sql", id, "scans"),
				rows:  reg.Counter("sql", id, "rows"),
				scan:  reg.Histogram("sql", id, "scan"),
			}
		}
		ex.m.part = part
	}
}

// SetTracer wires the executor into a span tracer: every execution gets a
// "query" root span with one child per plan stage (wall time and row count
// from the stage's own statistics), and the sys.queries event carries the
// trace id so the two system tables join. Nil disables query tracing.
func (ex *Executor) SetTracer(tr *trace.Tracer) { ex.tracer = tr }

// NewExecutor creates an executor over the catalog, fanning scans out
// over the given number of nodes (pass the cluster's node count).
func NewExecutor(cat *core.Catalog, nodes int) *Executor {
	ex := &Executor{cat: cat}
	ex.SetClusterNodes(nodes)
	return ex
}

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]any
	// Degraded is non-empty when PolicyFallback served some partitions
	// from a committed snapshot's backup replica instead of the requested
	// table: the result mixes live and snapshot rows, i.e. its isolation
	// was downgraded. Empty for healthy or unguarded executions.
	Degraded []Degradation
}

// IsDegraded reports whether any partition of the result was served from
// a fallback snapshot replica (downgraded isolation).
func (r *Result) IsDegraded() bool { return len(r.Degraded) > 0 }

// ColumnIndex returns the index of the named output column, or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// String renders the result as an aligned text table (for the CLI and
// examples).
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	cells := make([][]string, len(r.Rows))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := fmt.Sprintf("%v", v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// tableSrc is one resolved table participating in a query.
type tableSrc struct {
	ref   *core.TableRef
	name  string // name as written
	alias string // qualifier used in expressions
	ssid  int64  // resolved snapshot id (0 for live)
	// partHint, when >= 0, is the only partition that can hold rows
	// satisfying the query's `partitionKey = <literal>` predicate; every
	// other partition is pruned from the scan.
	partHint int
	// keyPin is the partitionKey literal behind partHint.
	keyPin any
	// path is the planner-chosen access path (nil = full scan). It is an
	// optimisation hint carried into every partition ScanSpec; the pushed
	// filter remains the truth, so an unserveable path silently full-scans.
	path *core.AccessPath
	// schema is the table's row schema when it reported one: references to
	// this source bind to field ordinals. nil keeps the by-name accessor.
	schema *wire.Schema
	// cols is the column set a gathered source ships to the client (nil =
	// all columns).
	cols []string
	// scan is this source's leaf in the plan tree; its Stats accumulate
	// the scan counters (shared across the scan goroutines).
	scan *plan.Scan
}

// Query parses and executes a SELECT statement. EXPLAIN <select> returns
// the plan without executing; EXPLAIN ANALYZE <select> executes and
// returns the plan annotated with per-stage wall time, row counts and
// partitions pruned. Both render as a single-column "plan" result.
func (ex *Executor) Query(query string) (*Result, error) {
	return ex.QueryWithOptions(query, ExecOpts{})
}

// QueryWithOptions parses and executes a SELECT statement under the given
// fault-handling options. EXPLAIN / EXPLAIN ANALYZE prefixes are routed to
// the planner (see Query).
func (ex *Executor) QueryWithOptions(query string, opts ExecOpts) (*Result, error) {
	switch mode, rest := splitExplain(query); mode {
	case explainPlanOnly:
		text, err := ex.Explain(rest)
		if err != nil {
			return nil, err
		}
		return planResult(text), nil
	case explainAnalyze:
		return ex.explainAnalyze(rest, opts)
	}
	if ok, _ := splitSubscribe(query); ok {
		return nil, fmt.Errorf("sql: SUBSCRIBE is a standing query — issue it through Engine.Subscribe (REPL: SUBSCRIBE ..., HTTP: /subscribe)")
	}
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	res, _, err := ex.execTraced(stmt, opts, query)
	return res, err
}

// Exec executes a parsed SELECT statement unguarded (PolicyNone).
func (ex *Executor) Exec(stmt *Select) (*Result, error) {
	return ex.ExecWithOptions(stmt, ExecOpts{})
}

// ExecWithOptions executes a parsed SELECT statement under the given
// fault-handling options.
func (ex *Executor) ExecWithOptions(stmt *Select, opts ExecOpts) (*Result, error) {
	res, _, err := ex.execTraced(stmt, opts, "")
	return res, err
}

// execTraced is the execution core: compile the statement to a physPlan,
// run it through the streaming pipeline, and return the result together
// with the plan instance EXPLAIN ANALYZE renders. query is the original
// text for the sys.queries event log ("" for pre-parsed statements).
func (ex *Executor) execTraced(stmt *Select, opts ExecOpts, query string) (*Result, *physPlan, error) {
	if opts.Policy != PolicyNone {
		opts = opts.withDefaults()
	}
	stmt = resolveOrderByAliases(stmt)
	// Query traces bypass head sampling (queries are rare next to
	// records); the root span links sys.queries to sys.spans.
	qsp := ex.tracer.StartTrace("query", trace.KindQuery)
	sw := metrics.StartStopwatch()
	pp, err := ex.compile(stmt, opts, false)
	if err != nil {
		ex.finishQuery(query, nil, sw.Elapsed(), err, qsp)
		return nil, nil, err
	}
	rc := newRunCtx(opts)
	res, err := ex.run(pp, rc)
	pp.total = sw.Elapsed()
	pp.degraded = len(rc.deg.list)
	pp.bytesShipped = rc.shippedBytes.Load()
	if err == nil {
		pp.returned = len(res.Rows)
	}
	ex.finishQuery(query, pp, pp.total, err, qsp)
	if err != nil {
		return nil, pp, err
	}
	res.Degraded = rc.deg.list
	return res, pp, nil
}

// finishQuery records the query-level registry metrics, the sys.queries
// event, and the query trace (root + one child span per plan stage) for
// one execution. pp is nil when compilation failed; qsp is nil when
// tracing is off.
func (ex *Executor) finishQuery(query string, pp *physPlan, total time.Duration, err error, qsp *trace.Span) {
	ex.m.queries.Inc()
	ex.m.latency.Record(total)
	var scanned, pruned, indexed, examined, shipped, returned, degraded int64
	var bytes, peakMem int64
	var stages string
	if pp != nil {
		bytes, peakMem = pp.bytesShipped, pp.bytesShipped
		stages = stageWallSummary(pp.root)
		for _, sc := range pp.scans {
			st := sc.Stat()
			scanned += st.Parts.Load()
			if !sc.Probe {
				pruned += sc.PrunedParts
			}
			if sc.Access != "" {
				indexed += st.Parts.Load()
			}
			examined += st.Examined.Load()
		}
		returned = int64(pp.returned)
		degraded = int64(pp.degraded)
		plan.Walk(pp.root, func(n plan.Node) {
			st := n.Stat()
			shipped += st.Shipped.Load()
			if ex.m.planRows != nil {
				ex.m.planRows[n.Kind()].Add(st.Rows.Load())
				ex.m.planWall[n.Kind()].Add(st.WallNs.Load())
			}
		})
	}
	ex.m.partsScanned.Add(scanned)
	ex.m.partsPruned.Add(pruned)
	ex.m.indexScans.Add(indexed)
	ex.m.rowsScanned.Add(examined)
	ex.m.rowsShipped.Add(shipped)
	ex.m.bytesShipped.Add(bytes)
	ex.m.degraded.Add(degraded)
	if err != nil {
		ex.m.errors.Inc()
	} else {
		ex.m.rowsReturned.Add(returned)
	}
	if len(query) > 200 {
		query = query[:200] + "…"
	}
	if qsp != nil {
		// Per-stage child spans, synthesized from the plan tree the
		// execution just ran. The nodes' fragments overlap in wall time,
		// so each child starts at the root and Dur is the stage's own
		// accumulated wall clock.
		ctx := qsp.Context()
		if pp != nil {
			plan.Walk(pp.root, func(n plan.Node) {
				st := n.Stat()
				name := n.Kind()
				note := fmt.Sprintf("rows=%d", st.Rows.Load())
				if sc, ok := n.(*plan.Scan); ok {
					name = "scan:" + sc.Table
					if sc.Access != "" {
						note += " access=" + sc.Access
					}
				}
				ex.tracer.Emit(trace.SpanData{
					TraceID: ctx.TraceID, SpanID: ex.tracer.NewID(),
					ParentID: ctx.SpanID,
					Name:     name, Kind: trace.KindQuery,
					Vertex: name, Instance: -1, SSID: scanSSID(n),
					Start: time.Now().Add(-time.Duration(st.WallNs.Load())),
					Dur:   time.Duration(st.WallNs.Load()),
					Note:  note,
				})
			})
		}
		qsp.SetNote(query)
		if err != nil {
			qsp.Fail(err.Error())
		} else {
			qsp.End()
		}
	}
	if ex.m.log != nil {
		ev := &queryEvent{
			query:    query,
			wallUs:   total.Microseconds(),
			scanned:  examined,
			shipped:  shipped,
			returned: returned,
			parts:    scanned,
			pruned:   pruned,
			degraded: degraded,
			bytes:    bytes,
			peakMem:  peakMem,
			stages:   stages,
			failed:   err != nil,
			traceID:  qsp.Context().TraceID,
		}
		ex.m.log.AppendFielder(ev)
		// A slow execution is mirrored — not moved — into the bounded slow
		// log, so it survives sys.queries churn long enough to diagnose.
		if ex.m.slowThreshold > 0 && total >= ex.m.slowThreshold {
			ex.m.slowQueries.Inc()
			ex.m.slowLog.AppendFielder(ev)
		}
	}
}

// scanSSID returns the resolved snapshot id of a Scan node (0 otherwise),
// so snapshot-pinned query stages join sys.checkpoints like checkpoint
// spans do.
func scanSSID(n plan.Node) int64 {
	if sc, ok := n.(*plan.Scan); ok {
		return sc.SSID
	}
	return 0
}

// queryEvent is the sys.queries entry for one execution: a flat struct on
// the hot path, expanded to a field map only when the log is read.
type queryEvent struct {
	query    string
	wallUs   int64
	scanned  int64
	shipped  int64
	returned int64
	parts    int64
	pruned   int64
	degraded int64
	bytes    int64  // estimated bytes shipped across the client hop
	peakMem  int64  // peak estimated bytes the client held: all that was shipped
	stages   string // per-stage wall breakdown ("scan=1.2ms project=80µs")
	failed   bool
	traceID  uint64 // joins sys.queries to sys.spans; 0 when untraced
}

func (q *queryEvent) EventFields() map[string]any {
	return map[string]any{
		"query":              q.query,
		"wallUs":             q.wallUs,
		"rowsScanned":        q.scanned,
		"rowsShipped":        q.shipped,
		"rowsReturned":       q.returned,
		"partitionsScanned":  q.parts,
		"partitionsPruned":   q.pruned,
		"degradedPartitions": q.degraded,
		"bytesShipped":       q.bytes,
		"peakMemBytes":       q.peakMem,
		"stages":             q.stages,
		"failed":             q.failed,
		"traceId":            int64(q.traceID),
	}
}

// resolveOrderByAliases rewrites ORDER BY entries that name a select-list
// alias (ORDER BY sold when the list says `SUM(x) AS sold`) to the aliased
// expression, per standard SQL. The statement is copied, not mutated.
func resolveOrderByAliases(stmt *Select) *Select {
	if len(stmt.OrderBy) == 0 {
		return stmt
	}
	byAlias := map[string]Expr{}
	for _, it := range stmt.Items {
		if !it.Star && it.Alias != "" {
			byAlias[strings.ToLower(it.Alias)] = it.Expr
		}
	}
	if len(byAlias) == 0 {
		return stmt
	}
	out := *stmt
	out.OrderBy = append([]OrderItem(nil), stmt.OrderBy...)
	for i, oi := range out.OrderBy {
		if id, ok := oi.Expr.(Ident); ok && id.Table == "" {
			if e, hit := byAlias[strings.ToLower(id.Name)]; hit {
				out.OrderBy[i].Expr = e
			}
		}
	}
	return &out
}

// pinSet holds ssid pins extracted from WHERE.
type pinSet map[string]int64 // lower-cased qualifier ("" = all snapshot tables)

func (p pinSet) forTable(alias, name string) int64 {
	if v, ok := p[strings.ToLower(alias)]; ok {
		return v
	}
	if v, ok := p[strings.ToLower(name)]; ok {
		return v
	}
	return p[""]
}

// extractPins removes top-level `ssid = <literal>` conjuncts from the
// WHERE clause and returns them as pins. The predicate selects which
// snapshot to reconstruct, not which stored versions to keep — with
// incremental snapshots a row's recorded ssid may legitimately be older
// than the queried one (§VI.A), so the pin must bind the planner rather
// than filter rows.
func extractPins(where Expr) (Expr, pinSet, error) {
	pins := pinSet{}
	rest, err := stripPins(where, pins)
	if err != nil {
		return nil, nil, err
	}
	return rest, pins, nil
}

func stripPins(e Expr, pins pinSet) (Expr, error) {
	b, ok := e.(Binary)
	if !ok {
		return e, nil
	}
	switch b.Op {
	case "AND":
		l, err := stripPins(b.L, pins)
		if err != nil {
			return nil, err
		}
		r, err := stripPins(b.R, pins)
		if err != nil {
			return nil, err
		}
		switch {
		case l == nil && r == nil:
			return nil, nil
		case l == nil:
			return r, nil
		case r == nil:
			return l, nil
		default:
			return Binary{Op: "AND", L: l, R: r}, nil
		}
	case "=":
		if id, lit, ok := ssidEquality(b); ok {
			n, isInt := lit.Val.(int64)
			if !isInt || n <= 0 {
				return nil, fmt.Errorf("sql: ssid must be a positive integer literal, got %v", lit.Val)
			}
			pins[strings.ToLower(id.Table)] = n
			return nil, nil
		}
	}
	return e, nil
}

func ssidEquality(b Binary) (Ident, Lit, bool) {
	if id, ok := b.L.(Ident); ok && strings.EqualFold(id.Name, core.ColSSID) {
		if lit, ok := b.R.(Lit); ok {
			return id, lit, true
		}
	}
	if id, ok := b.R.(Ident); ok && strings.EqualFold(id.Name, core.ColSSID) {
		if lit, ok := b.L.(Lit); ok {
			return id, lit, true
		}
	}
	return Ident{}, Lit{}, false
}

// keyPins maps a lower-cased table qualifier ("" = unqualified) to the
// partitionKey literal a top-level equality conjunct pins it to.
type keyPins map[string]any

// extractKeyPins collects `partitionKey = <literal>` conjuncts from the
// residual WHERE clause. Unlike ssid pins they are NOT stripped: the
// predicate still runs against every scanned row (pruning is an
// optimisation, the filter is the truth).
func extractKeyPins(where Expr) keyPins {
	pins := keyPins{}
	collectKeyPins(where, pins)
	return pins
}

func collectKeyPins(e Expr, pins keyPins) {
	b, ok := e.(Binary)
	if !ok {
		return
	}
	switch b.Op {
	case "AND":
		collectKeyPins(b.L, pins)
		collectKeyPins(b.R, pins)
	case "=":
		if id, lit, ok := keyEquality(b); ok {
			pins[strings.ToLower(id.Table)] = lit.Val
		}
	}
}

func keyEquality(b Binary) (Ident, Lit, bool) {
	if id, ok := b.L.(Ident); ok && strings.EqualFold(id.Name, core.ColPartitionKey) {
		if lit, ok := b.R.(Lit); ok {
			return id, lit, true
		}
	}
	if id, ok := b.R.(Ident); ok && strings.EqualFold(id.Name, core.ColPartitionKey) {
		if lit, ok := b.L.(Lit); ok {
			return id, lit, true
		}
	}
	return Ident{}, Lit{}, false
}

// applyKeyHints turns partitionKey pins into per-source partition hints —
// the single partition-pruning implementation; the compile step copies
// the hints onto the plan's Scan nodes, so EXPLAIN's pruned counts and
// execution's skipped partitions come from the same decision. A qualified
// pin (t.partitionKey = x) prunes only that table. An unqualified pin
// prunes the FROM table — and, for a co-partitioned USING(partitionKey)
// join, the joined table too, since the join key IS the partition key on
// both sides. Pruning is skipped for literal types whose hash is not
// provably consistent with SQL equality (floats, which equality-coerces
// across int/float while the partitioner does not).
func applyKeyHints(stmt *Select, srcs []tableSrc, where Expr) {
	pins := extractKeyPins(where)
	if len(pins) == 0 {
		return
	}
	coPart := len(srcs) == 2 && len(stmt.Joins) == 1 &&
		stmt.Joins[0].Using == core.ColPartitionKey && !stmt.Joins[0].Left
	for i := range srcs {
		s := &srcs[i]
		key, found := pins[strings.ToLower(s.alias)]
		if !found {
			key, found = pins[strings.ToLower(s.name)]
		}
		if !found {
			if v, ok := pins[""]; ok && (i == 0 || coPart) {
				key, found = v, true
			}
		}
		if !found {
			continue
		}
		if p, ok := s.ref.PartitionOf(key); ok {
			s.partHint, s.keyPin = p, key
		}
	}
}

// ownedPartitions returns the partitions of s that node must scan: the
// node's owned partitions, narrowed to the partition-key hint when the
// query pinned one. Every scan path routes through here, so pruning
// applies uniformly to plain scans, guarded scans and partitioned joins.
func (ex *Executor) ownedPartitions(s tableSrc, node int) []int {
	if s.partHint >= 0 {
		if s.ref.PartitionOwner(s.partHint) == node {
			return []int{s.partHint}
		}
		return nil
	}
	var out []int
	for p := 0; p < s.ref.Partitions(); p++ {
		if s.ref.PartitionOwner(p) == node {
			out = append(out, p)
		}
	}
	return out
}

// recordPartScan accounts one partition read on the source's plan leaf
// and the per-partition registry instruments. examined counts rows the
// pushed filter inspected node-side; emitted counts the rows it kept. The
// wall time is the whole fragment's: what the rows went on to — probe,
// fold, projection — runs inside the read.
func (ex *Executor) recordPartScan(s *tableSrc, p int, examined, emitted int64, d time.Duration) {
	if s.scan != nil {
		st := s.scan.Stat()
		st.Parts.Add(1)
		st.Examined.Add(examined)
		st.Rows.Add(emitted)
		st.WallNs.Add(int64(d))
	}
	if p < len(ex.m.part) && !s.ref.IsVirtual() {
		ins := ex.m.part[p]
		ins.scans.Inc()
		ins.rows.Add(emitted)
		ins.scan.Record(d)
	}
}

// joinKeys returns the key columns of join j: the one read from the
// sources to its left, and the one read from the joined source si.
func joinKeys(j Join, srcs []tableSrc, si int) (left, right Ident, err error) {
	if j.Using != "" {
		return Ident{Name: j.Using}, Ident{Name: j.Using}, nil
	}
	// ON a.x = b.y: decide which side belongs to the joined table.
	matches := func(id Ident) bool {
		return strings.EqualFold(id.Table, srcs[si].alias) || strings.EqualFold(id.Table, srcs[si].name)
	}
	switch {
	case matches(j.OnR):
		return j.OnL, j.OnR, nil
	case matches(j.OnL):
		return j.OnR, j.OnL, nil
	default:
		return Ident{}, Ident{}, fmt.Errorf("sql: ON clause must reference the joined table %q", srcs[si].name)
	}
}

// sortOutRows sorts rows by the pre-computed ORDER BY keys. NULLs sort
// last; incomparable values keep their relative order.
func sortOutRows[T any](stmt *Select, rows []T, key func(T) []any) {
	if len(stmt.OrderBy) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		ki, kj := key(rows[i]), key(rows[j])
		for n, oi := range stmt.OrderBy {
			a, b := ki[n], kj[n]
			if a == nil && b == nil {
				continue
			}
			if a == nil {
				return false
			}
			if b == nil {
				return true
			}
			c, err := compare(a, b)
			if err != nil || c == 0 {
				continue
			}
			if oi.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

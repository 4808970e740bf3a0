package sql

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/core"
	"squery/internal/metrics"
)

// The streaming physical pipeline. A compiled physPlan executes as a
// chain of goroutine stages connected by bounded channels of row
// batches: partition scans fan out per node and stream batches as they
// fill, joins and the residual filter transform batches in flight, and
// the output stage (project or aggregate) consumes them. Nothing
// materializes the whole working set — a LIMIT that fills, or the first
// error, cancels the shared done channel and every upstream scan stops
// at its next batch boundary.

// scanBatchRows is the flush threshold for streamed scan batches: small
// enough that a LIMIT query stops scans after a handful of rows, large
// enough that channel traffic stays off the per-row path.
const scanBatchRows = 128

// scanBatch is one shipment of scanned rows from a node goroutine. bytes
// is its estimated footprint, accounted in the run's memAccount from send
// to consumption.
type scanBatch struct {
	rows  []core.TableRow
	bytes int64
	err   error
}

// rowBatch is one shipment of working-set rows between pipeline stages.
type rowBatch struct {
	rows  []joinedRow
	bytes int64
	err   error
}

// runCtx is the per-execution state every pipeline stage shares.
type runCtx struct {
	ctx  *evalCtx // read-only, safe across goroutines
	opts ExecOpts
	deg  *degrades
	// Resource accounting: estimated bytes shipped across the client hop
	// and the in-flight batch memory high-water mark (sys.queries).
	shippedBytes atomic.Int64
	mem          memAccount
	// done, once closed, tells every stage and partition scan to stop:
	// the limit filled, an error surfaced, or the consumer is finished.
	done chan struct{}
	once sync.Once
}

func newRunCtx(opts ExecOpts) *runCtx {
	return &runCtx{
		ctx:  &evalCtx{now: time.Now()},
		opts: opts,
		deg:  &degrades{},
		done: make(chan struct{}),
	}
}

// cancel stops the pipeline (idempotent).
func (rc *runCtx) cancel() { rc.once.Do(func() { close(rc.done) }) }

// streamScan fans source si out over the cluster, one goroutine per node
// that owns at least one selected partition, and streams scanBatches as
// they fill. The pushed predicate and column projection run inside
// ScanPartitionSpec on the owning node — only surviving, projected rows
// cross the client hop. Pruned/unowned nodes get no goroutine and no hop.
func (ex *Executor) streamScan(pp *physPlan, si int, rc *runCtx) <-chan scanBatch {
	nodes := ex.clusterNodes()
	ch := make(chan scanBatch, nodes)
	s := &pp.srcs[si]
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		parts := ex.ownedPartitions(*s, n)
		if len(parts) == 0 {
			continue
		}
		wg.Add(1)
		go func(node int, parts []int) {
			defer wg.Done()
			s.ref.ChargeClientHop(node)
			var (
				examined int64
				evalErr  error
				buf      []core.TableRow
			)
			// send gives cancellation priority: once done closes, a
			// blocked sender must not win the send race against the
			// final drain and go on to scan further partitions.
			send := func(b scanBatch) bool {
				select {
				case <-rc.done:
					return false
				default:
				}
				select {
				case ch <- b:
					return true
				case <-rc.done:
					return false
				}
			}
			flush := func() bool {
				if len(buf) == 0 {
					return true
				}
				b := scanBatch{rows: buf, bytes: estimateBatchBytes(buf)}
				buf = nil
				rc.shippedBytes.Add(b.bytes)
				rc.mem.grab(b.bytes)
				if !send(b) {
					rc.mem.release(b.bytes)
					return false
				}
				return true
			}
			for _, p := range parts {
				select {
				case <-rc.done:
					return
				default:
				}
				sw := metrics.StartStopwatch()
				exBefore := examined
				var emitted int64
				if rc.opts.Policy == PolicyNone {
					spec := pp.spec(si, rc.ctx, rc.done, &examined, &evalErr)
					stopped := false
					s.ref.ScanPartitionSpec(p, spec, func(r core.TableRow) bool {
						buf = append(buf, r)
						emitted++
						if len(buf) >= scanBatchRows && !flush() {
							stopped = true
							return false
						}
						return true
					})
					if pp.pushed[si] == nil {
						examined += emitted
					}
					ex.recordPartScan(s, p, examined-exBefore, emitted, sw.Elapsed())
					if evalErr != nil {
						send(scanBatch{err: evalErr})
						return
					}
					if stopped {
						return
					}
				} else {
					rows, err := ex.gatherPartition(pp, si, p, &examined, rc)
					emitted = int64(len(rows))
					if pp.pushed[si] == nil {
						examined += emitted
					}
					ex.recordPartScan(s, p, examined-exBefore, emitted, sw.Elapsed())
					if err != nil {
						send(scanBatch{err: err})
						return
					}
					buf = append(buf, rows...)
				}
				// Flush at partition boundaries too, so short partitions
				// don't sit in the buffer while the limit stage waits.
				if !flush() {
					return
				}
			}
			flush()
		}(n, parts)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

// drain empties a channel until the upstream closes it. Every stage
// defers close(out) FIRST and drain(in) SECOND, so on return the drain
// runs before the close: when a stage's output closes, every upstream
// goroutine has already exited — the final consumer joins the whole
// pipeline just by draining one channel.
func drain[T any](in <-chan T) {
	for range in {
	}
}

// streamBase adapts the base table's scanBatches into single-source
// joinedRow batches.
func streamBase(pp *physPlan, in <-chan scanBatch, rc *runCtx) <-chan rowBatch {
	out := make(chan rowBatch, cap(in))
	go func() {
		defer close(out)
		defer drain(in)
		for sb := range in {
			// The joined rows reference the scan batch's backing rows, so
			// the footprint transfers downstream rather than re-accruing.
			b := rowBatch{err: sb.err, bytes: sb.bytes}
			if sb.err == nil {
				b.rows = make([]joinedRow, len(sb.rows))
				for i := range sb.rows {
					tabs := make([]*core.TableRow, len(pp.srcs))
					tabs[0] = &sb.rows[i]
					b.rows[i] = joinedRow{srcs: pp.srcs, tabs: tabs}
				}
			}
			select {
			case out <- b:
			case <-rc.done:
				rc.mem.release(b.bytes)
				return
			}
			if sb.err != nil {
				rc.cancel()
				return
			}
		}
	}()
	return out
}

// streamCoJoin runs the co-partitioned USING(partitionKey) join: one
// goroutine per node, each joining only the partitions it owns — both
// sides of a partition live on the same node (§II co-location), so there
// is no shuffle and no cross-partition hash table. Each partition's join
// output ships as one batch.
func (ex *Executor) streamCoJoin(pp *physPlan, rc *runCtx) <-chan rowBatch {
	nodes := ex.clusterNodes()
	out := make(chan rowBatch, nodes)
	left := &pp.srcs[0]
	jst := pp.join.Stat()
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		parts := ex.ownedPartitions(*left, n)
		if len(parts) == 0 {
			continue
		}
		wg.Add(1)
		go func(node int, parts []int) {
			defer wg.Done()
			left.ref.ChargeClientHop(node)
			send := func(b rowBatch) bool {
				select {
				case <-rc.done:
					return false
				default:
				}
				select {
				case out <- b:
					return true
				case <-rc.done:
					return false
				}
			}
			for _, p := range parts {
				select {
				case <-rc.done:
					return
				default:
				}
				rrows, err := ex.gatherSide(pp, 1, p, rc)
				if err != nil {
					send(rowBatch{err: err})
					return
				}
				lrows, err := ex.gatherSide(pp, 0, p, rc)
				if err != nil {
					send(rowBatch{err: err})
					return
				}
				sw := metrics.StartStopwatch()
				idx := make(map[joinKey][]*core.TableRow, len(rrows))
				for i := range rrows {
					k := makeJoinKey(rrows[i].Key)
					idx[k] = append(idx[k], &rrows[i])
				}
				var b rowBatch
				for i := range lrows {
					for _, m := range idx[makeJoinKey(lrows[i].Key)] {
						b.rows = append(b.rows, joinedRow{
							srcs: pp.srcs,
							tabs: []*core.TableRow{&lrows[i], m},
						})
					}
				}
				jst.Rows.Add(int64(len(b.rows)))
				jst.WallNs.Add(int64(sw.Elapsed()))
				if len(b.rows) == 0 {
					continue
				}
				b.bytes = estimateJoinedBatchBytes(b.rows)
				rc.mem.grab(b.bytes)
				if !send(b) {
					rc.mem.release(b.bytes)
					return
				}
			}
		}(n, parts)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// gatherSide materializes one partition of one source (policy-guarded
// when requested), with the pushed filter and projection applied
// node-side, and records the partition scan.
func (ex *Executor) gatherSide(pp *physPlan, si, p int, rc *runCtx) ([]core.TableRow, error) {
	s := &pp.srcs[si]
	sw := metrics.StartStopwatch()
	var examined int64
	rows, err := ex.gatherPartition(pp, si, p, &examined, rc)
	if pp.pushed[si] == nil {
		examined = int64(len(rows))
	}
	ex.recordPartScan(s, p, examined, int64(len(rows)), sw.Elapsed())
	rc.shippedBytes.Add(estimateBatchBytes(rows))
	return rows, err
}

// hashJoinStage is the general equi-join stage: it materializes the
// right (joined) side into a hash table, then probes with the incoming
// left batches as they arrive. Only the build side materializes; the
// probe side streams through.
func (ex *Executor) hashJoinStage(pp *physPlan, ji int, in <-chan rowBatch, rc *runCtx) <-chan rowBatch {
	out := make(chan rowBatch, cap(in))
	go func() {
		defer close(out)
		defer drain(in)
		j := pp.stmt.Joins[ji]
		si := ji + 1
		hst := pp.hjoins[ji].Stat()
		fail := func(err error) {
			select {
			case out <- rowBatch{err: err}:
			case <-rc.done:
			}
			rc.cancel()
		}
		leftKey, rightKey, err := joinKeys(j, pp.srcs, si)
		if err != nil {
			fail(err)
			return
		}
		// Build side: gather the joined table via its own scatter scan.
		// Its batches are retained in the hash table for the stage's whole
		// life, so their footprint stays accounted until the stage exits.
		var right []core.TableRow
		var buildBytes int64
		defer func() { rc.mem.release(buildBytes) }()
		for sb := range ex.streamScan(pp, si, rc) {
			if sb.err != nil {
				fail(sb.err)
				return
			}
			right = append(right, sb.rows...)
			buildBytes += sb.bytes
		}
		sw := metrics.StartStopwatch()
		idx := make(map[joinKey][]*core.TableRow, len(right))
		for i := range right {
			v, ok := right[i].Field(rightKey)
			if !ok {
				fail(fmt.Errorf("sql: join column %q not found in %s", rightKey, pp.srcs[si].name))
				return
			}
			k := makeJoinKey(v)
			idx[k] = append(idx[k], &right[i])
		}
		hst.WallNs.Add(int64(sw.Elapsed()))
		for b := range in {
			if b.err != nil {
				select {
				case out <- b:
				case <-rc.done:
				}
				rc.cancel()
				return
			}
			sw := metrics.StartStopwatch()
			var ob rowBatch
			for _, lr := range b.rows {
				v, ok := lr.Resolve("", leftKey)
				if !ok {
					fail(fmt.Errorf("sql: join column %q not found on left side", leftKey))
					return
				}
				matches := idx[makeJoinKey(v)]
				if len(matches) == 0 {
					if j.Left {
						ob.rows = append(ob.rows, lr) // right side stays nil
					}
					continue
				}
				for _, m := range matches {
					tabs := make([]*core.TableRow, len(pp.srcs))
					copy(tabs, lr.tabs)
					tabs[si] = m
					ob.rows = append(ob.rows, joinedRow{srcs: pp.srcs, tabs: tabs})
				}
			}
			hst.Rows.Add(int64(len(ob.rows)))
			hst.WallNs.Add(int64(sw.Elapsed()))
			rc.mem.release(b.bytes)
			if len(ob.rows) == 0 {
				continue
			}
			ob.bytes = estimateJoinedBatchBytes(ob.rows)
			rc.mem.grab(ob.bytes)
			select {
			case out <- ob:
			case <-rc.done:
				rc.mem.release(ob.bytes)
				return
			}
		}
	}()
	return out
}

// run executes a compiled plan: assemble the stage chain, consume it
// through the output stage, then cancel and drain so every pipeline
// goroutine has exited before the result returns (queries never leak
// scans, and metrics are settled when the caller reads them).
func (ex *Executor) run(pp *physPlan, rc *runCtx) (*Result, error) {
	var stream <-chan rowBatch
	switch {
	case pp.coPart:
		stream = ex.streamCoJoin(pp, rc)
	default:
		stream = streamBase(pp, ex.streamScan(pp, 0, rc), rc)
		if !pp.coPart && len(pp.srcs) > 1 {
			for ji := range pp.stmt.Joins {
				stream = ex.hashJoinStage(pp, ji, stream, rc)
			}
		}
	}
	var res *Result
	var err error
	if pp.agg != nil {
		res, err = ex.aggregateStream(pp, stream, rc)
	} else {
		res, err = ex.projectStream(pp, stream, rc)
	}
	rc.cancel()
	drain(stream)
	return res, err
}

// applyResidual runs the client-side residual filter over a batch in
// place. No-op (and no Filter node) when everything was pushed down.
func (ex *Executor) applyResidual(pp *physPlan, rc *runCtx, b *rowBatch) error {
	if pp.filter == nil {
		return nil
	}
	st := pp.filter.Stat()
	sw := metrics.StartStopwatch()
	kept := b.rows[:0]
	for _, r := range b.rows {
		v, err := rc.ctx.eval(pp.residual, r)
		if err != nil {
			return err
		}
		if keep, ok := truthy(v); ok && keep {
			kept = append(kept, r)
		}
	}
	st.In.Add(int64(len(b.rows)))
	st.Rows.Add(int64(len(kept)))
	st.WallNs.Add(int64(sw.Elapsed()))
	b.rows = kept
	return nil
}

// The three row-level stages of the output side. The one-shot output
// stages below and the standing query (subscribe.go) both call them, so a
// row projects, groups and finishes the same way in either drive mode.

// projectRow evaluates the select list for one row. starCols is the
// (qualifier, column) expansion of *, nil when the list has none.
func projectRow(ctx *evalCtx, items []SelectItem, starCols [][2]string, r joinedRow) ([]any, error) {
	vals := make([]any, 0, len(items)+len(starCols))
	for _, it := range items {
		if it.Star {
			for _, sc := range starCols {
				v, _ := r.Resolve(sc[0], sc[1])
				vals = append(vals, v)
			}
			continue
		}
		v, err := ctx.eval(it.Expr, r)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// appendRowGroupKey appends the row's GROUP BY key to dst: each grouping
// expression's value in the self-delimiting binary form, no per-key string
// building. A statement without GROUP BY has the one empty key.
func appendRowGroupKey(dst []byte, ctx *evalCtx, groupBy []Expr, r joinedRow) ([]byte, error) {
	for _, ge := range groupBy {
		v, err := ctx.eval(ge, r)
		if err != nil {
			return nil, err
		}
		dst = appendGroupKey(dst, v)
	}
	return dst, nil
}

// finishGroup runs one group's rows through HAVING and the select list.
// keep is false when HAVING rejects the group.
func (ex *Executor) finishGroup(ctx *evalCtx, stmt *Select, rows []joinedRow) (vals []any, keep bool, err error) {
	if stmt.Having != nil {
		hv, err := ex.evalWithAggs(ctx, stmt.Having, rows)
		if err != nil {
			return nil, false, err
		}
		if ok, known := truthy(hv); !known || !ok {
			return nil, false, nil
		}
	}
	vals = make([]any, len(stmt.Items))
	for i, it := range stmt.Items {
		v, err := ex.evalWithAggs(ctx, it.Expr, rows)
		if err != nil {
			return nil, false, err
		}
		vals[i] = v
	}
	return vals, true, nil
}

// projectStream is the non-aggregate output stage: evaluate the select
// list per row as batches arrive. Unsorted LIMIT queries stop consuming
// the moment the limit fills and — when the plan allows early stop —
// cancel every in-flight scan. ORDER BY materializes the projected rows
// (not the working set) before sorting.
func (ex *Executor) projectStream(pp *physPlan, in <-chan rowBatch, rc *runCtx) (*Result, error) {
	stmt := pp.stmt
	res := &Result{}
	pst := pp.proj.Stat()

	hasStar := false
	for _, it := range stmt.Items {
		if it.Star {
			hasStar = true
		}
	}
	// Expand * lazily from the first row's schema; an empty result keeps
	// just the concrete columns.
	var starCols [][2]string // (qualifier, column)
	headerDone := false
	buildHeader := func(first *joinedRow) {
		if hasStar && first != nil {
			for i, t := range first.tabs {
				if t == nil {
					continue
				}
				for _, c := range t.Columns() {
					starCols = append(starCols, [2]string{pp.srcs[i].alias, c})
				}
			}
		}
		for _, it := range stmt.Items {
			if it.Star {
				for _, sc := range starCols {
					res.Columns = append(res.Columns, sc[1])
				}
				continue
			}
			res.Columns = append(res.Columns, it.OutputName())
		}
		headerDone = true
	}
	if !hasStar {
		buildHeader(nil)
	}

	type outRow struct {
		vals    []any
		sortKey []any
	}
	evalRow := func(r joinedRow) (outRow, error) {
		vals, err := projectRow(rc.ctx, stmt.Items, starCols, r)
		o := outRow{vals: vals}
		if err != nil {
			return o, err
		}
		for _, oi := range stmt.OrderBy {
			v, err := rc.ctx.eval(oi.Expr, r)
			if err != nil {
				return o, err
			}
			o.sortKey = append(o.sortKey, v)
		}
		return o, nil
	}

	ordered := len(stmt.OrderBy) > 0
	limit := stmt.Limit
	if pp.earlyStop && limit == 0 {
		rc.cancel() // LIMIT 0: nothing to scan at all
	}
	var outs []outRow
	filled := false
	for b := range in {
		if b.err != nil {
			return nil, b.err
		}
		if err := ex.applyResidual(pp, rc, &b); err != nil {
			rc.cancel()
			return nil, err
		}
		if filled {
			rc.mem.release(b.bytes)
			continue // only reachable without early stop (e.g. DisablePushdown)
		}
		sw := metrics.StartStopwatch()
		for _, r := range b.rows {
			if !headerDone {
				buildHeader(&r)
			}
			if !ordered && limit >= 0 && len(res.Rows) >= limit {
				filled = true
				break
			}
			o, err := evalRow(r)
			if err != nil {
				rc.cancel()
				return nil, err
			}
			if ordered {
				outs = append(outs, o)
			} else {
				res.Rows = append(res.Rows, o.vals)
			}
		}
		pst.WallNs.Add(int64(sw.Elapsed()))
		rc.mem.release(b.bytes)
		if filled && pp.earlyStop {
			rc.cancel()
			break
		}
	}
	if !headerDone {
		buildHeader(nil)
	}
	if ordered {
		sw := metrics.StartStopwatch()
		sortOutRows(stmt, outs, func(o outRow) []any { return o.sortKey })
		for _, o := range outs {
			if limit >= 0 && len(res.Rows) >= limit {
				break
			}
			res.Rows = append(res.Rows, o.vals)
		}
		pst.WallNs.Add(int64(sw.Elapsed()))
	}
	pst.Rows.Store(int64(len(res.Rows)))
	return res, nil
}

// aggregateStream is the aggregate output stage: group rows as batches
// arrive, then finish each group through HAVING and the select list.
// Aggregation consumes the whole stream by nature — there is no early
// stop.
func (ex *Executor) aggregateStream(pp *physPlan, in <-chan rowBatch, rc *runCtx) (*Result, error) {
	stmt := pp.stmt
	for _, it := range stmt.Items {
		if it.Star {
			rc.cancel()
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
		}
	}
	ast := pp.agg.Stat()
	type group struct {
		rows []joinedRow
	}
	groups := map[string]*group{}
	var order []string
	var keyBuf []byte
	for b := range in {
		if b.err != nil {
			return nil, b.err
		}
		if err := ex.applyResidual(pp, rc, &b); err != nil {
			rc.cancel()
			return nil, err
		}
		sw := metrics.StartStopwatch()
		for _, r := range b.rows {
			var err error
			if keyBuf, err = appendRowGroupKey(keyBuf[:0], rc.ctx, stmt.GroupBy, r); err != nil {
				rc.cancel()
				return nil, err
			}
			k := string(keyBuf)
			g, ok := groups[k]
			if !ok {
				g = &group{}
				groups[k] = g
				order = append(order, k)
			}
			g.rows = append(g.rows, r)
		}
		ast.In.Add(int64(len(b.rows)))
		ast.WallNs.Add(int64(sw.Elapsed()))
	}
	// A query with aggregates but no GROUP BY aggregates over all rows,
	// producing exactly one row even when the input is empty.
	if len(stmt.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}

	res := &Result{}
	for _, it := range stmt.Items {
		res.Columns = append(res.Columns, it.OutputName())
	}
	type outRow struct {
		vals    []any
		sortKey []any
	}
	sw := metrics.StartStopwatch()
	outs := make([]outRow, 0, len(order))
	for _, k := range order {
		g := groups[k]
		vals, keep, err := ex.finishGroup(rc.ctx, stmt, g.rows)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		var sortKey []any
		for _, oi := range stmt.OrderBy {
			v, err := ex.evalWithAggs(rc.ctx, oi.Expr, g.rows)
			if err != nil {
				return nil, err
			}
			sortKey = append(sortKey, v)
		}
		outs = append(outs, outRow{vals: vals, sortKey: sortKey})
	}
	sortOutRows(stmt, outs, func(o outRow) []any { return o.sortKey })
	for _, o := range outs {
		if stmt.Limit >= 0 && len(res.Rows) >= stmt.Limit {
			break
		}
		res.Rows = append(res.Rows, o.vals)
	}
	ast.WallNs.Add(int64(sw.Elapsed()))
	ast.Rows.Store(int64(len(res.Rows)))
	return res, nil
}

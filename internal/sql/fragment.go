package sql

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/metrics"
	"squery/internal/partition"
	"squery/internal/sql/plan"
)

// Plan execution: partition fragments and the client merge.
//
// A compiled physPlan runs as a fragment per partition, where the
// partition lives: read the driving table through its access path (full
// scan, secondary index, or key lookup), test the bound pushed filter, join
// — a key lookup into the other table's copy of the same partition for a
// co-partitioned join, a probe of a hash table built from the gathered
// right side for a general one — test the residual filter, and end in a
// sink that either projects the select list or folds the row into its
// group's partial accumulators. One goroutine per owning node runs that
// node's fragments back to back over one reused row, one scan buffer and
// one sink; a plan whose partitions all sit on one node runs on the
// caller's goroutine and fan-out begins with the second node. There are no
// stages, no channels and no batches: a row is filtered, joined and folded
// in place, and the only thing that crosses the client hop is what the
// sinks hold — projected rows, or one partial group per group per node.
//
// The client then merges: concatenate, sort and limit rows, or merge the
// partial groups, apply HAVING and finish the select list. A LIMIT that
// fills, or the first error, closes the shared done channel and every
// partition read stops at its next poll.

// runCtx is the per-execution state every fragment shares.
type runCtx struct {
	ctx  *evalCtx // read-only, safe across goroutines
	opts ExecOpts
	deg  *degrades
	// Resource accounting: estimated bytes shipped across the client hop
	// (sys.queries).
	shippedBytes atomic.Int64
	// emitted counts the rows the project sinks have produced so far, so
	// that an unordered LIMIT stops every node once the nodes together
	// have filled it.
	emitted atomic.Int64
	// done, once closed, tells every partition read to stop: the limit
	// filled, an error surfaced, or the consumer is finished.
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

// cancel stops the execution (idempotent).
func (rc *runCtx) cancel() { rc.once.Do(func() { close(rc.done) }) }

// sink is where a pipe's rows end up: projected (rowSink), folded into
// partial groups (groupTable) or collected whole (rowSet).
type sink interface {
	// add consumes one working-set row; more is false once the sink needs
	// no further rows.
	add(jr *joinedRow) (more bool, err error)
	// absorb folds in what another sink of the same plan collected: a
	// guarded partition attempt that succeeded, or — at the client — the
	// next node's output.
	absorb(o sink) error
	// size reports what the content amounts to when it ships: rows (or
	// partial groups) and estimated bytes.
	size() (rows, bytes int64)
}

// pipe is one goroutine's state for running a source's rows through the
// plan: the reused working-set row, the scan buffer, the sink and the
// counters, flushed to the plan's nodes per partition. The driving
// source's pipes run the whole per-row pipeline (joins, residual, sink);
// a gathered source's pipes only filter and collect.
type pipe struct {
	ex  *Executor
	pp  *physPlan
	rc  *runCtx
	src int
	// whole: run the joins and the residual filter before the sink.
	whole  bool
	builds []*hashSide

	jr    joinedRow
	slots []core.TableRow
	buf   []kv.Entry
	out   sink
	read  func(core.TableRow) bool
	err   error

	// The partition being read, and the degraded read's snapshot ids when
	// it is served from the backup replica.
	part int
	fb   []int64

	st pipeStats
	tm stageTimes
}

// stageTimes splits a fused fragment's wall time between the plan's nodes
// by sampling: the first and then every stageSampleEvery-th row that
// reaches the join is clocked through it and through the sink, and the
// samples scale up by the rows they stand for. Clocking every row would
// cost more than the probe it measures.
type stageTimes struct {
	rows, sampled  int64 // rows that reached the join / of them clocked
	joinNs, sinkNs int64 // clocked time in the joins and residual / in the sink
	timed          bool  // the row in flight is clocked
	rowSinkNs      int64 // its time in the sink so far
}

const stageSampleEvery = 16

// pipeStats are one pipe's counters since its last flush.
type pipeStats struct {
	examined, kept      int64 // rows read of the source / that passed its pushed filter
	probes, hits, pkept int64 // co-partitioned probe: lookups, found, passed the probed side's filter
	joined              []int64
	residIn, residKept  int64
}

func (ex *Executor) newPipe(pp *physPlan, rc *runCtx, src int, whole bool, builds []*hashSide) *pipe {
	pi := &pipe{ex: ex, pp: pp, rc: rc, src: src, whole: whole, builds: builds}
	pi.slots = make([]core.TableRow, len(pp.srcs))
	pi.jr = joinedRow{srcs: pp.srcs, tabs: make([]*core.TableRow, len(pp.srcs))}
	pi.jr.tabs[src] = &pi.slots[src]
	pi.st.joined = make([]int64, len(pp.joins))
	pi.read = pi.feed
	switch {
	case !whole:
		pi.out = &rowSet{src: src, cols: pp.srcs[src].cols}
	case pp.agg != nil:
		pi.out = newGroupTable(pp, rc.ctx)
	default:
		pi.out = &rowSink{pp: pp, rc: rc}
	}
	return pi
}

// fork returns a fresh pipe of the same configuration for one guarded
// partition attempt. The attempt may be abandoned, so its sink must not
// count toward the shared LIMIT until it is absorbed.
func (pi *pipe) fork() *pipe {
	att := pi.ex.newPipe(pi.pp, pi.rc, pi.src, pi.whole, pi.builds)
	if rs, ok := att.out.(*rowSink); ok {
		rs.attempt = true
	}
	return att
}

// holds evaluates a bound predicate against a working-set row; a nil
// predicate keeps everything. The fragments and the standing query
// (subscribe.go) both filter through it.
func holds(ctx *evalCtx, pred Expr, jr *joinedRow) (bool, error) {
	if pred == nil {
		return true, nil
	}
	v, err := ctx.evalD(pred, jr)
	if err != nil {
		return false, err
	}
	keep, ok := v.truthy()
	return ok && keep, nil
}

// keep tests the source's pushed filter against one of its rows, whole. An
// error drops the row and every later one, and stays in pi.err.
func (pi *pipe) keep(row core.TableRow) bool {
	if pi.err != nil {
		return false
	}
	pi.st.examined++
	pi.slots[pi.src] = row
	keep, err := holds(pi.rc.ctx, pi.pp.pushedB[pi.src], &pi.jr)
	pi.err = err
	return keep && err == nil
}

// take runs the row in the source's slot — one that passed the pushed
// filter — through the rest of the plan; false stops the partition read.
func (pi *pipe) take(row core.TableRow) bool {
	pi.slots[pi.src] = row
	pi.st.kept++
	more, err := pi.driveTimed()
	if err != nil {
		pi.err = err
		return false
	}
	return more
}

// feed is the callback of the partition read: filter, then the rest.
func (pi *pipe) feed(row core.TableRow) bool {
	if !pi.keep(row) {
		return pi.err == nil
	}
	return pi.take(row)
}

// clock reads the execution's monotonic clock.
func (pi *pipe) clock() int64 { return int64(time.Since(pi.rc.ctx.now)) }

// driveTimed is drive, clocking the sampled rows (see stageTimes).
func (pi *pipe) driveTimed() (bool, error) {
	tm := &pi.tm
	tm.timed = pi.whole && tm.rows%stageSampleEvery == 0
	tm.rows++
	if !tm.timed {
		return pi.drive()
	}
	tm.rowSinkNs = 0
	t0 := pi.clock()
	more, err := pi.drive()
	tm.joinNs += pi.clock() - t0 - tm.rowSinkNs
	tm.sinkNs += tm.rowSinkNs
	tm.sampled++
	return more, err
}

// drive takes the row in the source's slot the rest of the way.
func (pi *pipe) drive() (bool, error) {
	switch {
	case !pi.whole:
		return pi.out.add(&pi.jr)
	case pi.pp.coPart:
		return pi.coProbe()
	}
	return pi.join(0)
}

// coProbe is the co-partitioned join step: look the driving row's key up
// in the other table's copy of the partition being read, at that table's
// resolved snapshot id.
func (pi *pipe) coProbe() (bool, error) {
	d := pi.pp.drive
	o := 1 - d
	os := &pi.pp.srcs[o]
	key := pi.slots[d].Key
	ks := partition.KeyString(key)
	pi.st.probes++
	var r core.TableRow
	var ok bool
	if pi.fb != nil {
		r, ok = os.ref.LookupFallback(pi.part, ks, pi.fb[o])
	} else {
		r, ok = os.ref.Lookup(pi.part, ks, os.ssid)
	}
	// Keys that render alike but are not join-equal (the string "5" and
	// the integer 5) share a slot in no table, but can across two.
	if !ok || makeJoinKey(r.Key) != makeJoinKey(key) {
		return true, nil
	}
	pi.st.hits++
	pi.slots[o] = r
	pi.jr.tabs[o] = &pi.slots[o]
	keep, err := holds(pi.rc.ctx, pi.pp.pushedB[o], &pi.jr)
	if err != nil || !keep {
		return true, err
	}
	pi.st.pkept++
	pi.st.joined[0]++
	return pi.emit()
}

// join runs general join step k and everything after it: probe the hash
// table of the gathered right side with the key read from the sources to
// its left.
func (pi *pipe) join(k int) (bool, error) {
	if k == len(pi.pp.joins) {
		return pi.emit()
	}
	js := &pi.pp.joins[k]
	si := k + 1
	// Sources from si on hold nothing yet for this row (a by-name key must
	// not read what the previous row left there).
	for i := si; i < len(pi.jr.tabs); i++ {
		pi.jr.tabs[i] = nil
	}
	key, err := pi.rc.ctx.evalD(js.left, &pi.jr)
	if err != nil {
		return false, err
	}
	matches := pi.builds[k].idx[key.joinKey()]
	if len(matches) == 0 {
		if !js.outer {
			return true, nil
		}
		pi.st.joined[k]++
		return pi.join(k + 1) // right side stays nil
	}
	for _, m := range matches {
		pi.jr.tabs[si] = &pi.builds[k].rows[m]
		pi.st.joined[k]++
		if more, err := pi.join(k + 1); err != nil || !more {
			return more, err
		}
	}
	return true, nil
}

// emit tests the residual filter and hands the row to the sink.
func (pi *pipe) emit() (bool, error) {
	if pi.pp.residualB != nil {
		pi.st.residIn++
		keep, err := holds(pi.rc.ctx, pi.pp.residualB, &pi.jr)
		if err != nil || !keep {
			return true, err
		}
		pi.st.residKept++
	}
	if !pi.tm.timed {
		return pi.out.add(&pi.jr)
	}
	t0 := pi.clock()
	more, err := pi.out.add(&pi.jr)
	pi.tm.rowSinkNs += pi.clock() - t0
	return more, err
}

// flushTimes attributes the pipe's clocked samples, scaled to all its
// rows, to the join and sink nodes, and takes them off the driving scan's
// wall time — which the partition reads recorded whole.
func (pi *pipe) flushTimes() {
	tm, pp := &pi.tm, pi.pp
	if tm.sampled == 0 {
		return
	}
	scale := func(ns int64) int64 { return ns * tm.rows / tm.sampled }
	moved := scale(tm.sinkNs)
	pp.top().Stat().WallNs.Add(moved)
	if pp.join != nil {
		j := scale(tm.joinNs)
		pp.join.Stat().WallNs.Add(j)
		moved += j
	}
	if scan := pp.scans[pi.src].Stat(); !pp.clientSide {
		scan.WallNs.Add(-min(moved, scan.WallNs.Load()))
	}
	pi.tm = stageTimes{}
}

// readPartition reads partition p of the pipe's source through the plan's
// access path and feeds every row to the pipe. fb, when non-nil, makes it
// the degraded read: from the backup replica, at these snapshot ids.
func (pi *pipe) readPartition(p int, fb []int64) error {
	s := &pi.pp.srcs[pi.src]
	pi.part, pi.fb, pi.err = p, fb, nil
	spec := core.ScanSpec{SSID: s.ssid, Path: s.path, Done: pi.rc.done, Buf: &pi.buf}
	read := pi.read
	if !pi.whole && s.schema == nil && s.cols != nil {
		// A gathered row with no schema ships narrowed by name: the scan
		// filters the whole row, narrows it, and the pipe takes what is
		// left.
		spec.Filter, spec.Cols, read = pi.keep, s.cols, pi.take
	}
	if fb != nil {
		spec.SSID = fb[pi.src]
		s.ref.ScanPartitionFallbackSpec(p, spec, read)
	} else {
		s.ref.ScanPartitionSpec(p, spec, read)
	}
	return pi.err
}

// flush moves the pipe's counters since the last flush onto the plan's
// nodes.
func (pi *pipe) flush() {
	pp, st := pi.pp, &pi.st
	if pi.whole {
		if pp.coPart {
			ps := pp.scans[1-pp.drive].Stat()
			ps.In.Add(st.probes)
			ps.Examined.Add(st.hits)
			ps.Rows.Add(st.pkept)
			pp.join.Stat().Rows.Add(st.joined[0])
		}
		for k, hj := range pp.hjoins {
			hj.Stat().Rows.Add(st.joined[k])
		}
		if pp.filter != nil {
			fs := pp.filter.Stat()
			fs.In.Add(st.residIn)
			fs.Rows.Add(st.residKept)
		}
	}
	joined := st.joined
	clear(joined)
	*st = pipeStats{joined: joined}
}

// absorbAttempt folds a successful guarded attempt into the pipe.
func (pi *pipe) absorbAttempt(att *pipe) error {
	a, b := &pi.st, &att.st
	a.examined += b.examined
	a.kept += b.kept
	a.probes += b.probes
	a.hits += b.hits
	a.pkept += b.pkept
	a.residIn += b.residIn
	a.residKept += b.residKept
	for k := range a.joined {
		a.joined[k] += b.joined[k]
	}
	pi.tm.rows += att.tm.rows
	pi.tm.sampled += att.tm.sampled
	pi.tm.joinNs += att.tm.joinNs
	pi.tm.sinkNs += att.tm.sinkNs
	return pi.out.absorb(att.out)
}

// scatter runs source si's partitions through one pipe per owning node and
// returns the pipes in node order. The first owning node runs on the
// caller's goroutine — so a source whose partitions all sit on one node
// spawns nothing — and fan-out begins with the second. Pruned and unowned
// nodes get no pipe and no hop.
func (ex *Executor) scatter(pp *physPlan, rc *runCtx, si int, whole bool, builds []*hashSide) ([]*pipe, error) {
	type work struct {
		node  int
		parts []int
	}
	var active []work
	for n, nodes := 0, ex.clusterNodes(); n < nodes; n++ {
		if parts := ex.ownedPartitions(pp.srcs[si], n); len(parts) > 0 {
			active = append(active, work{n, parts})
		}
	}
	pipes := make([]*pipe, len(active))
	errs := make([]error, len(active))
	run := func(i int) {
		pipes[i] = ex.newPipe(pp, rc, si, whole, builds)
		if errs[i] = ex.runNode(pipes[i], active[i].node, active[i].parts); errs[i] != nil {
			rc.cancel()
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(active); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	if len(active) > 0 {
		run(0)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pipes, nil
}

// runNode runs one node's partitions through the pipe, back to back, under
// the execution's degradation policy.
func (ex *Executor) runNode(pi *pipe, node int, parts []int) error {
	defer pi.flushTimes()
	pi.pp.srcs[pi.src].ref.ChargeClientHop(node)
	for _, p := range parts {
		select {
		case <-pi.rc.done:
			return nil
		default:
		}
		sw := metrics.StartStopwatch()
		var err error
		if pi.rc.opts.Policy == PolicyNone {
			err = pi.readPartition(p, nil)
		} else {
			err = ex.guardPartition(pi, p)
		}
		ex.recordPartScan(&pi.pp.srcs[pi.src], p, pi.st.examined, pi.st.kept, sw.Elapsed())
		pi.flush()
		if err != nil {
			return err
		}
	}
	return nil
}

// hashSide is the gathered right side of a general join: its rows and
// their positions by join key.
type hashSide struct {
	rows []core.TableRow
	idx  map[joinKey][]int32
}

// gather ships source si to the client: its pushed filter runs on the
// owning nodes, the surviving rows cross the hop. It serves the build
// sides of general joins and every source of the client-side reference.
func (ex *Executor) gather(pp *physPlan, rc *runCtx, si int) ([]core.TableRow, error) {
	pipes, err := ex.scatter(pp, rc, si, false, nil)
	if err != nil {
		return nil, err
	}
	var rows []core.TableRow
	for _, pi := range pipes {
		rs := pi.out.(*rowSet)
		n, bytes := rs.size()
		pp.scans[si].Stat().Shipped.Add(n)
		rc.shippedBytes.Add(bytes)
		if rows == nil {
			rows = rs.rows
		} else {
			rows = append(rows, rs.rows...)
		}
	}
	return rows, nil
}

// buildHash indexes the gathered right side of join k by its key column.
func (ex *Executor) buildHash(pp *physPlan, rc *runCtx, k int, rows []core.TableRow) (*hashSide, error) {
	sw := metrics.StartStopwatch()
	js := &pp.joins[k]
	si := k + 1
	hs := &hashSide{rows: rows, idx: make(map[joinKey][]int32, len(rows))}
	jr := joinedRow{srcs: pp.srcs, tabs: make([]*core.TableRow, len(pp.srcs))}
	for i := range rows {
		jr.tabs[si] = &rows[i]
		v, ok := jr.col(js.right)
		if !ok {
			return nil, fmt.Errorf("sql: join column %q not found in %s", js.right.id.Name, pp.srcs[si].name)
		}
		key := v.joinKey()
		hs.idx[key] = append(hs.idx[key], int32(i))
	}
	pp.hjoins[k].Stat().WallNs.Add(int64(sw.Elapsed()))
	return hs, nil
}

// run executes a compiled plan: gather what must be gathered, run the
// fragments, merge at the client. Every goroutine it starts has exited
// before the result returns (queries never leak scans, and metrics are
// settled when the caller reads them).
func (ex *Executor) run(pp *physPlan, rc *runCtx) (*Result, error) {
	defer rc.cancel()
	if pp.earlyStop && pp.stmt.Limit == 0 {
		rc.cancel() // LIMIT 0: nothing to scan at all
	}
	var builds []*hashSide
	if !pp.coPart {
		builds = make([]*hashSide, len(pp.joins))
		for k := range pp.joins {
			rows, err := ex.gather(pp, rc, k+1)
			if err != nil {
				return nil, err
			}
			if builds[k], err = ex.buildHash(pp, rc, k, rows); err != nil {
				return nil, err
			}
		}
	}
	if pp.clientSide {
		// The reference: the driving source ships too, and the client runs
		// the per-row pipeline itself.
		rows, err := ex.gather(pp, rc, 0)
		if err != nil {
			return nil, err
		}
		pi := ex.newPipe(pp, rc, 0, true, builds)
		for i := range rows {
			pi.slots[0] = rows[i]
			more, err := pi.driveTimed()
			if err != nil {
				return nil, err
			}
			if !more {
				break
			}
		}
		pi.flush()
		pi.flushTimes()
		return ex.merge(pp, rc, []*pipe{pi})
	}
	pipes, err := ex.scatter(pp, rc, pp.drive, true, builds)
	if err != nil {
		return nil, err
	}
	return ex.merge(pp, rc, pipes)
}

// merge is the client half of the plan: account what the fragments
// shipped, then concatenate, sort and limit rows — or merge the partial
// groups, apply HAVING and finish the select list.
func (ex *Executor) merge(pp *physPlan, rc *runCtx, pipes []*pipe) (*Result, error) {
	top := pp.top()
	if !pp.clientSide {
		for _, pi := range pipes {
			n, bytes := pi.out.size()
			top.Stat().Shipped.Add(n)
			rc.shippedBytes.Add(bytes)
		}
	}
	sw := metrics.StartStopwatch()
	var res *Result
	var err error
	if pp.agg != nil {
		res, err = ex.mergeGroups(pp, rc, pipes)
	} else {
		res, err = ex.mergeRows(pp, pipes)
	}
	if err != nil {
		return nil, err
	}
	top.Stat().WallNs.Add(int64(sw.Elapsed()))
	top.Stat().Rows.Store(int64(len(res.Rows)))
	return res, nil
}

// top returns the node whose sink the fragments end in: the Aggregate or
// the Project.
func (pp *physPlan) top() plan.Node {
	if pp.agg != nil {
		return pp.agg
	}
	return pp.proj
}

// outRow is one projected row with its ORDER BY keys.
type outRow struct {
	vals    []any
	sortKey []any
}

// starExpansion expands SELECT * into (qualifier, column) pairs from the
// first row the query produces, once for all fragments; an empty result
// keeps just the concrete columns.
type starExpansion struct {
	wanted bool
	once   sync.Once
	cols   [][2]string
}

func (s *starExpansion) of(jr *joinedRow) [][2]string {
	if !s.wanted {
		return nil
	}
	s.once.Do(func() {
		for i, t := range jr.tabs {
			if t == nil {
				continue
			}
			for _, c := range t.Columns() {
				s.cols = append(s.cols, [2]string{jr.srcs[i].alias, c})
			}
		}
	})
	return s.cols
}

// projectRow evaluates a plan's bound select list for one row. items holds
// the select expressions, nil for a star; starCols is the (qualifier,
// column) expansion of *. The one-shot project sink and the standing query
// (subscribe.go) both call it with the compiled plan's items, so a row
// projects the same way, through the same bound columns, in either drive
// mode.
func projectRow(ctx *evalCtx, items []Expr, starCols [][2]string, r *joinedRow) ([]any, error) {
	vals := make([]any, 0, len(items)+len(starCols))
	for _, e := range items {
		if e == nil {
			for _, sc := range starCols {
				v, _ := r.Resolve(sc[0], sc[1])
				vals = append(vals, v)
			}
			continue
		}
		v, err := ctx.eval(e, r)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// rowSink is the non-aggregate sink: evaluate the select list (and the
// ORDER BY keys) per row, where the row lives. An unordered LIMIT stops
// the sink when it alone has filled it, and every fragment once the sinks
// together have.
type rowSink struct {
	pp      *physPlan
	rc      *runCtx
	attempt bool
	rows    []outRow
}

func (s *rowSink) limited() bool { return s.pp.stmt.Limit >= 0 && len(s.pp.stmt.OrderBy) == 0 }

func (s *rowSink) add(jr *joinedRow) (bool, error) {
	if s.limited() && len(s.rows) >= s.pp.stmt.Limit {
		return false, nil
	}
	vals, err := projectRow(s.rc.ctx, s.pp.items, s.pp.star.of(jr), jr)
	if err != nil {
		return false, err
	}
	o := outRow{vals: vals}
	for _, e := range s.pp.orderBy {
		v, err := s.rc.ctx.eval(e, jr)
		if err != nil {
			return false, err
		}
		o.sortKey = append(o.sortKey, v)
	}
	s.rows = append(s.rows, o)
	if !s.attempt {
		return s.count(1), nil
	}
	return true, nil
}

// count notes n more rows toward the plan's early stop; false means the
// limit is filled and the execution was cancelled.
func (s *rowSink) count(n int) bool {
	if s.pp.earlyStop && s.rc.emitted.Add(int64(n)) >= int64(s.pp.stmt.Limit) {
		s.rc.cancel()
		return false
	}
	return true
}

func (s *rowSink) absorb(o sink) error {
	rows := o.(*rowSink).rows
	s.rows = append(s.rows, rows...)
	s.count(len(rows))
	return nil
}

func (s *rowSink) size() (int64, int64) {
	if len(s.rows) == 0 {
		return 0, 0
	}
	per := int64(24)
	for _, v := range s.rows[0].vals {
		per += estimateValueBytes(v)
	}
	return int64(len(s.rows)), per * int64(len(s.rows))
}

// rowSet is the gather sink: the source's surviving rows, whole (or
// narrowed by the scan when the table has no schema).
type rowSet struct {
	src  int
	cols []string
	rows []core.TableRow
}

func (s *rowSet) add(jr *joinedRow) (bool, error) {
	s.rows = append(s.rows, *jr.tabs[s.src])
	return true, nil
}

func (s *rowSet) absorb(o sink) error {
	s.rows = append(s.rows, o.(*rowSet).rows...)
	return nil
}

func (s *rowSet) size() (int64, int64) {
	return int64(len(s.rows)), estimateBatchBytes(s.rows, s.cols)
}

// size of a groupTable: its partial groups, each a key and its
// accumulators.
func (gt *groupTable) size() (int64, int64) {
	var bytes int64
	for _, g := range gt.order {
		bytes += int64(len(g.key)) + 32*int64(len(g.accs)) + 24
	}
	return int64(len(gt.order)), bytes
}

// mergeRows concatenates the fragments' projected rows in node order,
// sorts them when the statement orders, and applies the limit.
func (ex *Executor) mergeRows(pp *physPlan, pipes []*pipe) (*Result, error) {
	stmt := pp.stmt
	res := &Result{}
	for _, it := range stmt.Items {
		if it.Star {
			for _, sc := range pp.star.cols {
				res.Columns = append(res.Columns, sc[1])
			}
			continue
		}
		res.Columns = append(res.Columns, it.OutputName())
	}
	var outs []outRow
	for _, pi := range pipes {
		rows := pi.out.(*rowSink).rows
		if outs == nil {
			outs = rows
		} else {
			outs = append(outs, rows...)
		}
	}
	sortOutRows(stmt, outs, func(o outRow) []any { return o.sortKey })
	if stmt.Limit >= 0 && len(outs) > stmt.Limit {
		outs = outs[:stmt.Limit]
	}
	res.Rows = make([][]any, len(outs))
	for i, o := range outs {
		res.Rows[i] = o.vals
	}
	return res, nil
}

// mergeGroups merges the fragments' partial groups in node order, then
// finishes each group through HAVING and the select list.
func (ex *Executor) mergeGroups(pp *physPlan, rc *runCtx, pipes []*pipe) (*Result, error) {
	stmt := pp.stmt
	var gt *groupTable
	for _, pi := range pipes {
		o := pi.out.(*groupTable)
		if gt == nil {
			gt = o
		} else if err := gt.absorb(o); err != nil {
			return nil, err
		}
	}
	if gt == nil {
		gt = newGroupTable(pp, rc.ctx)
	}
	pp.agg.Stat().In.Add(gt.in)
	// A query with aggregates but no GROUP BY aggregates over all rows,
	// producing exactly one row even when the input is empty.
	if len(stmt.GroupBy) == 0 && len(gt.order) == 0 {
		gt.group(nil)
	}
	res := &Result{}
	for _, it := range stmt.Items {
		res.Columns = append(res.Columns, it.OutputName())
	}
	outs := make([]outRow, 0, len(gt.order))
	for _, g := range gt.order {
		vals, keep, err := finishGroup(rc.ctx, pp.having, pp.items, g)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		var sortKey []any
		for _, e := range pp.orderBy {
			v, err := evalWithAggs(rc.ctx, e, g)
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
	return res, nil
}

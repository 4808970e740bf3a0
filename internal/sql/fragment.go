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
// node's fragments back to back through one pipe — one scan buffer, one
// set of batch columns and one sink; a plan whose partitions all sit on one
// node runs on the caller's goroutine and fan-out begins with the second
// node. A pipe takes a partition a chunk of at most kv.ScanBatch rows at a
// time and runs each step over the whole chunk (batch.go): the pushed
// filter yields a selection, the co-partitioned probe looks the whole
// selection up in one loop, a general join appends its matches to a joined
// batch, the residual filter narrows that, and the sink evaluates the
// select list and ORDER BY keys — or gathers group keys and aggregate
// arguments before it folds — column by column. The only thing that
// crosses the client hop is what the sinks hold — projected rows, or one
// partial group per group per node.
//
// The client then merges: concatenate, sort and limit rows, or merge the
// partial groups and finish them as batches of groups — HAVING filters
// each batch, and the select list and ORDER BY keys are its columns. A
// LIMIT that fills, or the first error, closes the shared done channel and
// every partition read stops before its next chunk.

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
	// add consumes the batch's selected rows; more is false once the sink
	// needs no further rows.
	add(b *batch, sel []int32) (more bool, err error)
	// absorb folds in what another sink of the same plan collected: a
	// guarded partition attempt that succeeded, or — at the client — the
	// next node's output.
	absorb(o sink) error
	// size reports what the content amounts to when it ships: rows (or
	// partial groups) and estimated bytes.
	size() (rows, bytes int64)
}

// pipe is one goroutine's state for running a source's rows through the
// plan: the scan buffer, the batches, the sink and the counters, flushed
// to the plan's nodes per partition. The driving source's pipes run the
// whole pipeline (joins, residual, sink); a gathered source's pipes only
// filter and collect.
type pipe struct {
	ex  *Executor
	pp  *physPlan
	rc  *runCtx
	src int
	// whole: run the joins and the residual filter before the sink.
	whole  bool
	builds []*hashSide

	*pipeBufs
	// b is the chunk being read: the source's rows and, for a
	// co-partitioned join, what the probe found beside them. joined[k] is
	// the output of general join step k.
	b      batch
	joined []batch

	out  sink
	read func([]core.TableRow) bool
	err  error

	// The partition being read, the degraded read's snapshot ids when it
	// is served from the backup replica, and — for a co-partitioned join —
	// the other table's copy of the partition, held for the probes.
	part    int
	fb      []int64
	partner core.PartitionProbe

	st pipeStats
	tm stageTimes
}

// pipeBufs is what a pipe reads and evaluates in: the scan buffer, the
// scratch columns, and the co-partitioned probe's rows and misses. Queries
// are short and frequent, so a pipe's buffers go back to bufPool once its
// fragments are done, for the next query's pipes, instead of becoming
// garbage every query.
type pipeBufs struct {
	scan      core.ScanBuf
	sc        scratch
	probe     []core.TableRow
	probeMiss []bool
}

var bufPool = sync.Pool{New: func() any { return new(pipeBufs) }}

// release hands the pipe's buffers back to the pool; only its sink and
// counters remain usable.
func (pi *pipe) release() {
	bufPool.Put(pi.pipeBufs)
	pi.pipeBufs = nil
}

// stageTimes splits a fragment's wall time between the plan's nodes: each
// chunk's join steps and residual, and its sink, are clocked once per
// chunk.
type stageTimes struct {
	joinNs, sinkNs int64
}

// pipeStats are one pipe's counters since its last flush.
type pipeStats struct {
	examined, kept      int64 // rows read of the source / that passed its pushed filter
	probes, hits, pkept int64 // co-partitioned probe: lookups, found, passed the probed side's filter
	joined              []int64
	residIn, residKept  int64
}

func (ex *Executor) newPipe(pp *physPlan, rc *runCtx, src int, whole bool, builds []*hashSide) *pipe {
	pi := &pipe{ex: ex, pp: pp, rc: rc, src: src, whole: whole, builds: builds}
	pi.pipeBufs = bufPool.Get().(*pipeBufs)
	pi.b = newBatch(pp.srcs, &pi.sc)
	pi.st.joined = make([]int64, len(pp.joins))
	pi.read = pi.chunk
	switch {
	case !whole:
		s := &pp.srcs[src]
		// A gathered row with no schema ships narrowed by name.
		pi.out = &rowSet{src: src, cols: s.cols, narrow: s.schema == nil && s.cols != nil}
		return pi
	case pp.agg != nil:
		pi.out = newGroupTable(pp, rc.ctx)
	default:
		pi.out = &rowSink{pp: pp, rc: rc}
	}
	if !pp.coPart {
		pi.joined = make([]batch, len(pp.joins))
		for k := range pi.joined {
			jb := newBatch(pp.srcs, &pi.sc)
			for s := 0; s <= k+1; s++ {
				jb.cols[s] = []core.TableRow{}
				if s > 0 && pp.joins[s-1].outer {
					jb.miss[s] = []bool{}
				}
			}
			pi.joined[k] = jb
		}
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

// chunk is the callback of the partition read: filter one chunk of the
// source's rows, then run what passed through the rest of the plan. false
// stops the read; an error stays in pi.err.
func (pi *pipe) chunk(rows []core.TableRow) bool {
	b := &pi.b
	b.n = len(rows)
	clear(b.cols)
	clear(b.miss)
	b.cols[pi.src] = rows
	kept := pi.sc.sel(b.n)
	defer pi.sc.dropSel()
	kept, err := pi.rc.ctx.filterBatch(pi.pp.pushedB[pi.src], b, ident[:b.n], kept)
	pi.st.examined += int64(len(rows))
	pi.st.kept += int64(len(kept))
	if err == nil && len(kept) > 0 {
		var more bool
		if more, err = pi.drive(kept); err == nil {
			return more
		}
	}
	pi.err = err
	return err == nil
}

// clock reads the execution's monotonic clock.
func (pi *pipe) clock() int64 { return int64(time.Since(pi.rc.ctx.now)) }

// drive takes the chunk's kept rows the rest of the way, clocking the join
// steps and the sink.
func (pi *pipe) drive(sel []int32) (bool, error) {
	if !pi.whole {
		return pi.out.add(&pi.b, sel)
	}
	t0, sink0 := pi.clock(), pi.tm.sinkNs
	var more bool
	var err error
	if pi.pp.coPart {
		more, err = pi.coProbe(sel)
	} else {
		more, err = pi.join(0, &pi.b, sel)
	}
	pi.tm.joinNs += pi.clock() - t0 - (pi.tm.sinkNs - sink0)
	return more, err
}

// coProbe is the co-partitioned join step: look every selected driving
// row's key up in the other table's copy of the partition being read, at
// that table's resolved snapshot id, in one loop; then keep the hits whose
// keys are join-equal and that pass the probed side's pushed filter. A
// LEFT JOIN, driven from its left side, keeps its misses with the right
// side absent.
func (pi *pipe) coProbe(sel []int32) (bool, error) {
	b, d := &pi.b, pi.pp.drive
	o := 1 - d
	pi.probe = grow(pi.probe, b.n)
	pi.probeMiss = grow(pi.probeMiss, b.n)
	probe, found, drv := pi.probe, pi.probeMiss, b.cols[d]
	for _, i := range sel {
		probe[i], found[i] = pi.partner.Lookup(partition.KeyString(drv[i].Key))
	}
	b.cols[o] = probe
	hits := pi.sc.sel(len(sel))
	defer pi.sc.dropSel()
	for _, i := range sel {
		// Keys that render alike but are not join-equal (the string "5" and
		// the integer 5) share a slot in no table, but can across two.
		if found[i] && joinEqual(probe[i].Key, drv[i].Key) {
			hits = append(hits, i)
		}
	}
	pkept := pi.sc.sel(len(hits))
	defer pi.sc.dropSel()
	pkept, err := pi.rc.ctx.filterBatch(pi.pp.pushedB[o], b, hits, pkept)
	if err != nil {
		return false, err
	}
	pi.st.probes += int64(len(sel))
	pi.st.hits += int64(len(hits))
	pi.st.pkept += int64(len(pkept))
	if !pi.pp.joins[0].outer {
		pi.st.joined[0] += int64(len(pkept))
		return pi.emit(b, pkept)
	}
	// The outer side keeps no pushed filter, so every hit stays; every
	// other selected row is a miss. The found column becomes the misses.
	miss := found
	for _, i := range sel {
		miss[i] = true
	}
	for _, i := range hits {
		miss[i] = false
	}
	b.miss[o] = miss
	pi.st.joined[0] += int64(len(sel))
	return pi.emit(b, sel)
}

// joinEqual reports whether two partition keys are join-equal: two
// strings when they are equal, any other pair when their join keys are.
func joinEqual(a, b partition.Key) bool {
	if x, ok := a.(string); ok {
		if y, ok := b.(string); ok {
			return x == y
		}
	}
	return makeJoinKey(a) == makeJoinKey(b)
}

// join runs general join step k over the selected rows of in, and
// everything after it: evaluate the key over the sources to its left for
// the whole selection, then probe the hash table of the gathered right
// side row by row, appending every match — or, for a LEFT JOIN, the miss —
// to the step's joined batch, which runs on through the rest of the plan
// whenever it fills and once at the end.
func (pi *pipe) join(k int, in *batch, sel []int32) (bool, error) {
	if k == len(pi.pp.joins) {
		return pi.emit(in, sel)
	}
	js, out, build := &pi.pp.joins[k], &pi.joined[k], pi.builds[k]
	keys := pi.sc.datums(in.n)
	defer pi.sc.dropDatums(1)
	if err := pi.rc.ctx.evalBatch(js.left, in, sel, keys); err != nil {
		return false, err
	}
	add := func(i int32, r *core.TableRow) (bool, error) {
		out.push(in, i, k+1, r)
		pi.st.joined[k]++
		if out.n < kv.ScanBatch {
			return true, nil
		}
		return pi.joinNext(k)
	}
	for _, i := range sel {
		matches := build.idx[keys[i].joinKey()]
		if len(matches) == 0 && js.outer {
			if more, err := add(i, nil); err != nil || !more {
				return more, err
			}
		}
		for _, m := range matches {
			if more, err := add(i, &build.rows[m]); err != nil || !more {
				return more, err
			}
		}
	}
	if out.n == 0 {
		return true, nil
	}
	return pi.joinNext(k)
}

// joinNext runs join step k's joined batch through the rest of the plan
// and empties it.
func (pi *pipe) joinNext(k int) (bool, error) {
	out := &pi.joined[k]
	more, err := pi.join(k+1, out, ident[:out.n])
	out.reset()
	return more, err
}

// emit tests the residual filter over the selected rows and hands the
// survivors to the sink.
func (pi *pipe) emit(b *batch, sel []int32) (bool, error) {
	if pi.pp.residualB.e != nil {
		kept := pi.sc.sel(len(sel))
		defer pi.sc.dropSel()
		kept, err := pi.rc.ctx.filterBatch(pi.pp.residualB, b, sel, kept)
		if err != nil {
			return false, err
		}
		pi.st.residIn += int64(len(sel))
		pi.st.residKept += int64(len(kept))
		sel = kept
	}
	if len(sel) == 0 {
		return true, nil
	}
	t0 := pi.clock()
	more, err := pi.out.add(b, sel)
	pi.tm.sinkNs += pi.clock() - t0
	return more, err
}

// flushTimes attributes the pipe's clocked stage times to the join and
// sink nodes, and takes them off the driving scan's wall time — which the
// partition reads recorded whole.
func (pi *pipe) flushTimes() {
	tm, pp := &pi.tm, pi.pp
	moved := tm.sinkNs
	pp.top().Stat().WallNs.Add(tm.sinkNs)
	if pp.join != nil {
		pp.join.Stat().WallNs.Add(tm.joinNs)
		moved += tm.joinNs
	}
	if scan := pp.scans[pi.src].Stat(); !pp.clientSide {
		scan.WallNs.Add(-min(moved, scan.WallNs.Load()))
	}
	pi.tm = stageTimes{}
}

// readPartition reads partition p of the pipe's source through the plan's
// access path and runs every chunk through the pipe. fb, when non-nil,
// makes it the degraded read: from the backup replica, at these snapshot
// ids.
func (pi *pipe) readPartition(p int, fb []int64) error {
	s := &pi.pp.srcs[pi.src]
	pi.part, pi.fb, pi.err = p, fb, nil
	if pi.whole && pi.pp.coPart {
		o := &pi.pp.srcs[1-pi.pp.drive]
		if fb != nil {
			pi.partner = o.ref.ProbeFallback(p, fb[1-pi.pp.drive])
		} else {
			pi.partner = o.ref.Probe(p, o.ssid)
		}
	}
	spec := core.ScanSpec{SSID: s.ssid, Path: s.path, Done: pi.rc.done, Buf: &pi.scan}
	if fb != nil {
		spec.SSID = fb[pi.src]
		s.ref.ScanPartitionFallbackSpec(p, spec, pi.read)
	} else {
		s.ref.ScanPartitionSpec(p, spec, pi.read)
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
	for _, pi := range pipes {
		if pi != nil {
			pi.release()
		}
	}
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
		// the same pipe over it, a chunk at a time.
		rows, err := ex.gather(pp, rc, 0)
		if err != nil {
			return nil, err
		}
		pi := ex.newPipe(pp, rc, 0, true, builds)
		for len(rows) > 0 {
			n := min(len(rows), kv.ScanBatch)
			if !pi.chunk(rows[:n]) {
				break
			}
			rows = rows[n:]
		}
		pi.release()
		if pi.err != nil {
			return nil, pi.err
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

// project evaluates expressions — a select list or ORDER BY keys — over
// the selected positions of b, each as one column, and boxes the values
// row by row into one slab of w values per position: position sel[k]'s
// row is rowAt(slab, w, k). A nil item is SELECT *, which expands to
// starCols, read by name. The one-shot project sink, group finishing and
// the standing query all project through it, so a row projects the same
// way, through the same bound columns, in every drive mode.
func (c *evalCtx) project(items []Expr, starCols [][2]string, b *batch, sel []int32) (slab []any, w int, err error) {
	for _, e := range items {
		if e == nil {
			w += len(starCols)
		} else {
			w++
		}
	}
	if w == 0 || len(sel) == 0 {
		return nil, w, nil
	}
	slab = make([]any, len(sel)*w)
	col := b.sc.datums(b.n)
	defer b.sc.dropDatums(1)
	at := 0 // the column of slab the next item fills
	for _, e := range items {
		if e == nil {
			for k, i := range sel {
				jr := b.row(i)
				for j, sc := range starCols {
					slab[k*w+at+j], _ = jr.Resolve(sc[0], sc[1])
				}
			}
			at += len(starCols)
			continue
		}
		if err := c.evalBatch(e, b, sel, col); err != nil {
			return nil, 0, err
		}
		for k, i := range sel {
			slab[k*w+at] = col[i].box()
		}
		at++
	}
	return slab, w, nil
}

// rowAt is the k-th row of w values of a slab project filled.
func rowAt(slab []any, w, k int) []any { return slab[k*w : (k+1)*w : (k+1)*w] }

// rowSink is the non-aggregate sink: evaluate the select list (and the
// ORDER BY keys) over each batch, where the rows live. An unordered LIMIT
// stops the sink when it alone has filled it, and every fragment once the
// sinks together have.
type rowSink struct {
	pp      *physPlan
	rc      *runCtx
	attempt bool
	rows    []outRow
}

func (s *rowSink) limited() bool { return s.pp.stmt.Limit >= 0 && len(s.pp.stmt.OrderBy) == 0 }

func (s *rowSink) add(b *batch, sel []int32) (bool, error) {
	more := true
	if room := s.pp.stmt.Limit - len(s.rows); s.limited() && room <= len(sel) {
		sel, more = sel[:max(room, 0)], false
	}
	if len(sel) == 0 {
		return more, nil
	}
	vals, w, err := s.rc.ctx.project(s.pp.items, s.pp.star.of(b.row(sel[0])), b, sel)
	if err != nil {
		return false, err
	}
	keys, kw, err := s.rc.ctx.project(s.pp.orderBy, nil, b, sel)
	if err != nil {
		return false, err
	}
	for k := range sel {
		s.rows = append(s.rows, outRow{vals: rowAt(vals, w, k), sortKey: rowAt(keys, kw, k)})
	}
	if !s.attempt && !s.count(len(sel)) {
		return false, nil
	}
	return more, nil
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

// rowSet is the gather sink: the source's surviving rows, whole, or
// narrowed by name to cols when the table has no schema.
type rowSet struct {
	src    int
	cols   []string
	narrow bool
	rows   []core.TableRow
}

func (s *rowSet) add(b *batch, sel []int32) (bool, error) {
	rows := b.cols[s.src]
	for _, i := range sel {
		r := rows[i]
		if s.narrow {
			r = core.NarrowRow(r, s.cols)
		}
		s.rows = append(s.rows, r)
	}
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
// finishes them through HAVING, the select list and the ORDER BY keys.
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
	err := newFinisher(pp.srcs).finish(rc.ctx, pp, gt.order, func(_ int, vals, sortKey []any) {
		outs = append(outs, outRow{vals: vals, sortKey: sortKey})
	})
	if err != nil {
		return nil, err
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

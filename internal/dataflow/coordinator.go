package dataflow

import (
	"errors"
	"fmt"
	"time"

	"squery/internal/core"
	"squery/internal/trace"
)

// The checkpoint coordinator implements the paper's snapshot protocol end
// to end: it injects barriers carrying a fresh snapshot id into every
// source (the markers of Figure 3), waits for the phase-1 ack of every
// live instance (all operators aligned and their state written to the
// state store), then commits — atomically publishing the id as the latest
// queryable snapshot and pruning evicted versions. The two latencies the
// paper plots in Figures 10–12 are measured here: injection→all-prepared
// and injection→committed.
//
// Under partial failures (see internal/chaos) the protocol must not hang:
// when Config.CheckpointTimeout is set, a checkpoint whose acks do not all
// arrive in time is aborted through the registry's Abort path and retried
// with exponential backoff under a fresh snapshot id. Workers treat a
// barrier with a higher id than their in-flight alignment as superseding
// it (the aborted round's stash is released and alignment restarts), so an
// abort needs no extra control messages.

// ErrConcurrentCheckpoint is returned by CheckpointNow when another
// CheckpointNow call is still in flight; the two would race for acks.
var ErrConcurrentCheckpoint = errors.New("dataflow: a checkpoint is already in progress")

// ckptOutcome classifies one checkpoint attempt.
type ckptOutcome int

const (
	// ckptCommitted: the snapshot was published.
	ckptCommitted ckptOutcome = iota
	// ckptAborted: the phase-1 deadline expired, or a pin or the commit
	// failed; the id was aborted and the attempt may be retried under a
	// fresh id.
	ckptAborted
	// ckptStopped: the job is shutting down (or crashed mid-2PC); do not
	// retry.
	ckptStopped
	// ckptSkipped: nothing to checkpoint (all instances finished) or a
	// previous checkpoint still holds the registry.
	ckptSkipped
)

// retireMsg signals that an instance exited naturally (finite source
// drained); the coordinator stops expecting acks from it. For sources the
// message carries the final replay offset, which later checkpoints must
// still record: a snapshot taken after a source drained is only a
// consistent cut if recovery knows not to replay that source from zero.
type retireMsg struct {
	id     string
	offset int64 // final source offset; -1 for non-sources
}

// coordState is the per-run bookkeeping of whichever driver runs
// checkpoints (the ticker goroutine or manual CheckpointNow calls).
type coordState struct {
	retired    map[string]bool
	srcOffsets map[string]int64 // final offsets of retired sources
}

func newCoordState() *coordState {
	return &coordState{retired: map[string]bool{}, srcOffsets: map[string]int64{}}
}

func (c *coordState) note(r retireMsg) {
	c.retired[r.id] = true
	if r.offset >= 0 {
		c.srcOffsets[r.id] = r.offset
	}
}

// coordinate is the coordinator goroutine for jobs with automatic
// checkpoints.
func (j *Job) coordinate(tick <-chan time.Time, stop <-chan struct{}) {
	defer j.coordWg.Done()
	st := newCoordState()
	for {
		select {
		case <-stop:
			return
		case <-j.killCh:
			return
		case <-tick:
			// A failed commit is in the checkpoints log and the abort
			// counter; the next tick tries again.
			if out, _ := j.checkpointWithRetry(st); out == ckptStopped {
				return
			}
		}
	}
}

// CheckpointNow triggers one checkpoint synchronously and reports whether
// it committed. It is intended for jobs configured without automatic
// checkpoints (SnapshotInterval == 0); with a ticker running the two
// drivers would race for acks. Concurrent calls are serialized by an
// explicit guard: the loser returns ErrConcurrentCheckpoint immediately.
func (j *Job) CheckpointNow() error {
	if j.cfg.SnapshotInterval > 0 {
		return fmt.Errorf("dataflow: CheckpointNow is only available when SnapshotInterval is 0")
	}
	if !j.ckptMu.TryLock() {
		return ErrConcurrentCheckpoint
	}
	defer j.ckptMu.Unlock()
	j.mu.Lock()
	st := j.manualCoord
	if st == nil {
		st = newCoordState()
		j.manualCoord = st
	}
	j.mu.Unlock()
	switch out, err := j.checkpointWithRetry(st); {
	case out == ckptCommitted:
		// Non-nil only when stable storage failed to drop evicted
		// snapshots after the commit (core.ErrPruneFailed).
		return err
	case out == ckptAborted && err != nil:
		return fmt.Errorf("dataflow: checkpoint aborted: %w", err)
	case out == ckptAborted:
		return fmt.Errorf("dataflow: checkpoint aborted: phase-1 deadline %s exceeded %d time(s)",
			j.cfg.CheckpointTimeout, j.cfg.CheckpointRetries+1)
	default:
		return fmt.Errorf("dataflow: checkpoint did not commit (job stopping or all instances finished)")
	}
}

// CheckpointAborts returns the number of checkpoints aborted so far
// (deadline expiry, job kill, or injected crash) across the job's life,
// including restarts.
func (j *Job) CheckpointAborts() int64 { return j.ckptAborts.Load() }

// checkpointWithRetry drives one logical checkpoint: an aborted attempt
// is retried under a fresh snapshot id with exponential backoff, up to
// Config.CheckpointRetries times. The error is the last attempt's pin or
// commit failure, if that is how it ended.
func (j *Job) checkpointWithRetry(st *coordState) (ckptOutcome, error) {
	for attempt := 0; ; attempt++ {
		out, err := j.checkpointOnce(st, attempt)
		if out != ckptAborted || attempt >= j.cfg.CheckpointRetries {
			return out, err
		}
		j.ckptIns.retries.Inc()
		backoff := j.cfg.CheckpointBackoff << attempt
		select {
		case <-time.After(backoff):
		case <-j.killCh:
			return ckptStopped, nil
		}
	}
}

// checkpointOnce runs one full 2PC checkpoint attempt. A non-nil error is
// a failed pin or commit: with ckptAborted an instance could not pin its
// state or the durable copy could not be written, and the id was rolled
// back; with ckptCommitted only the pruning of evicted snapshots from
// stable storage failed.
func (j *Job) checkpointOnce(st *coordState, attempt int) (ckptOutcome, error) {
	// Collect retirements that happened since the last checkpoint, and
	// purge drain acknowledgements left over from aborted rounds.
	j.drainRetired(st)
	j.purgeDrains()
	needed := j.acksNeeded - len(st.retired)
	if needed <= 0 {
		return ckptSkipped, nil
	}
	// Fence the whole 2PC against partition migrations: a migration
	// committing between the prepares of two instances could move a
	// partition across the cut, counting its state twice or not at all.
	// The gate is read-side, and the rebalancer takes the write side per
	// move — so checkpoints interleave with a long rebalance move-by-move
	// instead of starving behind it.
	release := j.clu.CheckpointGate()
	defer release()
	ssid, err := j.mgr.Begin()
	if err != nil {
		// A previous checkpoint still holds the registry — either a second
		// coordinator (should not happen) or an in-flight id abandoned by
		// an injected crash that recovery has not aborted yet. Skip this
		// tick like Jet does.
		return ckptSkipped, nil
	}

	// One trace per snapshot id: the root span covers the full 2PC;
	// barrier injection, each worker's alignment wait, pin and drain, and the
	// two commit phases hang off it as children. Checkpoints are rare, so
	// they bypass head sampling. Everything below is nil-safe when
	// tracing is off.
	tr := j.cfg.Tracer
	root := tr.StartTrace("checkpoint", trace.KindCheckpoint)
	root.SetVertex(j.cfg.Name, -1)
	root.SetSSID(ssid)
	if attempt > 0 {
		root.SetNote(fmt.Sprintf("retry attempt %d", attempt))
	}
	if root != nil {
		j.noteCkptTrace(ssid, root.Context())
	}
	// child emits a completed coordinator-side child span of the root.
	child := func(name string, start time.Time, dur time.Duration, vertex string, instance int, failed bool) {
		if root == nil {
			return
		}
		tr.Emit(trace.SpanData{
			TraceID: root.Context().TraceID, SpanID: tr.NewID(),
			ParentID: root.Context().SpanID,
			Name:     name, Kind: trace.KindCheckpoint,
			Vertex: vertex, Instance: instance, SSID: ssid,
			Start: start, Dur: dur, Failed: failed,
		})
	}

	// Phase-1 deadline: a nil channel never fires, so zero timeout keeps
	// the wait unbounded.
	var deadline <-chan time.Time
	if j.cfg.CheckpointTimeout > 0 {
		tm := time.NewTimer(j.cfg.CheckpointTimeout)
		defer tm.Stop()
		deadline = tm.C
	}
	start := time.Now()
	// noteAbort rolls the in-flight id back and counts the abort; outcome
	// names why in the checkpoints event log. The trace root is closed as
	// failed — aborted checkpoints never leave an open span behind.
	var commitErr error // set before noteAbort when a failed pin or commit is why
	noteAbort := func(outcome string) {
		j.mgr.Abort(ssid)
		j.ckptAborts.Add(1)
		j.ckptIns.aborts.Inc()
		event := map[string]any{
			"job": j.cfg.Name, "ssid": ssid, "outcome": outcome,
			"attempt": attempt, "phase1Us": time.Since(start).Microseconds(),
			"totalUs": time.Since(start).Microseconds(),
		}
		if commitErr != nil {
			event["error"] = commitErr.Error()
		}
		j.ckptIns.log.Append(event)
		root.Fail(outcome)
	}
	abort := func() ckptOutcome {
		noteAbort("aborted")
		return ckptAborted
	}
	// Inject barriers into all live sources, subject to injected faults:
	// a dropped barrier leaves the ack missing and the deadline aborts.
	j.mu.Lock()
	sources := j.sources
	j.mu.Unlock()
	hook := j.cfg.Chaos
	injStart := time.Now()
	for _, sw := range sources {
		if st.retired[offsetKey(sw.vertex, sw.instance)] {
			continue
		}
		if hook != nil {
			fate := hook.BarrierFate(ssid, sw.vertex, sw.instance, sw.node)
			if fate.Drop {
				// The fault is visible in the trace: the barrier this
				// source never saw is exactly why phase 1 will stall.
				child("barrier_dropped", time.Now(), 0, sw.vertex, sw.instance, true)
				continue
			}
			if fate.Delay > 0 {
				delayStart := time.Now()
				select {
				case <-time.After(fate.Delay):
					child("barrier_delayed", delayStart, fate.Delay, sw.vertex, sw.instance, false)
				case <-j.killCh:
					noteAbort("stopped")
					return ckptStopped, nil
				}
			}
		}
		select {
		case sw.barrierCh <- ssid:
		case <-deadline:
			return abort(), nil
		case <-j.killCh:
			noteAbort("stopped")
			return ckptStopped, nil
		}
	}
	child("barrier_inject", injStart, time.Since(injStart), j.cfg.Name, -1, false)

	// Phase 1: wait for every live instance to pin.
	offsets := map[string]int64{}
	acked := map[string]bool{}
	got := 0
	drainsExpected := 0
	for got < needed {
		select {
		case a := <-j.ackCh:
			if a.ssid != ssid {
				continue // stale ack from an aborted checkpoint
			}
			id := offsetKey(a.vertex, a.instance)
			if acked[id] {
				continue // duplicate delivery
			}
			if a.err != nil {
				// The instance could not pin its state: abort the id like a
				// failed commit, and let the retry policy decide.
				commitErr = fmt.Errorf("%s[%d]: snapshot pin failed: %w", a.vertex, a.instance, a.err)
				noteAbort("pin failed")
				return ckptAborted, commitErr
			}
			acked[id] = true
			got++
			if a.drains {
				drainsExpected++
			}
			if a.offset >= 0 {
				offsets[id] = a.offset
			}
		case r := <-j.retiredCh:
			if !st.retired[r.id] {
				st.note(r)
				if !acked[r.id] {
					// A stateful instance that finished before acking never
					// snapshotted its tail state — the versions written since
					// the last checkpoint exist only in its (now gone) live
					// run. Publishing this cut would pair post-retirement
					// source offsets with pre-retirement state and silently
					// lose records on recovery. The instance is not coming
					// back, so a retry cannot help either: give up on the id.
					if j.statefulIDs[r.id] {
						noteAbort("stateful instance retired mid-checkpoint")
						return ckptSkipped, nil
					}
					needed--
				}
			}
		case <-deadline:
			return abort(), nil
		case <-j.killCh:
			noteAbort("stopped")
			return ckptStopped, nil
		}
	}
	phase1 := time.Since(start)

	// Drain gate: instances that pinned instead of serializing resumed
	// processing at the barrier, but their deltas are still in flight —
	// commit must not publish until every drain has landed in the state
	// store. The drain wait shares the phase-1 deadline budget; a stall
	// here aborts and retries like a lost ack would.
	drained := map[string]bool{}
	deltaKeys := 0
	var drainDur time.Duration
	for drainsGot := 0; drainsGot < drainsExpected; {
		select {
		case d := <-j.drainCh:
			if d.ssid != ssid {
				continue // late drain of an aborted round
			}
			id := offsetKey(d.vertex, d.instance)
			if drained[id] {
				continue
			}
			drained[id] = true
			drainsGot++
			deltaKeys += d.written
			j.ckptIns.drainLag.Record(d.lag)
		case r := <-j.retiredCh:
			// A retiring instance's drainer outlives it (drainers are
			// job-scoped), so its expected drain still arrives; just record
			// the retirement for the next round.
			if !st.retired[r.id] {
				st.note(r)
			}
		case <-deadline:
			return abort(), nil
		case <-j.killCh:
			noteAbort("stopped")
			return ckptStopped, nil
		}
	}
	if drainsExpected > 0 {
		drainDur = time.Since(start) - phase1
	}

	// Injected coordinator death between phase 1 and commit: the id stays
	// in flight (recovery's cleanup aborts it — it must never publish) and
	// the job crashes, optionally taking a cluster node with it.
	if hook != nil {
		if crash, node := hook.CrashPreCommit(ssid); crash {
			// The id is aborted by recovery, not here — but the trace must
			// still close: mark the root failed so the crash is visible on
			// /tracez instead of leaving a dangling open span.
			root.Fail("crashed pre-commit")
			go j.crashAndRecover(node)
			return ckptStopped, nil
		}
	}

	// Persist source offsets as part of the snapshot — including the
	// final offsets of sources that already drained — then phase 2:
	// atomic publication + pruning.
	for id, off := range st.srcOffsets {
		if _, live := offsets[id]; !live {
			offsets[id] = off
		}
	}
	j.saveOffsets(ssid, offsets)
	var evicted []int64
	evicted, commitErr = j.mgr.Commit(ssid)
	if commitErr != nil && !errors.Is(commitErr, core.ErrPruneFailed) {
		// Stable storage refused the snapshot: nothing was published. Roll
		// the id back like a missed deadline would; the job keeps running
		// and the next attempt persists what this one could not.
		j.dropOffsets([]int64{ssid})
		noteAbort("commit failed")
		return ckptAborted, commitErr
	}
	j.dropOffsets(evicted)
	total := time.Since(start)
	j.requestCompaction()

	j.phase1Hist.Record(phase1)
	j.totalHist.Record(total)
	j.ckptIns.commits.Inc()
	j.ckptIns.phase1.Record(phase1)
	j.ckptIns.phase2.Record(total - phase1 - drainDur)
	j.ckptIns.total.Record(total)
	event := map[string]any{
		"job": j.cfg.Name, "ssid": ssid, "outcome": "committed",
		"attempt": attempt, "phase1Us": phase1.Microseconds(),
		"totalUs": total.Microseconds(),
		"drainUs": drainDur.Microseconds(), "deltaKeys": deltaKeys,
	}
	// Surface what the persisted commit wrote — segment mix, bytes,
	// chain depth — on the event log and the registry, so sys.checkpoints
	// and the obs plane see the incremental-persistence behaviour.
	if pi := j.mgr.LastPersist(); pi.SSID == ssid {
		event["persistMode"] = pi.Mode
		event["persistBytes"] = pi.Bytes
		event["persistEntries"] = pi.Entries
		event["chainLen"] = pi.ChainLen
		j.ckptIns.deltaSegs.Add(int64(pi.DeltaSegs))
		j.ckptIns.fullSegs.Add(int64(pi.FullSegs))
		j.ckptIns.compactions.Add(int64(pi.Compactions))
		j.ckptIns.chainLen.Set(int64(pi.ChainLen))
	}
	if commitErr != nil {
		event["pruneError"] = commitErr.Error()
	}
	j.ckptIns.log.Append(event)
	child("phase1", start, phase1, j.cfg.Name, -1, false)
	if drainDur > 0 {
		child("drain_wait", start.Add(phase1), drainDur, j.cfg.Name, -1, false)
	}
	child("phase2", start.Add(phase1+drainDur), total-phase1-drainDur, j.cfg.Name, -1, false)
	root.End()
	return ckptCommitted, commitErr
}

// purgeDrains discards drain acknowledgements queued by rounds that no
// longer matter (aborted checkpoints whose drains completed late), so
// the channel never fills between checkpoints.
func (j *Job) purgeDrains() {
	for {
		select {
		case <-j.drainCh:
		default:
			return
		}
	}
}

func (j *Job) drainRetired(st *coordState) {
	for {
		select {
		case r := <-j.retiredCh:
			st.note(r)
		default:
			return
		}
	}
}

// retire notifies the coordinator that an instance exited naturally.
// Sources pass their final offset; other instances pass -1.
func (j *Job) retire(vertex string, instance int, offset int64) {
	select {
	case j.retiredCh <- retireMsg{id: offsetKey(vertex, instance), offset: offset}:
	default:
		// Buffer full can only mean the job is tearing down.
	}
}

// requestCompaction asks every drainer to merge its instance's snapshot
// runs against the window a commit just moved — the versions the commit
// evicted go, and the runs it made durable may fold — off the commit path.
func (j *Job) requestCompaction() {
	j.mu.Lock()
	workers := j.workers
	j.mu.Unlock()
	for _, w := range workers {
		if w.drain == nil {
			continue
		}
		select {
		case w.drain.compact <- struct{}{}:
		default:
		}
	}
}

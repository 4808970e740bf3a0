package dataflow

import (
	"sync/atomic"
	"time"

	"squery/internal/core"
	"squery/internal/trace"
)

// edgeOut is the output side of one edge for one upstream instance.
type edgeOut struct {
	kind    EdgeKind
	targets []chan item
	prod    producerID
	rr      int
}

// outbox is the output side of one vertex instance, operator and source
// alike: its out edges, the kill channel that aborts a blocked send, and
// the instruments its sends charge.
type outbox struct {
	job      *Job
	vertex   string
	instance int
	node     int // cluster node the instance is scheduled on
	outs     []*edgeOut
	killCh   chan struct{}
	killed   bool
	ins      opInstruments

	// curTrace is the hop span of the traced record an operator is
	// currently processing; emit stamps it onto outgoing records so the
	// next hop parents to this one. A source stamps its records itself
	// and leaves it zero. Only the instance's goroutine touches it.
	curTrace trace.SpanContext
}

// worker runs one instance of an operator or sink vertex: a single
// goroutine consuming a bounded inbox, aligning checkpoint barriers, and
// snapshotting its state backend at each checkpoint.
type worker struct {
	outbox
	inbox     chan item
	producers int
	proc      Processor
	backend   *core.Backend
	drain     *drainer // ships backend's pins; nil with it (stateless workers)
	// emitFn is w.emit bound once: a method value made at each Process
	// call is a closure allocation per record.
	emitFn Emit

	// Barrier alignment state (§IV, Figure 3): producers that already
	// delivered the current barrier are "aligned"; their subsequent
	// items are stashed until the snapshot completes.
	aligned      map[producerID]bool
	alignedCount int
	curSSID      int64
	lastCkpt     int64 // highest ssid this instance has prepared
	stash        []item
	eos          map[producerID]bool
	// barrierStart is when the first barrier of the in-flight alignment
	// round arrived; barrier-wait is measured from it to alignment
	// completion (the stall Figure 3's top channel pays at the marker).
	barrierStart time.Time

	// Event-time state: the last watermark received per producer and
	// the operator's combined (minimum) watermark.
	wmFrom map[producerID]time.Time
	curWM  time.Time
}

func (w *worker) run() {
	defer w.job.wg.Done()
	for {
		select {
		case <-w.killCh:
			return
		case it := <-w.inbox:
			done := w.handle(it)
			if w.killed {
				return
			}
			if done {
				w.retire()
				return
			}
			if w.backend != nil && len(w.inbox) == 0 {
				// Quiescence flush: live-state mirroring is batched per
				// record-batch, and an empty inbox bounds how stale the
				// live map may get — a drained worker has fully mirrored.
				w.backend.Flush()
			}
		}
	}
}

// handle processes one inbox item; it reports whether the worker is done.
func (w *worker) handle(it item) bool {
	// Items from producers that already delivered the current barrier
	// wait until alignment completes (Figure 3a: the top channel at the
	// marker must wait for the bottom one).
	if w.aligned[it.from] {
		w.stash = append(w.stash, it)
		return false
	}
	switch it.kind {
	case kindRecord:
		w.ins.recordsIn.Inc()
		if g := w.ins.lastRecordUs; g != nil {
			// Idle detection: the wall-clock time of the last processed
			// record. Guarded so metrics-off runs skip the clock read.
			g.Set(time.Now().UnixMicro())
		}
		if hook := w.job.cfg.Chaos; hook != nil {
			if d := hook.StageDelay(w.vertex, w.instance, w.node); d > 0 {
				// Interruptible: a frozen stage must not hold Stop hostage
				// for the remainder of the injected delay.
				select {
				case <-time.After(d):
				case <-w.killCh:
				}
			}
		}
		tr := w.job.cfg.Tracer
		if tr == nil || !it.rec.Trace.Valid() {
			w.proc.Process(it.rec, w.emitFn)
			break
		}
		// Traced record: one hop span per operator instance. Queue wait
		// (enqueue→dequeue, including any alignment stall while stashed)
		// is recorded separately from process time.
		sp := tr.StartChild(it.rec.Trace, "hop", trace.KindRecord)
		sp.SetVertex(w.vertex, w.instance)
		if !it.enq.IsZero() {
			sp.SetQueueWait(time.Since(it.enq))
		}
		w.curTrace = sp.Context()
		w.proc.Process(it.rec, w.emitFn)
		w.curTrace = trace.SpanContext{}
		sp.End()
	case kindBarrier:
		if it.ssid <= w.lastCkpt {
			// Duplicate or stale barrier — from an aborted checkpoint that
			// this instance already superseded, or an injected duplicate.
			return false
		}
		if w.alignedCount > 0 && it.ssid > w.curSSID {
			// A higher barrier supersedes an in-flight alignment: the
			// coordinator aborted the old checkpoint (phase-1 deadline) and
			// retried under a fresh id. Release the old round's stash and
			// restart alignment — no extra control messages needed. The
			// abandoned round's partial wait is still closed as a failed
			// span so the aborted trace accounts for it.
			w.emitCkptSpan("align_superseded", w.curSSID, w.barrierStart, true)
			if done := w.resetAlignment(); done {
				return true
			}
		}
		if w.alignedCount == 0 {
			w.barrierStart = time.Now()
		}
		w.aligned[it.from] = true
		w.alignedCount++
		w.curSSID = it.ssid
		if w.alignmentComplete() {
			return w.completeCheckpoint()
		}
	case kindWatermark:
		w.handleWatermark(it)
	case kindEOS:
		w.eos[it.from] = true
		// A finished producer no longer gates the combined watermark.
		w.advanceWatermark()
		// A finished producer can no longer deliver barriers; check
		// whether it was the last straggler of an in-flight alignment.
		if w.alignedCount > 0 && w.alignmentComplete() {
			if done := w.completeCheckpoint(); done {
				return true
			}
		}
		if len(w.eos) == w.producers {
			w.finish()
			return true
		}
	}
	return false
}

// handleWatermark records a producer's watermark and advances the
// operator watermark when the minimum over live producers moves.
func (w *worker) handleWatermark(it item) {
	if w.wmFrom == nil {
		w.wmFrom = make(map[producerID]time.Time, w.producers)
	}
	if cur, ok := w.wmFrom[it.from]; !ok || it.wm.After(cur) {
		w.wmFrom[it.from] = it.wm
	}
	w.advanceWatermark()
}

func (w *worker) advanceWatermark() {
	// The combined watermark is the minimum over live producers; it can
	// only advance once every live producer has reported.
	var min time.Time
	reported := 0
	for p, t := range w.wmFrom {
		if w.eos[p] {
			continue
		}
		reported++
		if min.IsZero() || t.Before(min) {
			min = t
		}
	}
	if reported < w.producers-len(w.eos) || reported == 0 {
		return
	}
	if !min.After(w.curWM) {
		return
	}
	w.curWM = min
	w.ins.watermarkUs.Set(min.UnixMicro())
	if h, ok := w.proc.(WatermarkHandler); ok {
		h.OnWatermark(min, w.emitFn)
	}
	w.broadcast(item{kind: kindWatermark, wm: min})
}

// alignmentComplete reports whether every producer still alive has
// delivered the current barrier.
func (w *worker) alignmentComplete() bool {
	live := 0
	for p := range w.aligned {
		if !w.eos[p] {
			live++
		}
	}
	needed := w.producers - len(w.eos)
	return needed > 0 && live == needed || (needed == 0 && w.alignedCount > 0)
}

// completeCheckpoint runs phase 1 for this instance: snapshot the state,
// ack the coordinator (a pin's drainer acks for it), forward the barrier
// downstream (Figure 3c), then replay the stashed items. It reports
// whether the worker finished while replaying.
func (w *worker) completeCheckpoint() bool {
	w.ins.barrierWait.Record(time.Since(w.barrierStart))
	w.ins.checkpoints.Inc()
	// Per-worker alignment wait as a child of the checkpoint trace: the
	// stall Figure 3's top channel pays at the marker, per instance.
	w.emitCkptSpan("align", w.curSSID, w.barrierStart, false)
	a := ack{ssid: w.curSSID, offset: -1}
	var pin *core.SnapshotPin
	if w.backend != nil {
		// Phase 1 is a pin: capture the version set (cheap — no
		// serialization, no KV writes) and hand it to the drainer, which
		// acks once it is stored. A failed pin is acked as the error,
		// which aborts the id; the barrier is forwarded all the same, so
		// downstream alignment completes.
		pinStart := time.Now()
		pin, a.err = w.backend.SnapshotPin(w.curSSID)
		if pin != nil {
			select {
			case w.drain.queue <- pin:
			case <-w.killCh:
				w.killed = true
				return true
			}
		}
		w.emitCkptSpan("pin", w.curSSID, pinStart, a.err != nil)
	}
	if pin == nil {
		w.passBarrier(a)
	} else {
		w.broadcast(item{kind: kindBarrier, ssid: w.curSSID})
	}
	w.lastCkpt = w.curSSID
	return w.resetAlignment()
}

// retire tells the coordinator the worker exited naturally. A stateful
// worker's retirement goes through its drainer, behind the ack of every
// pin the worker queued, and the worker waits until it is sent, so that
// Wait returning means every retirement is on its way to the coordinator.
func (w *worker) retire() {
	if w.drain == nil {
		w.job.retire(w.vertex, w.instance, -1)
		return
	}
	select {
	case w.drain.queue <- nil:
	case <-w.killCh:
		return
	}
	select {
	case <-w.drain.retired:
	case <-w.killCh:
	}
}

// emitCkptSpan attaches a completed child span for this instance to the
// coordinator's trace for ssid. A no-op when tracing is off or the trace
// is no longer tracked (the checkpoint aborted long ago and its context
// was pruned) — late spans are dropped, never leaked.
func (w *worker) emitCkptSpan(name string, ssid int64, start time.Time, failed bool) {
	tr := w.job.cfg.Tracer
	if tr == nil {
		return
	}
	ctx, ok := w.job.ckptTraceCtx(ssid)
	if !ok {
		return
	}
	tr.Emit(trace.SpanData{
		TraceID: ctx.TraceID, SpanID: tr.NewID(), ParentID: ctx.SpanID,
		Name: name, Kind: trace.KindCheckpoint,
		Vertex: w.vertex, Instance: w.instance, SSID: ssid,
		Start: start, Dur: time.Since(start), Failed: failed,
	})
}

// resetAlignment clears the alignment state and replays the stashed items
// of the finished (or superseded) round. It reports whether the worker
// finished while replaying.
func (w *worker) resetAlignment() bool {
	w.aligned = make(map[producerID]bool)
	w.alignedCount = 0
	stash := w.stash
	w.stash = nil
	for _, it := range stash {
		if w.killed {
			return true
		}
		if done := w.handle(it); done {
			return true
		}
	}
	return false
}

// finish flushes the processor and propagates end-of-stream.
func (w *worker) finish() {
	if f, ok := w.proc.(Flusher); ok {
		f.Flush(w.emitFn)
	}
	if w.backend != nil {
		// Final state the processor's Flush produced must be queryable
		// after the job drains.
		w.backend.Flush()
	}
	w.broadcast(item{kind: kindEOS})
}

// emit routes one record over every out edge. Records produced while a
// traced record is being processed inherit its hop span as parent, so the
// trace follows derived records downstream.
func (o *outbox) emit(rec Record) {
	o.ins.recordsOut.Inc()
	if o.curTrace.Valid() {
		rec.Trace = o.curTrace
	}
	for _, e := range o.outs {
		var t int
		switch e.kind {
		case EdgePartitioned:
			t = routeKey(o.job.part, rec.Key, len(e.targets))
		case EdgeForward:
			t = o.instance
		default:
			t = e.rr
			e.rr = (e.rr + 1) % len(e.targets)
		}
		it := item{kind: kindRecord, rec: rec, from: e.prod}
		if rec.Trace.Valid() {
			it.enq = time.Now()
		}
		o.send(e.targets[t], it)
	}
}

// broadcast sends a control item to every downstream instance of every
// out edge.
func (o *outbox) broadcast(it item) {
	for _, e := range o.outs {
		it := it
		it.from = e.prod
		for _, ch := range e.targets {
			o.send(ch, it)
		}
	}
}

// passBarrier completes phase 1 of checkpoint a.ssid for this instance:
// it acks the coordinator, then forwards the barrier downstream.
func (o *outbox) passBarrier(a ack) {
	a.vertex, a.instance = o.vertex, o.instance
	o.job.sendAck(a, o.node)
	o.broadcast(item{kind: kindBarrier, ssid: a.ssid})
}

// send delivers an item with backpressure; a closed kill channel aborts
// the send so failure injection cannot deadlock on full queues. The fast
// path is a non-blocking send: only a full downstream inbox pays the
// blocked-send stopwatch, so an uncongested pipeline sees no extra clock
// reads.
func (o *outbox) send(ch chan item, it item) {
	select {
	case ch <- it:
		return
	default:
	}
	start := time.Now()
	select {
	case ch <- it:
	case <-o.killCh:
		o.killed = true
	}
	d := time.Since(start)
	o.ins.noteBlocked(d)
	emitPressureSpan(o.job.cfg.Tracer, o.vertex, o.instance, start, d)
}

// pressureSpanMin is the blocked-send duration above which a health span
// is emitted — long stalls become visible on /tracez and sys.spans
// without flooding the ring with every brief full-buffer blip.
const pressureSpanMin = 5 * time.Millisecond

// emitPressureSpan records one blocked send as a single-span health trace.
func emitPressureSpan(tr *trace.Tracer, vertex string, instance int, start time.Time, d time.Duration) {
	if tr == nil || d < pressureSpanMin {
		return
	}
	id := tr.NewID()
	tr.Emit(trace.SpanData{
		TraceID: id, SpanID: id,
		Name: "backpressure:send", Kind: trace.KindHealth,
		Vertex: vertex, Instance: instance,
		Start: start, Dur: d,
		Note: "downstream inbox full",
	})
}

// sourceWorker drives one source instance: it pulls records, stamps event
// time, and injects checkpoint barriers on the coordinator's request.
type sourceWorker struct {
	outbox
	src       SourceInstance
	barrierCh chan int64
	// offset mirrors the source's replay position after every record;
	// standby failover resumes from it.
	offset *atomic.Int64

	// Watermark emission (nil = none).
	wmPolicy *WatermarkPolicy
	maxEvent time.Time
	sinceWM  int
}

// sourceIdleWait is how long an idle source waits before polling again.
// The wait it buys is not 20 µs: Go's netpoller rounds a sub-millisecond
// sleep up to about 1 ms (measured on the benchmark host: p50 1.13 ms, for
// ≈50 µs of CPU), and that rounded wake-up is the source's pacing. Changing
// the cadence belongs to the run-to-completion runtime (ROADMAP item 2);
// what is fixed here is only that each poll built a new timer and channel.
const sourceIdleWait = 20 * time.Microsecond

func (s *sourceWorker) run() {
	defer s.job.wg.Done()
	// One timer for every idle wait. It is armed only inside the idle
	// branch and always left stopped and drained, so Reset is safe.
	idle := time.NewTimer(time.Hour)
	idle.Stop()
	for {
		select {
		case <-s.killCh:
			return
		case ssid := <-s.barrierCh:
			s.checkpoint(ssid)
		default:
			rec, st := s.src.Next()
			switch st {
			case SourceDone:
				s.drainBarriers()
				s.broadcast(item{kind: kindEOS})
				s.job.retire(s.vertex, s.instance, s.src.Offset())
				return
			case SourceIdle:
				// Stay responsive to barriers and shutdown while the
				// source has nothing to offer.
				idle.Reset(sourceIdleWait)
				select {
				case <-s.killCh:
					idle.Stop()
					return
				case ssid := <-s.barrierCh:
					if !idle.Stop() {
						// Fired while the barrier was being picked: take the
						// tick so the next Reset starts from an empty channel.
						select {
						case <-idle.C:
						default:
						}
					}
					s.checkpoint(ssid)
				case <-idle.C:
				}
			default:
				if rec.EventTime.IsZero() {
					rec.EventTime = time.Now()
				}
				// Head sampling: 1-in-N records start a trace here; the
				// decision rides in rec.Trace so every downstream hop of a
				// sampled record traces, and no hop of an unsampled one does.
				if sp := s.job.cfg.Tracer.SampleRecordTrace("source", s.vertex, s.instance); sp != nil {
					rec.Trace = sp.Context()
					sp.End()
				}
				s.emit(rec)
				s.offset.Store(s.src.Offset())
				s.job.sourceOut.Inc()
				if g := s.ins.lastRecordUs; g != nil {
					g.Set(time.Now().UnixMicro())
				}
				s.maybeWatermark(rec.EventTime)
			}
		}
		if s.killed {
			return
		}
	}
}

// maybeWatermark emits a watermark every policy.Every records, lagged by
// policy.Lag behind the highest event time seen.
func (s *sourceWorker) maybeWatermark(et time.Time) {
	if s.wmPolicy == nil {
		return
	}
	if et.After(s.maxEvent) {
		s.maxEvent = et
	}
	s.sinceWM++
	if s.sinceWM < s.wmPolicy.every() {
		return
	}
	s.sinceWM = 0
	wm := s.maxEvent.Add(-s.wmPolicy.Lag)
	s.ins.watermarkUs.Set(wm.UnixMicro())
	s.broadcast(item{kind: kindWatermark, wm: wm})
}

// checkpoint is phase 1 for a source: its snapshot is the replay offset.
func (s *sourceWorker) checkpoint(ssid int64) {
	s.passBarrier(ack{ssid: ssid, offset: s.src.Offset()})
}

// drainBarriers acks any barrier requests that raced with end-of-stream
// so the coordinator's in-flight checkpoint can still complete.
func (s *sourceWorker) drainBarriers() {
	for {
		select {
		case ssid := <-s.barrierCh:
			s.checkpoint(ssid)
		default:
			return
		}
	}
}

// sendAck delivers a phase-1 ack to the coordinator without blocking the
// sender (a worker, or a stateful instance's drainer) if the job is being
// torn down. The chaos hook can drop, delay or duplicate the ack — the
// control-plane message loss the checkpoint deadline exists to survive.
func (j *Job) sendAck(a ack, node int) {
	if hook := j.cfg.Chaos; hook != nil {
		fate := hook.AckFate(a.ssid, a.vertex, a.instance, node)
		if fate.Drop {
			return
		}
		if fate.Delay > 0 {
			// Capture the current channels: after a crash-and-restart the
			// stale goroutine must drain into the closed old kill channel,
			// not pollute the new run's ack channel.
			ackCh, killCh := j.ackCh, j.killCh
			n := 1
			if fate.Duplicate {
				n = 2
			}
			go func() {
				select {
				case <-time.After(fate.Delay):
				case <-killCh:
					return
				}
				for i := 0; i < n; i++ {
					select {
					case ackCh <- a:
					case <-killCh:
						return
					}
				}
			}()
			return
		}
		if fate.Duplicate {
			j.deliverAck(a)
		}
	}
	j.deliverAck(a)
}

// deliverAck queues a on the coordinator's channel, blocking until there
// is room or the job is killed: a lost retirement would stall every later
// checkpoint.
func (j *Job) deliverAck(a ack) {
	select {
	case j.ackCh <- a:
	case <-j.killCh:
	}
}

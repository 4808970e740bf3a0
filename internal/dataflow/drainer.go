package dataflow

import (
	"time"

	"squery/internal/core"
	"squery/internal/trace"
)

// drainer ships one stateful instance's pinned snapshot deltas into the
// state store off the barrier path — the asynchronous half of Carbone et
// al.'s lightweight snapshots. The owning worker's phase 1 shrinks to a
// version pin; the drainer serializes and writes the pinned delta while
// processing resumes, and the coordinator gates phase 2 on the drain
// acknowledgements, so a committed snapshot is always fully in the
// store.
//
// The queue is FIFO, which is what makes per-key version ordering hold
// without locks: pins of the same instance drain in pin order, and
// instances own disjoint key sets.
type drainMsg struct {
	vertex   string
	instance int
	ssid     int64
	written  int
	lag      time.Duration // pin taken -> drain complete
}

type drainer struct {
	job      *Job
	backend  *core.Backend
	vertex   string
	instance int
	node     int
	// queue, killCh and drainCh are captured at creation: after a
	// crash-and-restart a stale drainer must observe the closed old kill
	// channel, never the new run's channels.
	queue   chan *core.SnapshotPin
	killCh  chan struct{}
	drainCh chan drainMsg
	// carry accumulates pins whose checkpoint round aborted before their
	// drain ran; they fold into the next live round's drain (see
	// core.FoldPins — dropping them would lose committed-state updates).
	carry *core.SnapshotPin
}

func (d *drainer) run() {
	defer d.job.drainWg.Done()
	for {
		select {
		case <-d.killCh:
			return
		case pin := <-d.queue:
			d.process(pin)
		}
	}
}

func (d *drainer) process(pin *core.SnapshotPin) {
	// Abort/supersession cancels the in-flight drain: when the pin's
	// round is no longer the in-flight checkpoint (the coordinator
	// aborted it, and possibly began a retry under a fresh id), the
	// serialization work is skipped — but the pinned versions are folded
	// into the next round, not dropped. The race with a concurrent abort
	// is benign in both directions: draining an about-to-abort pin writes
	// versions at an id that never publishes (invisible to every query
	// and restore target), and carrying it is the normal cancel path.
	if d.job.mgr.Registry().InProgress() != pin.SSID {
		d.carry = core.FoldPins(d.carry, pin)
		d.job.ckptIns.drainsAbandoned.Inc()
		return
	}
	if d.carry != nil {
		pin = core.FoldPins(d.carry, pin)
		d.carry = nil
	}
	start := time.Now()
	written := d.backend.DrainPin(pin)
	d.emitSpan(pin.SSID, start)
	select {
	case d.drainCh <- drainMsg{
		vertex: d.vertex, instance: d.instance, ssid: pin.SSID,
		written: written, lag: time.Since(pin.PinnedAt()),
	}:
	case <-d.killCh:
	}
}

// emitSpan attaches the drain as a child span of the checkpoint trace,
// next to the worker-side "pin" span.
func (d *drainer) emitSpan(ssid int64, start time.Time) {
	tr := d.job.cfg.Tracer
	if tr == nil {
		return
	}
	ctx, ok := d.job.ckptTraceCtx(ssid)
	if !ok {
		return
	}
	tr.Emit(trace.SpanData{
		TraceID: ctx.TraceID, SpanID: tr.NewID(), ParentID: ctx.SpanID,
		Name: "drain", Kind: trace.KindCheckpoint,
		Vertex: d.vertex, Instance: d.instance, SSID: ssid,
		Start: start, Dur: time.Since(start),
	})
}

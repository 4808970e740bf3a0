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
// processing resumes, and only then sends the instance's phase-1 ack, so
// a committed snapshot is always fully in the store.
//
// The queue is FIFO, which is what makes per-key version ordering hold
// without locks: pins of the same instance drain in pin order, and
// instances own disjoint key sets. Every pin drains at its own snapshot
// id, a pin of an aborted round included: its versions were cleared from
// the instance's dirty set when it was pinned, and they govern reads at
// every later id until a newer version shadows them. Should a recovery
// roll the state back past them instead, Restore marks the keys they
// disagree on changed, and the next snapshot shadows them. The worker's
// retirement takes the same queue (a nil pin), so it reaches the
// coordinator behind the ack of every pin the instance took.
type drainer struct {
	job      *Job
	backend  *core.Backend
	vertex   string
	instance int
	node     int
	// queue and killCh are captured at creation: after a crash-and-restart
	// a stale drainer must observe the closed old kill channel, never the
	// new run's.
	queue  chan *core.SnapshotPin
	killCh chan struct{}
	// retired closes once the drainer has sent the instance's retirement.
	retired chan struct{}
	// compact asks for a merge pass over the instance's snapshot runs
	// after a commit moved the retention window and the durable id; a
	// request already pending absorbs the next.
	compact chan struct{}
}

func (d *drainer) run() {
	defer d.job.drainWg.Done()
	for {
		select {
		case <-d.killCh:
			return
		case pin := <-d.queue:
			if pin == nil {
				d.job.retire(d.vertex, d.instance, -1)
				close(d.retired)
				continue
			}
			d.process(pin)
		case <-d.compact:
			d.backend.Compact()
		}
	}
}

func (d *drainer) process(pin *core.SnapshotPin) {
	start := time.Now()
	written := d.backend.DrainPin(pin)
	d.emitSpan(pin.SSID, start)
	d.job.sendAck(ack{
		vertex: d.vertex, instance: d.instance, ssid: pin.SSID, offset: -1,
		pinnedAt: pin.PinnedAt(), lag: time.Since(pin.PinnedAt()), written: written,
	}, d.node)
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

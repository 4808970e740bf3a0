package main

import (
	"sync/atomic"
	"time"

	"squery"
	"squery/bench/stats"
	"squery/internal/qcommerce"
)

// The benchmark's pipeline: one source instance, the three Q-commerce
// stateful operators at parallelism 2, one sink. Source, operator bodies
// and sink are the benchmark's own so that it can pace the offered load
// from outside, stamp state writes, and time the calls into each layer.

// epoch anchors the benchmark's clock: every timestamp is nanoseconds
// since epoch on the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

func atNs(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }

// event is the payload of every record, shared by pointer from the source
// through the operator to the sink.
type event struct {
	seq   int64 // record number, from 1
	dueNs int64 // scheduled emission time
	d     draw
	seg   int32    // segment the record was emitted in
	sp    *recSpan // timing slots of a sampled record; nil otherwise
}

// pace is one setting of the source's throttle.
type pace struct {
	seg     int32
	rate    float64 // records/s; 0 = unthrottled
	startNs int64   // due time of the first record under this pace
	first   int64   // stream position of that record
	limit   int64   // stream position to stop (idle) at
}

// pipeline is the state shared by the source, operators and sink of one
// job.
type pipeline struct {
	g *gen

	pace    atomic.Pointer[pace]
	seen    atomic.Pointer[pace] // the pace the source last polled under
	emitted atomic.Int64         // records the source has handed to the engine
	arrived atomic.Int64         // records the sink has received

	// Sink-side samples per segment: source→sink latency from the due
	// time. Only the sink goroutine writes; readers wait for the drain.
	lat []*stats.Samples
	// Source lateness (emission − due) of paced records.
	late *stats.Samples
	// Records per segment and the sink clock of each segment's first and
	// last record, for throughput.
	segN              []int64
	segFirst, segLast []int64

	rec *recorder // nil on end-to-end runs
}

func newPipeline(g *gen, segs int, rec *recorder) *pipeline {
	p := &pipeline{g: g, rec: rec,
		lat:      make([]*stats.Samples, segs),
		segN:     make([]int64, segs),
		segFirst: make([]int64, segs),
		segLast:  make([]int64, segs),
	}
	p.pace.Store(&pace{})
	return p
}

// setPace offers n more records at rate (0 = unthrottled) under segment
// seg and returns the stream position the offer ends at. The source must
// be idle: at its previous limit, or held.
func (p *pipeline) setPace(seg int, rate float64, n int64) int64 {
	first := p.emitted.Load()
	p.pace.Store(&pace{seg: int32(seg), rate: rate, startNs: nowNs(), first: first, limit: first + n})
	return first + n
}

// hold idles the source and returns its position. It waits for the
// source's next poll to acknowledge the new pace, so no record is
// emitted after hold returns.
func (p *pipeline) hold() int64 {
	pc := &pace{seg: p.pace.Load().seg}
	p.pace.Store(pc)
	for p.seen.Load() != pc {
		time.Sleep(20 * time.Microsecond)
	}
	return p.emitted.Load()
}

// drain waits until every emitted record has reached the sink.
func (p *pipeline) drain(timeout time.Duration) bool {
	return p.drainTo(p.emitted.Load(), timeout)
}

// drainTo waits until n records in total have reached the sink.
func (p *pipeline) drainTo(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for p.arrived.Load() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// source is the single source instance.
type source struct {
	p *pipeline
	n int64 // stream position: records emitted so far
}

func (s *source) Next() (squery.Record, squery.SourceStatus) {
	pc := s.p.pace.Load()
	s.p.seen.Store(pc)
	if s.n >= pc.limit {
		return squery.Record{}, squery.SourceIdle
	}
	now := nowNs()
	due := now
	if pc.rate > 0 {
		due = pc.startNs + int64(float64(s.n-pc.first)/pc.rate*1e9)
		if now < due {
			return squery.Record{}, squery.SourceIdle
		}
		s.p.late.Add(now - due)
	}
	g := s.p.g
	d := g.at(s.n)
	s.n++
	ev := &event{seq: s.n, dueNs: due, d: d, seg: pc.seg}
	g.note(d, ev.seq)
	ev.sp = s.p.rec.record(ev.seq, due, now)
	s.p.emitted.Store(s.n)
	return squery.Record{Key: g.keys[d.kind()][d.key()], Value: ev, EventTime: atNs(due)}, squery.SourceOK
}

func (s *source) Offset() int64  { return s.n }
func (s *source) Rewind(o int64) { s.n = o }

// opProc is the body of one stateful operator instance: read the key's
// state, compute its successor, write it back stamped with the clock, and
// pass the record on. Records of other tables are dropped, as in
// qcommerce.DAG where every operator sees the whole stream.
type opProc struct {
	k  kind
	st *squery.StateBackend
}

func (o *opProc) Process(rec squery.Record, emit squery.Emit) {
	ev := rec.Value.(*event)
	if ev.d.kind() != o.k {
		return
	}
	sp := ev.sp
	if sp == nil {
		cur, _ := o.st.Get(rec.Key)
		o.st.Update(rec.Key, o.next(cur, ev, nowNs()))
		emit(rec)
		return
	}
	t0 := nowNs()
	cur, _ := o.st.Get(rec.Key)
	t1 := nowNs()
	next := o.next(cur, ev, t1)
	t2 := nowNs()
	o.st.Update(rec.Key, next)
	t3 := nowNs()
	emit(rec)
	t4 := nowNs()
	sp.op = [5]int64{t0, t1, t2, t3, t4}
}

// next computes the state record ev writes. The order lifecycle is a
// read-modify-write: the new state depends on the stored one, so a lost
// or repeated update shows in the final value.
func (o *opProc) next(cur any, ev *event, stampNs int64) any {
	i := ev.d.key()
	switch o.k {
	case kInfo:
		return info(i, stampNs, ev.seq)
	case kStatus:
		step := statusStep(i, 1)
		if cur != nil {
			step = (stateIndex(cur.(OrderState).OrderState) + 1) % len(qcommerce.OrderStates)
		}
		return OrderState{
			OrderState:    qcommerce.OrderStates[step],
			LateTimestamp: lateStamp(i),
			StampNs:       stampNs,
			Seq:           ev.seq,
		}
	default:
		return rider(i, stampNs, ev.seq)
	}
}

var stateIdx = func() map[string]int {
	m := make(map[string]int, len(qcommerce.OrderStates))
	for i, s := range qcommerce.OrderStates {
		m[s] = i
	}
	return m
}()

func stateIndex(s string) int { return stateIdx[s] }

// sink is the single sink instance's body.
func (p *pipeline) sink(rec squery.Record) {
	now := nowNs()
	ev := rec.Value.(*event)
	seg := ev.seg
	if s := p.lat[seg]; s != nil {
		s.Add(now - ev.dueNs)
	}
	if p.segN[seg] == 0 {
		p.segFirst[seg] = now
	}
	p.segN[seg]++
	p.segLast[seg] = now
	if ev.sp != nil {
		ev.sp.sinkNs = now
	}
	p.arrived.Add(1)
}

// throughput is the sink's records/s in segment seg, first arrival to
// last.
func (p *pipeline) throughput(seg int) float64 {
	if d := p.segLast[seg] - p.segFirst[seg]; d > 0 {
		return float64(p.segN[seg]) / (float64(d) / 1e9)
	}
	return 0
}

// dag assembles the job graph.
func (p *pipeline) dag() *squery.DAG {
	src := &squery.Vertex{
		Name: "orders", Kind: squery.KindSource, Parallelism: 1,
		NewSource: func(int, int) squery.SourceInstance { return &source{p: p} },
	}
	d := squery.NewDAG().AddVertex(src)
	for k := kind(0); k < nKinds; k++ {
		k := k
		d.AddVertex(&squery.Vertex{
			Name: tableOf[k], Kind: squery.KindOperator, Parallelism: 2, Stateful: true,
			NewProcessor: func(ctx squery.ProcContext) squery.Processor {
				return &opProc{k: k, st: ctx.State}
			},
		})
	}
	d.AddVertex(squery.SinkVertex("sink", 1, p.sink))
	for k := kind(0); k < nKinds; k++ {
		d.Connect("orders", tableOf[k], squery.EdgePartitioned)
		d.Connect(tableOf[k], "sink", squery.EdgePartitioned)
	}
	return d
}

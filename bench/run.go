package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"squery"
	"squery/bench/stats"
)

// sqState is the state configuration of every workload: live mirroring
// and queryable snapshots, incremental so that a checkpoint is a delta of
// the Zipf hot set rather than a rewrite of every key each second.
var sqState = squery.StateConfig{Live: true, Snapshots: true, Incremental: true}

// jetState is the reference configuration: Jet's own blob snapshots, no
// queryable state (the denominator of the paper's overhead claim).
var jetState = squery.StateConfig{JetBlob: true}

// sampleBytes counts the heap the benchmark's own pre-sized sample
// buffers hold, so heap_live_mb can leave them out.
var sampleBytes atomic.Int64

func newSamples(n int) *stats.Samples {
	sampleBytes.Add(int64(n) * 8)
	return stats.NewSamples(n)
}

type runOpts struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where a traced run writes its spans; "" = nowhere
}

// result is one run's outcome.
type result struct {
	values  map[string]float64
	tallies []*tally
	notes   []string // percentiles the sample does not support, and the like
	invalid []string // why the run should be repeated as a measurement
	spans   []span
}

func (r *result) attempted() (n int64) {
	for _, t := range r.tallies {
		n += t.attempted
	}
	return n
}

func (r *result) failed() (n int64) {
	for _, t := range r.tallies {
		n += t.failed
	}
	return n
}

// traced returns a copy of w whose first segment is split in two, the
// first part run with span sampling off: comparing the parts gives the
// tracing overhead inside one process.
func (w *workload) traced() *workload {
	c := *w
	first := w.segs[0]
	a, b := first, first
	a.name, a.share = first.name+"-untraced", first.share*0.4
	b.share = first.share * 0.6
	c.segs = append([]segment{a, b}, w.segs[1:]...)
	return &c
}

// traceEvery is the record sampling period that keeps a traced run's
// record spans (eight each, sampled in the record-latency segments) under
// four fifths of maxSpans. It follows from the workload's constants, not
// from a measurement.
func (w *workload) traceEvery(seconds float64) int64 {
	var records float64
	for _, s := range w.segs[1:] {
		if s.feeds&mRecord != 0 {
			records += s.rate * s.share * seconds
		}
	}
	return max(1, int64(math.Ceil(records/(maxSpans*0.8/8))))
}

// setUpAll is the whole of set-up: engine, job, indexes, preload, first
// snapshot, subscriptions, warm-up.
func setUpAll(w *workload, o runOpts, scratch string, rec *recorder) (*env, error) {
	sampleBytes.Store(0)
	e, err := setUp(w, o.seed, o.seconds, scratch, squery.Config{}, sqState, rec)
	if err != nil {
		return nil, err
	}
	specs := append(append(filterSpecs(w.filters), aggSpecs(w.aggs)...), joinSpecs(w.joins)...)
	perSub := int(maxPaced(w, o.seconds))/4 + 1024
	if err := e.attach(specs, perSub); err != nil {
		e.close()
		return nil, err
	}
	if err := e.warm(w.segs[0].rate); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// runOnce sets the workload up, runs its window, verifies the outputs and
// assembles the metrics.
func runOnce(o runOpts) (*result, error) {
	scratch, err := scratchRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	w := o.w
	var rec *recorder
	setups := 3 // an end-to-end run reports their median as setup_s
	if o.trace {
		w = w.traced()
		rec = newRecorder()
		setups = 1
	}
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		t0 := time.Now()
		if e, err = setUpAll(w, o, scratch, rec); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { e.close() }()

	res := &result{values: map[string]float64{"setup_s": stats.Median(setupS)}}
	v := res.values

	// The window.
	before := readCounters(e)
	segRes := make([]*segResult, len(w.segs))
	var satDelta counters
	for i, s := range w.segs {
		if o.trace && i >= 1 {
			// Spans are sampled from the second segment on, records only
			// where record latency is taken: a saturated segment's queue
			// waits are not the hops the paced metrics rest on.
			rec.queries.Store(true)
			rec.every.Store(0)
			if s.feeds&mRecord != 0 {
				rec.every.Store(w.traceEvery(o.seconds))
			}
		}
		if s.feeds&mRecord != 0 {
			e.from.CompareAndSwap(0, nowNs())
			e.to.Store(math.MaxInt64)
		}
		c0 := readCounters(e)
		segRes[i], err = e.runSegment(i+1, s, o.seconds)
		if err != nil {
			return nil, err
		}
		if s.feeds&mRecord != 0 {
			e.to.Store(nowNs())
			v["dataflow.pressure_max_permille"], v["dataflow.blocked_send_max_permille"] = e.pressure()
		}
		if s.feeds&mSaturated != 0 {
			satDelta = readCounters(e).minus(c0)
		}
	}
	if rec != nil {
		rec.every.Store(0)
		rec.queries.Store(false)
	}
	window := readCounters(e).minus(before)
	v["heap_live_mb"] = heapLiveMB() - float64(sampleBytes.Load()+rec.bytes())/(1<<20)

	// Verification. The snapshot check writes on after its checkpoint,
	// so it goes first; the rest needs the pipeline quiescent.
	verify := &tally{kind: "verification"}
	subsT := &tally{kind: "subscriptions"}
	e.verifySnapshotQueries(verify)
	ls := e.scanLive()
	e.verifyState(ls, verify)
	e.verifyLiveQueries(ls, verify)
	e.verifySubs(subsT)
	records := &tally{kind: "records", attempted: e.p.emitted.Load()}
	if lost := e.p.emitted.Load() - e.p.arrived.Load(); lost > 0 {
		records.failed = lost
		records.firstErr = fmt.Errorf("%d records never reached the sink", lost)
	}
	queries := &tally{kind: "queries"}
	for _, sr := range segRes {
		queries.attempted += sr.qops.attempted.Load()
		queries.failed += sr.qops.failed.Load()
		if p := sr.qops.firstErr.Load(); p != nil && queries.firstErr == nil {
			queries.firstErr = *p
		}
	}
	ckpts := &tally{kind: "checkpoints", attempted: e.ckptOps.attempted.Load(), failed: e.ckptOps.failed.Load()}
	if p := e.ckptOps.firstErr.Load(); p != nil {
		ckpts.firstErr = *p
	}
	if a := e.job.CheckpointAborts(); a > 0 {
		ckpts.failed += a
		ckpts.firstErr = fmt.Errorf("%d checkpoints aborted", a)
	}
	res.tallies = []*tally{records, queries, ckpts, subsT, verify}

	e.endToEnd(w, segRes, res)
	if o.trace {
		e.layers(w, o, segRes, before, window, satDelta, res)
		res.spans = rec.spans()
		v["bench.spans"] = float64(len(res.spans))
		if o.outDir != "" {
			if err := writeSpans(o.outDir, o.w.name, res.spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// endToEnd computes the sixteen user-visible metrics from the window's
// samples.
func (e *env) endToEnd(w *workload, segRes []*segResult, res *result) {
	v := res.values
	recLat := stats.NewSamples(0)
	ckpt := stats.NewSamples(0)
	var qlat [nClasses]*stats.Samples
	for c := range qlat {
		qlat[c] = stats.NewSamples(0)
	}
	var llat [nClasses]*stats.Samples // open-loop lanes, whichever segment ran them
	for c := range llat {
		llat[c] = stats.NewSamples(0)
	}
	objBlocks := stats.NewSamples(0)
	qlate := stats.NewSamples(0)
	var recCPU, recN int64
	var qps float64
	for i, s := range w.segs {
		sr := segRes[i]
		if s.feeds&mRecord != 0 {
			recLat = merged(recLat, e.p.lat[i+1])
			ckpt = merged(ckpt, e.ckpt[i+1])
			recCPU += sr.cpuNs
			recN += sr.records
		}
		if s.feeds&mQuery != 0 {
			for c := range qlat {
				qlat[c] = merged(qlat[c], sr.qlat[c])
			}
		}
		for c := range llat {
			llat[c] = merged(llat[c], sr.llat[c])
		}
		qlate = merged(qlate, sr.qlate)
		if s.feeds&mClosed != 0 {
			qps += sr.closedQPS
			objBlocks = merged(objBlocks, sr.qlat[qObject])
		}
		if s.feeds&mSaturated != 0 {
			v["max_throughput_rps"] = e.p.throughput(i + 1)
		}
	}
	v["record_latency_p50_us"] = pct(recLat, 50, 1e3)
	v["record_latency_p99_us"] = pct(recLat, 99, 1e3)
	if recN > 0 {
		v["cpu_us_per_record"] = float64(recCPU) / 1e3 / float64(recN)
	}
	v["ckpt_2pc_p50_ms"] = pct(ckpt, 50, 1e6)
	v["query_throughput_qps"] = qps
	v["query_point_p50_us"] = pct(qlat[qPoint], 50, 1e3)
	v["query_point_p99_us"] = pct(qlat[qPoint], 99, 1e3)
	v["query_index_p50_us"] = pct(qlat[qIndex], 50, 1e3)
	v["query_scan_p50_ms"] = pct(qlat[qScan], 50, 1e6)
	v["query_join_p50_ms"] = pct(qlat[qJoin], 50, 1e6)
	if b := objBlocks.Percentile(50); b > 0 {
		v["object_get_kops"] = objectCalls / (float64(b) / 1e6)
		v["squery.object_get_ns_per_key"] = float64(b) / (objectCalls * objectKeys)
	}
	subLat := stats.NewSamples(0)
	for _, s := range e.subs {
		s.mu.Lock()
		subLat = merged(subLat, s.lat)
		s.mu.Unlock()
	}
	v["sub_delivery_p50_us"] = pct(subLat, 50, 1e3)
	v["sub_delivery_p99_us"] = pct(subLat, 99, 1e3)
	v["dataflow.source_late_p99_us"] = pct(e.p.late, 99, 1e3)
	v["bench.query_late_p99_us"] = pct(qlate, 99, 1e3)
	v["bench.lane_point_p50_us"] = pct(llat[qPoint], 50, 1e3)
	v["bench.lane_point_p99_us"] = pct(llat[qPoint], 99, 1e3)
	v["bench.lane_join_p50_ms"] = pct(llat[qJoin], 50, 1e6)
	v["bench.lane_scan_p50_ms"] = pct(llat[qScan], 50, 1e6)

	// A percentile needs ten samples beyond it; a sample that did not fit
	// its buffer makes the run worth repeating.
	need := func(name string, s *stats.Samples, p float64) {
		if stats.Supported(s.Len()) < p {
			res.notes = append(res.notes, fmt.Sprintf("%s: %d samples do not support p%g", name, s.Len(), p))
		}
		if s.Dropped() > 0 {
			res.invalid = append(res.invalid, fmt.Sprintf("%s: %d samples did not fit the buffer", name, s.Dropped()))
		}
	}
	need("record_latency_p99_us", recLat, 99)
	need("query_point_p99_us", qlat[qPoint], 99)
	need("sub_delivery_p99_us", subLat, 99)
}

// pct is the p-th percentile of s in units of div nanoseconds (or counts).
func pct(s *stats.Samples, p, div float64) float64 {
	return float64(s.Percentile(p)) / div
}

// merged returns a buffer holding both sample sets.
func merged(a, b *stats.Samples) *stats.Samples {
	if b == nil {
		return a
	}
	out := newSamples(a.Len() + b.Len())
	out.Merge(a)
	out.Merge(b)
	return out
}

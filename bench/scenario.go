package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"squery"
	"squery/bench/stats"
)

// lane is one open-loop query generator: independent users whose
// requests arrive on a schedule whatever the system's speed. Latency is
// timed from each request's due time.
type lane struct {
	rate float64  // queries per second
	mix  []qclass // classes in rotation, one per slot
}

// What a segment's samples feed.
const (
	mRecord    = 1 << iota // record latency, CPU per record, checkpoint wall, delivery latency
	mQuery                 // per-class query latency of the closed-loop clients
	mClosed                // closed-loop query throughput and object-block rate
	mSaturated             // records/s at the sink with the source unthrottled
)

// segment is one stretch of a run's measured window.
type segment struct {
	name    string
	share   float64 // of --seconds
	rate    float64 // records/s offered to the pipeline; 0 = unthrottled
	lanes   []lane
	clients int // closed-loop query clients (callers that wait for replies)
	feeds   int // m* flags
}

// workload fixes everything about a run but the seed. Sizes, rates and
// mixes are constants: nothing is derived from the machine's speed.
type workload struct {
	name, why      string
	orders, riders int
	persist        bool // checkpoints go to a PersistDir
	filters        int  // standing queries attached before the window
	aggs, joins    int
	segs           []segment
}

// env is one set-up engine with its job and the benchmark's clients.
type env struct {
	g    *gen
	p    *pipeline
	eng  *squery.Engine
	job  *squery.Job
	dir  string // PersistDir, "" without persistence
	subs []*subscriber
	rec  *recorder

	ckpt    []*stats.Samples // CheckpointNow wall per segment
	ckptOps opCount

	// from and to bound the stamps whose delivery the subscribers sample:
	// the record-latency segments.
	from, to atomic.Int64
}

// nsegs is how many segment slots a run needs: slot 0 is set-up and
// verification traffic, the workload's segments follow, and a traced run
// adds one reference segment of its own.
func (w *workload) nsegs() int { return len(w.segs) + 2 }

// warmSeconds is how long a paced burst warms the pipeline during set-up.
const warmSeconds = 0.2

// setUp builds an engine, submits the job, creates the indexes, preloads
// every key through the pipeline and commits a first snapshot. setUpAll
// adds the standing queries and the warm-up; its wall time is setup_s.
func setUp(w *workload, seed int64, seconds float64, scratch string, cfg squery.Config, state squery.StateConfig, rec *recorder) (*env, error) {
	cfg.Nodes = 3
	e := &env{g: newGen(seed, w.orders, w.riders), rec: rec}
	e.p = newPipeline(e.g, w.nsegs(), rec)
	e.p.late = newSamples(int(maxPaced(w, seconds) + w.segs[0].rate*warmSeconds))
	for i, s := range w.segs {
		if s.rate > 0 {
			e.p.lat[i+1] = newSamples(int(s.rate*s.share*seconds*1.05) + 64)
		}
	}
	e.ckpt = make([]*stats.Samples, w.nsegs())
	for i := range e.ckpt {
		e.ckpt[i] = newSamples(int(seconds) + 8)
	}
	e.eng = squery.New(cfg)
	spec := squery.JobSpec{Name: "bench", State: state}
	if w.persist {
		dir, err := os.MkdirTemp(scratch, "persist-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		spec.PersistDir = dir
	}
	job, err := e.eng.SubmitJob(e.p.dag(), spec)
	if err != nil {
		e.close()
		return nil, err
	}
	e.job = job
	if state.Live {
		if err := e.eng.CreateIndex("orderinfo", "vendor", squery.IndexHash); err != nil {
			e.close()
			return nil, err
		}
		if err := e.eng.CreateIndex("orderstate", "seq", squery.IndexBTree); err != nil {
			e.close()
			return nil, err
		}
	}
	if !e.p.drainTo(e.p.setPace(0, 0, e.g.preloadLen()), 60*time.Second) {
		e.close()
		return nil, fmt.Errorf("preload did not drain: %d of %d records at the sink", e.p.arrived.Load(), e.g.preloadLen())
	}
	if err := e.checkpoint(0); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warm runs every path once before the window: a short paced burst, each
// query class, and a second checkpoint so snapshot reads have a delta
// behind them.
func (e *env) warm(rate float64) error {
	warmed := e.p.setPace(0, rate, int64(rate*warmSeconds))
	q := newQuerier(e, 0)
	for c := qclass(0); c < nClasses; c++ {
		for i := 0; i < 4; i++ {
			if err := q.run(c); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if !e.p.drainTo(warmed, 30*time.Second) {
		return fmt.Errorf("warm-up burst did not drain")
	}
	return e.checkpoint(0)
}

func maxPaced(w *workload, seconds float64) float64 {
	var n float64
	for _, s := range w.segs {
		n += s.rate * s.share * seconds * 1.05
	}
	return n + 64
}

// checkpoint runs one checkpoint, barrier to commit, and times it.
func (e *env) checkpoint(seg int) error {
	t0 := nowNs()
	p1 := e.job.SnapshotPhase1().Sum()
	err := e.job.CheckpointNow()
	t1 := nowNs()
	e.ckptOps.note(err)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	e.ckpt[seg].Add(t1 - t0)
	e.rec.checkpoint(t0, t1, int64(e.job.SnapshotPhase1().Sum()-p1))
	return nil
}

func (e *env) close() {
	for _, s := range e.subs {
		s.close()
	}
	if e.job != nil {
		e.job.Stop()
	}
	if e.eng != nil {
		_ = e.eng.Close() // the simulated transport holds nothing to release
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir) // a leftover temp dir is swept with the scratch root
	}
}

// segResult is what one segment measured beyond the pipeline's own
// samples.
type segResult struct {
	cpuNs     int64
	records   int64                    // emitted during the segment
	qlat      [nClasses]*stats.Samples // closed-loop clients, from the send
	llat      [nClasses]*stats.Samples // open-loop lanes, from the due time
	qlate     *stats.Samples           // open-loop lateness
	closedQPS float64                  // SQL queries per second of the closed-loop clients
	qops      opCount
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runSegment drives one segment: sets the source's pace, starts the
// checkpointer, the query lanes and the closed-loop clients, lets them
// run for the segment's share of the window and stops them.
func (e *env) runSegment(idx int, s segment, seconds float64) (*segResult, error) {
	dur := time.Duration(s.share * seconds * float64(time.Second))
	res := &segResult{qlate: newSamples(0)}
	for c := range res.qlat {
		res.qlat[c] = newSamples(0)
		res.llat[c] = newSamples(0)
	}
	var mu sync.Mutex // merges per-client samples into res
	var wg sync.WaitGroup
	stop := make(chan struct{})
	endNs := nowNs() + int64(dur)

	first := e.p.emitted.Load()
	limit := int64(1) << 60
	if s.rate > 0 {
		limit = int64(s.rate * dur.Seconds())
	}
	cpu0 := cpuNs()
	e.p.setPace(idx, s.rate, limit)

	// Checkpointer: one checkpoint a second (two per segment when a
	// segment is shorter than that), barrier to commit.
	var ckptErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(min(time.Second, dur/2))
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := e.checkpoint(idx); err != nil && ckptErr == nil {
					ckptErr = err
				}
			}
		}
	}()
	for li, ln := range s.lanes {
		wg.Add(1)
		go func(id int, ln lane) {
			defer wg.Done()
			e.runLane(newQuerier(e, int64(idx*100+id+1)), ln, endNs, res, &mu)
		}(li, ln)
	}
	for ci := 0; ci < s.clients; ci++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.runClient(newQuerier(e, int64(idx*100+50+id)), endNs, res, &mu)
		}(ci)
	}
	time.Sleep(dur)
	if s.rate > 0 {
		// A paced segment offers a fixed number of records; give a
		// backlogged source a moment to finish offering them.
		for grace := time.Now().Add(2 * time.Second); e.p.emitted.Load() < first+limit && time.Now().Before(grace); {
			time.Sleep(time.Millisecond)
		}
	}
	res.records = e.p.hold() - first
	res.cpuNs = cpuNs() - cpu0
	close(stop)
	wg.Wait()
	if ckptErr != nil {
		return res, ckptErr
	}
	if !e.p.drain(30 * time.Second) {
		return res, fmt.Errorf("segment %s did not drain", s.name)
	}
	e.settle()
	return res, nil
}

// settle waits, for five seconds at most, until the push path has caught
// up with the drained pipeline: every arrangement has applied the deltas
// it was handed, no subscriber queue holds a frame, and no subscription
// has folded or delivered anything for 20 ms. Arrangements and standing
// queries apply asynchronously, and a segment should not start on the
// previous one's backlog.
func (e *env) settle() {
	deadline := time.Now().Add(5 * time.Second)
	var last uint64
	for quiet := 0; quiet < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		behind := false
		for _, a := range e.eng.Arrangements() {
			behind = behind || a.Applied < a.DeltasIn
		}
		var sum uint64
		for _, s := range e.subs {
			st := s.sub.Stats()
			sum += st.Watermark + st.Delivered
			behind = behind || st.Queued > 0
		}
		if behind || sum != last {
			quiet = 0
		} else {
			quiet++
		}
		last = sum
	}
}

// spinNs is how close to a due time a lane stops sleeping and spins. With
// both cores busy a sleeping goroutine wakes several hundred microseconds
// late (it waits for a P), which is more than a point read takes; a lane
// that spins the last millisecond holds its P and starts on time, at the
// price of a tenth of a core at 100 q/s.
const spinNs = 1_000_000

func waitUntil(dueNs int64) {
	if d := dueNs - nowNs() - spinNs; d > 0 {
		time.Sleep(time.Duration(d))
	}
	for nowNs() < dueNs {
	}
}

// runLane issues ln's queries on schedule until endNs.
func (e *env) runLane(q *querier, ln lane, endNs int64, res *segResult, mu *sync.Mutex) {
	slots := int(ln.rate*float64(endNs-nowNs())/1e9) + 16
	var lat [nClasses]*stats.Samples
	for c := range lat {
		lat[c] = newSamples(slots)
	}
	late := newSamples(slots)
	startNs := nowNs()
	for k := 0; ; k++ {
		due := startNs + int64(float64(k)/ln.rate*1e9)
		if due >= endNs {
			break
		}
		waitUntil(due)
		c := ln.mix[k%len(ln.mix)]
		began := nowNs()
		err := q.run(c)
		lat[c].Add(nowNs() - due)
		late.Add(began - due)
		res.qops.note(err)
	}
	mu.Lock()
	for c := range lat {
		res.llat[c] = merged(res.llat[c], lat[c])
	}
	res.qlate = merged(res.qlate, late)
	mu.Unlock()
}

// clientMix is a closed-loop client's fixed class mix per 100 slots.
var clientMix = [nClasses]int{qPoint: 70, qIndex: 10, qScan: 4, qJoin: 4, qObject: 12}

// runClient is one closed-loop client: it sends its next request when the
// previous one returns, following a seeded shuffle of clientMix.
func (e *env) runClient(q *querier, endNs int64, res *segResult, mu *sync.Mutex) {
	var slots []qclass
	for c, n := range clientMix {
		for i := 0; i < n; i++ {
			slots = append(slots, qclass(c))
		}
	}
	q.rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	// Sized for the cheapest class at full speed on one core; a class
	// that outruns its buffer shows as dropped samples, not as a resize.
	var lat [nClasses]*stats.Samples
	for c := range lat {
		lat[c] = newSamples(1 << 15)
	}
	lat[qPoint] = newSamples(1 << 19)
	var sqlDone int64
	startNs := nowNs()
	lastNs := startNs
	for k := 0; lastNs < endNs; k++ {
		c := slots[k%len(slots)]
		err := q.run(c)
		now := nowNs()
		lat[c].Add(now - lastNs)
		lastNs = now
		if c != qObject {
			sqlDone++
		}
		res.qops.note(err)
	}
	qps := float64(sqlDone) / (float64(lastNs-startNs) / 1e9)
	mu.Lock()
	for c := range lat {
		res.qlat[c] = merged(res.qlat[c], lat[c])
	}
	res.closedQPS += qps
	mu.Unlock()
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// scratchRoot returns (creating it) the directory under the working
// directory that holds persisted checkpoints while a run lasts.
func scratchRoot() (string, error) {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}

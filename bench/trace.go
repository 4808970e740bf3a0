package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"squery/bench/stats"
)

// The benchmark's tracing: spans recorded from its own files around the
// calls into each layer, kept in memory and written out at exit. A nil
// *recorder records nothing, which is how end-to-end runs are taken.

// maxSpans bounds the spans one workload keeps (head sampling: the
// sampling rates in workloads.go are sized to stay under it).
const maxSpans = 50_000

// recSpan holds the clock readings of one sampled record.
type recSpan struct {
	seq    int64
	dueNs  int64
	emitNs int64
	// op: Process entry, state read done, successor computed, state
	// write done, emit done.
	op     [5]int64
	sinkNs int64
}

type ckptSpan struct{ startNs, endNs, phase1Ns int64 }

type querySpan struct {
	class                     qclass
	startNs, endNs            int64
	parseNs, explainNs, runNs int64
}

type deliverySpan struct{ seq, startNs, endNs int64 }

type recorder struct {
	// every > 0 samples each every-th record (by seq, so that a
	// subscriber can tell from a delivered row whether its write was
	// sampled); 0 pauses sampling.
	every atomic.Int64
	// queries turns on the sampling of query spans.
	queries atomic.Bool

	mu         sync.Mutex
	recs       []*recSpan
	ckpts      []ckptSpan
	qspans     []querySpan
	deliveries []deliverySpan
}

func newRecorder() *recorder {
	return &recorder{recs: make([]*recSpan, 0, maxSpans/8)}
}

// budget reports whether another n spans fit under maxSpans.
func (r *recorder) budget(n int) bool {
	used := len(r.recs)*8 + len(r.ckpts)*3 + len(r.qspans)*4 + len(r.deliveries)
	return used+n <= maxSpans
}

// record opens the span set of record seq (source goroutine).
func (r *recorder) record(seq, dueNs, emitNs int64) *recSpan {
	if r == nil {
		return nil
	}
	if every := r.every.Load(); every == 0 || seq%every != 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.budget(8) {
		return nil
	}
	sp := &recSpan{seq: seq, dueNs: dueNs, emitNs: emitNs}
	r.recs = append(r.recs, sp)
	return sp
}

func (r *recorder) checkpoint(startNs, endNs, phase1Ns int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget(3) {
		r.ckpts = append(r.ckpts, ckptSpan{startNs, endNs, phase1Ns})
	}
}

func (r *recorder) query(q querySpan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget(4) {
		r.qspans = append(r.qspans, q)
	}
}

// delivery notes that the write of record seq reached a subscriber. Only
// deliveries of sampled records become spans.
func (r *recorder) delivery(seq, startNs, endNs int64) {
	if r == nil {
		return
	}
	if every := r.every.Load(); every == 0 || seq%every != 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget(1) {
		r.deliveries = append(r.deliveries, deliverySpan{seq, startNs, endNs})
	}
}

// span is the written form: one interval with its cause.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	TraceID int64  `json:"trace_id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// spans assembles the forest: a record root (due → sink) with its hops
// and state calls, and under it any subscription delivery its write
// caused; a checkpoint root with its two phases; a query root with parse,
// plan and exec. Trace ids are the record's seq, or a negative counter
// for checkpoints and queries.
func (r *recorder) spans() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	add := func(parent int, trace int64, name, layer string, start, end int64) int {
		if end < start {
			end = start
		}
		out = append(out, span{ID: len(out) + 1, Parent: parent, TraceID: trace,
			Name: name, Layer: layer, StartNs: start, EndNs: end})
		return len(out)
	}
	rootOf := make(map[int64]int, len(r.recs))
	for _, sp := range r.recs {
		if sp.sinkNs == 0 || sp.op[4] == 0 {
			continue // still in flight when the run ended
		}
		root := add(0, sp.seq, "record", "dataflow", sp.dueNs, sp.sinkNs)
		rootOf[sp.seq] = root
		add(root, sp.seq, "source.late", "dataflow", sp.dueNs, sp.emitNs)
		add(root, sp.seq, "hop.op", "dataflow", sp.emitNs, sp.op[0])
		proc := add(root, sp.seq, "process", "dataflow", sp.op[0], sp.op[4])
		add(proc, sp.seq, "state.get", "core", sp.op[0], sp.op[1])
		add(proc, sp.seq, "state.update", "core", sp.op[2], sp.op[3])
		add(proc, sp.seq, "emit", "dataflow", sp.op[3], sp.op[4])
		add(root, sp.seq, "hop.sink", "dataflow", sp.op[3], sp.sinkNs)
	}
	for _, d := range r.deliveries {
		if root, ok := rootOf[d.seq]; ok {
			add(root, d.seq, "sub.delivery", "sql", d.startNs, d.endNs)
		}
	}
	next := int64(0)
	for _, c := range r.ckpts {
		next--
		root := add(0, next, "checkpoint", "dataflow", c.startNs, c.endNs)
		add(root, next, "phase1", "dataflow", c.startNs, c.startNs+c.phase1Ns)
		add(root, next, "phase2", "dataflow", c.startNs+c.phase1Ns, c.endNs)
	}
	for _, q := range r.qspans {
		next--
		// parse, plan and exec are taken on the same text in three calls
		// (sql.Parse, Engine.Explain, Engine.Query); the root is the Query
		// call and the children lay the three differences end to end.
		root := add(0, next, "query."+className[q.class], "squery", q.startNs, q.endNs)
		planNs := q.explainNs - q.parseNs
		if planNs < 0 {
			planNs = 0
		}
		add(root, next, "parse", "sql", q.startNs, q.startNs+q.parseNs)
		add(root, next, "plan", "sql", q.startNs+q.parseNs, q.startNs+q.parseNs+planNs)
		add(root, next, "exec", "sql", q.startNs+q.parseNs+planNs, q.endNs)
	}
	kids := make(map[int][]stats.Interval)
	for _, s := range out {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], stats.Interval{Start: s.StartNs, End: s.EndNs})
		}
	}
	for i := range out {
		out[i].SelfNs = stats.SelfTime(stats.Interval{Start: out[i].StartNs, End: out[i].EndNs}, kids[out[i].ID])
	}
	return out
}

// writeSpans writes the forest to bench/out/trace-<workload>.json.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

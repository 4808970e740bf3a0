package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file applies the paper's own thesis to the processor itself: the
// runtime's telemetry — operator throughput, barrier-alignment stalls,
// checkpoint phase timings, per-partition KV and query-scan activity — is
// collected in a concurrent Registry instead of ad-hoc fields, and exposed
// through the same SQL surface as user state (the sys.* virtual tables
// registered by the engine).
//
// Instruments are keyed by (subsystem, id, metric): the subsystem names the
// layer ("operator", "checkpoint", "kv", "sql"), the id names the instance
// within it ("orderstate/2", "p17", a job name), and the metric names the
// measurement. Hot paths resolve an instrument once and then pay a single
// atomic op per event; a nil *Registry yields nil instruments whose methods
// are no-ops, so instrumentation can be compiled in unconditionally and
// disabled wholesale (the no-op-registry baseline of the overhead
// experiment in EXPERIMENTS.md).

// InstrumentKey identifies one instrument in a Registry.
type InstrumentKey struct {
	Subsystem string
	ID        string
	Metric    string
}

// String renders the key in the dump format: subsystem/id/metric.
func (k InstrumentKey) String() string {
	return k.Subsystem + "/" + k.ID + "/" + k.Metric
}

// Counter is a monotonically increasing event count. The nil counter is a
// valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add records n events.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc records one event.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The nil gauge is a valid no-op
// instrument.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the current value by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Event is one entry of an EventLog: an opaque field set plus a
// registry-assigned monotone sequence number.
type Event struct {
	Seq    uint64
	Fields map[string]any
}

// EventLog is a bounded ring of structured events — the backing store of
// row-per-event system tables (sys.checkpoints, sys.queries). When full,
// the oldest event is evicted. The nil log is a valid no-op instrument.
type EventLog struct {
	mu    sync.Mutex
	cap   int
	seq   uint64
	buf   []rawEvent
	start int // index of the oldest event
	n     int
}

// Fielder lets hot paths append a typed event whose field map is only
// materialized when the log is read (sys.* scans, Dump) — one struct
// allocation instead of a map with boxed values per event.
type Fielder interface {
	EventFields() map[string]any
}

// rawEvent is the stored form: fields is either a map[string]any or a
// Fielder resolved at read time.
type rawEvent struct {
	seq    uint64
	fields any
}

func (e rawEvent) materialize() Event {
	switch f := e.fields.(type) {
	case map[string]any:
		return Event{Seq: e.seq, Fields: f}
	case Fielder:
		return Event{Seq: e.seq, Fields: f.EventFields()}
	default:
		return Event{Seq: e.seq}
	}
}

// Append records one event. The fields map is stored as-is; callers must
// not mutate it afterwards.
func (l *EventLog) Append(fields map[string]any) {
	l.append(fields)
}

// AppendFielder records one typed event; f.EventFields() is called lazily
// by readers, so f must be immutable after the call.
func (l *EventLog) AppendFielder(f Fielder) {
	l.append(f)
}

func (l *EventLog) append(fields any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	e := rawEvent{seq: l.seq, fields: fields}
	if l.n < l.cap {
		l.buf[(l.start+l.n)%l.cap] = e
		l.n++
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % l.cap
	}
	l.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(l.start+i)%l.cap].materialize())
	}
	return out
}

// Len returns the number of retained events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Registry is a concurrent get-or-create registry of counters, gauges,
// histograms and event logs. All methods are safe for concurrent use; the
// nil *Registry returns nil (no-op) instruments everywhere.
type Registry struct {
	mu       sync.RWMutex
	counters map[InstrumentKey]*Counter
	gauges   map[InstrumentKey]*Gauge
	derived  map[InstrumentKey]func() int64
	hists    map[InstrumentKey]*Histogram
	logs     map[string]*EventLog
	// version counts instrument creations and derived-gauge
	// registrations, so history captures know when to re-read the
	// instrument set.
	version uint64

	hist historyRing // periodic snapshot ring behind Retain / sys.history
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[InstrumentKey]*Counter),
		gauges:   make(map[InstrumentKey]*Gauge),
		derived:  make(map[InstrumentKey]func() int64),
		hists:    make(map[InstrumentKey]*Histogram),
		logs:     make(map[string]*EventLog),
	}
}

// GaugeFunc registers a derived gauge: fn is evaluated at read time
// (Values, Points, history snapshots, the Prometheus exposition), so the
// reported value is always current without any hot-path writes — the
// instrument behind freshness-sensitive series like watermark lag and
// queue depth. Re-registering the same key replaces the function (workers
// re-resolve instruments on every restart). fn must be safe for
// concurrent use and must not call back into the registry.
func (r *Registry) GaugeFunc(subsystem, id, metric string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	k := InstrumentKey{subsystem, id, metric}
	r.mu.Lock()
	r.derived[k] = fn
	r.version++ // the history's series table holds the function
	r.mu.Unlock()
}

// Counter returns (creating if absent) the counter for the key.
func (r *Registry) Counter(subsystem, id, metric string) *Counter {
	if r == nil {
		return nil
	}
	k := InstrumentKey{subsystem, id, metric}
	r.mu.RLock()
	c := r.counters[k]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[k]; c == nil {
		c = &Counter{}
		r.counters[k] = c
		r.version++
	}
	return c
}

// Gauge returns (creating if absent) the gauge for the key.
func (r *Registry) Gauge(subsystem, id, metric string) *Gauge {
	if r == nil {
		return nil
	}
	k := InstrumentKey{subsystem, id, metric}
	r.mu.RLock()
	g := r.gauges[k]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[k]; g == nil {
		g = &Gauge{}
		r.gauges[k] = g
		r.version++
	}
	return g
}

// Histogram returns (creating if absent) the histogram for the key.
func (r *Registry) Histogram(subsystem, id, metric string) *Histogram {
	if r == nil {
		return nil
	}
	k := InstrumentKey{subsystem, id, metric}
	r.mu.RLock()
	h := r.hists[k]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[k]; h == nil {
		h = NewHistogram()
		r.hists[k] = h
		r.version++
	}
	return h
}

// Log returns (creating if absent) the named event log. The capacity is
// applied only on creation; later calls may pass any value.
func (r *Registry) Log(name string, capacity int) *EventLog {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	l := r.logs[name]
	r.mu.RUnlock()
	if l != nil {
		return l
	}
	if capacity < 1 {
		capacity = 128
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if l = r.logs[name]; l == nil {
		l = &EventLog{cap: capacity, buf: make([]rawEvent, capacity)}
		r.logs[name] = l
	}
	return l
}

// Values returns a point-in-time copy of every counter and gauge value in
// the subsystem, keyed by instrument id then metric name. Gauges shadow
// counters on (impossible by convention) key collisions.
func (r *Registry) Values(subsystem string) map[string]map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]map[string]int64)
	put := func(k InstrumentKey, v int64) {
		m := out[k.ID]
		if m == nil {
			m = make(map[string]int64)
			out[k.ID] = m
		}
		m[k.Metric] = v
	}
	r.mu.RLock()
	for k, c := range r.counters {
		if k.Subsystem == subsystem {
			put(k, c.Value())
		}
	}
	for k, g := range r.gauges {
		if k.Subsystem == subsystem {
			put(k, g.Value())
		}
	}
	fns := make(map[InstrumentKey]func() int64)
	for k, fn := range r.derived {
		if k.Subsystem == subsystem {
			fns[k] = fn
		}
	}
	r.mu.RUnlock()
	// Derived gauges run user code; evaluate them outside the registry lock.
	for k, fn := range fns {
		put(k, fn())
	}
	return out
}

// HistogramsIn returns the subsystem's histograms keyed by instrument id
// then metric name. The histograms are live (shared), not copies.
func (r *Registry) HistogramsIn(subsystem string) map[string]map[string]*Histogram {
	if r == nil {
		return nil
	}
	out := make(map[string]map[string]*Histogram)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for k, h := range r.hists {
		if k.Subsystem != subsystem {
			continue
		}
		m := out[k.ID]
		if m == nil {
			m = make(map[string]*Histogram)
			out[k.ID] = m
		}
		m[k.Metric] = h
	}
	return out
}

// Point is one instrument's snapshot in a registry dump.
type Point struct {
	Key  InstrumentKey
	Kind string // "counter", "gauge" or "histogram"
	// Value is the counter/gauge value; for histograms it is the
	// observation count.
	Value int64
	// Summary is the percentile snapshot of a histogram (nil otherwise).
	Summary *Summary
}

// Points returns a deterministic (sorted by key) snapshot of every
// instrument in the registry. Histograms with zero observations are
// included — an instrument's existence is itself information.
func (r *Registry) Points() []Point {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	pts := make([]Point, 0, len(r.counters)+len(r.gauges)+len(r.derived)+len(r.hists))
	for k, c := range r.counters {
		pts = append(pts, Point{Key: k, Kind: "counter", Value: c.Value()})
	}
	for k, g := range r.gauges {
		pts = append(pts, Point{Key: k, Kind: "gauge", Value: g.Value()})
	}
	fns := make(map[InstrumentKey]func() int64, len(r.derived))
	for k, fn := range r.derived {
		fns[k] = fn
	}
	hists := make(map[InstrumentKey]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.RUnlock()
	// Derived gauges run user code (channel length reads, clock reads);
	// evaluate them outside the registry lock for the same reason as
	// histogram snapshots below.
	for k, fn := range fns {
		pts = append(pts, Point{Key: k, Kind: "gauge", Value: fn()})
	}
	// Histogram snapshots take the histogram's own lock; do it outside the
	// registry lock so a slow summary never blocks instrument creation.
	for k, h := range hists {
		s := h.Snapshot()
		pts = append(pts, Point{Key: k, Kind: "histogram", Value: int64(s.Count), Summary: &s})
	}
	sort.Slice(pts, func(i, j int) bool { return keyLess(pts[i].Key, pts[j].Key) })
	return pts
}

// keyLess orders instrument keys by subsystem, then id, then metric.
func keyLess(a, b InstrumentKey) bool {
	if a.Subsystem != b.Subsystem {
		return a.Subsystem < b.Subsystem
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Metric < b.Metric
}

// Dump renders the full registry as plain text: one line per counter and
// gauge, one summary line per histogram, then each event log. This is the
// format the -metrics flags of cmd/squery, cmd/squery-bench and
// cmd/squery-soak emit.
func (r *Registry) Dump() string {
	if r == nil {
		return "(metrics disabled)\n"
	}
	var b strings.Builder
	for _, p := range r.Points() {
		switch p.Kind {
		case "histogram":
			fmt.Fprintf(&b, "%-48s %s\n", p.Key, p.Summary)
		default:
			fmt.Fprintf(&b, "%-48s %d\n", p.Key, p.Value)
		}
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.logs))
	for n := range r.logs {
		names = append(names, n)
	}
	logs := make(map[string]*EventLog, len(r.logs))
	for n, l := range r.logs {
		logs[n] = l
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		events := logs[n].Events()
		fmt.Fprintf(&b, "log %s (%d events):\n", n, len(events))
		for _, e := range events {
			keys := make([]string, 0, len(e.Fields))
			for k := range e.Fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "  #%d", e.Seq)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%v", k, e.Fields[k])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

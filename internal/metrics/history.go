package metrics

import (
	"sort"
	"sync"
	"time"
)

// Metric history: the registry can retain a fixed-size ring of periodic
// whole-registry captures, turning instantaneous counters and gauges into
// an in-memory time series. Consumers (sys.history, /statusz sparklines)
// compute rate() from consecutive captures. A capture is one int64 per
// series, read in the order of a sorted series table that consecutive
// captures share; the table is rebuilt only when the registry's instrument
// set changed, so a capture costs no sort, no map copy and no per-instrument
// bookkeeping on hot paths. Derived gauges are evaluated at capture time,
// so freshness-sensitive series (watermark lag, inbox depth) are retained
// with correct per-tick values even while the instrumented stage is frozen.

// Series names one retained series: an instrument and its kind
// ("counter", "gauge" or "histogram").
type Series struct {
	Key  InstrumentKey
	Kind string
}

// HistorySnapshot is one retained capture of every instrument: Values[i]
// is Series[i]'s value at At (a histogram's value is its observation
// count). Series is sorted by key and shared by consecutive snapshots while
// the instrument set is unchanged. Neither slice is mutated after capture.
type HistorySnapshot struct {
	At     time.Time
	Series []Series
	Values []int64
}

// SameSeries reports whether s and o were captured against one series
// table, so that a series has the same index in both.
func (s HistorySnapshot) SameSeries(o HistorySnapshot) bool {
	return len(s.Series) == len(o.Series) && (len(s.Series) == 0 || &s.Series[0] == &o.Series[0])
}

// Index returns the index of k's series in s, or -1 if s has none.
func (s HistorySnapshot) Index(k InstrumentKey) int {
	i := sort.Search(len(s.Series), func(i int) bool { return keyCompare(s.Series[i].Key, k) >= 0 })
	if i < len(s.Series) && s.Series[i].Key == k {
		return i
	}
	return -1
}

// maxHistorySnapshots bounds the ring regardless of the window/interval
// ratio: 512 snapshots at the default 1s interval is ~8.5 minutes, and the
// memory cost stays proportional to instrument count, not runtime.
const maxHistorySnapshots = 512

// historyRing is the retention state embedded in a Registry.
type historyRing struct {
	mu    sync.Mutex
	buf   []HistorySnapshot
	start int
	n     int
	stop  chan struct{}
	done  chan struct{}
}

// Retain starts (or restarts) periodic snapshot capture every interval,
// keeping window/interval snapshots (at least 2, at most 512). A first
// snapshot is captured synchronously so sys.history is non-empty as soon
// as retention is on. Call StopRetain (or pass a new Retain) to stop the
// background ticker; the ring's contents survive a stop.
func (r *Registry) Retain(interval, window time.Duration) {
	if r == nil {
		return
	}
	if interval <= 0 {
		interval = time.Second
	}
	if window < interval {
		window = interval
	}
	capacity := int(window / interval)
	if capacity < 2 {
		capacity = 2
	}
	if capacity > maxHistorySnapshots {
		capacity = maxHistorySnapshots
	}
	r.StopRetain()
	r.hist.mu.Lock()
	r.hist.resize(capacity)
	stop := make(chan struct{})
	done := make(chan struct{})
	r.hist.stop = stop
	r.hist.done = done
	r.hist.mu.Unlock()
	r.Capture(time.Now())
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				r.Capture(now)
			case <-stop:
				return
			}
		}
	}()
}

// StopRetain stops the background capture goroutine, if any, and waits for
// it to exit. The retained snapshots remain readable.
func (r *Registry) StopRetain() {
	if r == nil {
		return
	}
	r.hist.mu.Lock()
	stop, done := r.hist.stop, r.hist.done
	r.hist.stop, r.hist.done = nil, nil
	r.hist.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Capture appends one snapshot of every instrument to the history ring,
// evicting the oldest when full. Exported so tests (and callers that want
// snapshot timing under their own control) can capture deterministically
// without a ticker; a Capture before any Retain sizes the ring to the
// default capacity.
func (r *Registry) Capture(now time.Time) {
	if r == nil {
		return
	}
	t := r.seriesTable()
	vals := make([]int64, len(t.read))
	// Derived gauges run user code; read every value outside the registry
	// and ring locks.
	for i, read := range t.read {
		vals[i] = read()
	}
	snap := HistorySnapshot{At: now, Series: t.series, Values: vals}
	r.hist.mu.Lock()
	if len(r.hist.buf) == 0 {
		r.hist.resize(maxHistorySnapshots / 4)
	}
	if r.hist.n < len(r.hist.buf) {
		r.hist.buf[(r.hist.start+r.hist.n)%len(r.hist.buf)] = snap
		r.hist.n++
	} else {
		r.hist.buf[r.hist.start] = snap
		r.hist.start = (r.hist.start + 1) % len(r.hist.buf)
	}
	r.hist.mu.Unlock()
}

// History returns the retained snapshots, oldest first. The returned slice
// is a copy; the series and values inside are not mutated after capture.
func (r *Registry) History() []HistorySnapshot {
	if r == nil {
		return nil
	}
	r.hist.mu.Lock()
	defer r.hist.mu.Unlock()
	out := make([]HistorySnapshot, 0, r.hist.n)
	for i := 0; i < r.hist.n; i++ {
		out = append(out, r.hist.buf[(r.hist.start+i)%len(r.hist.buf)])
	}
	return out
}

// resize re-sizes the ring preserving the newest snapshots. Caller holds
// hist.mu.
func (h *historyRing) resize(capacity int) {
	if capacity == len(h.buf) {
		return
	}
	old := make([]HistorySnapshot, 0, h.n)
	for i := 0; i < h.n; i++ {
		old = append(old, h.buf[(h.start+i)%len(h.buf)])
	}
	if len(old) > capacity {
		old = old[len(old)-capacity:]
	}
	h.buf = make([]HistorySnapshot, capacity)
	copy(h.buf, old)
	h.start = 0
	h.n = len(old)
}

// Rate computes the per-second rate of a counter between two snapshots:
// (curr-prev)/Δt. Returns 0 when Δt is not positive or the counter reset.
func Rate(prev, curr int64, prevAt, currAt time.Time) float64 {
	dt := currAt.Sub(prevAt).Seconds()
	if dt <= 0 || curr < prev {
		return 0
	}
	return float64(curr-prev) / dt
}

package metrics

import (
	"sync/atomic"
	"time"
)

// meterWindow is one measurement window: a start instant and the events
// counted since. Count and start live in one allocation so readers observe
// them together through a single pointer load — Reset swaps the whole
// window atomically instead of zeroing the count and restarting the clock
// in two separate stores (which let a concurrent Rate see a zeroed count
// against the old window, or the old count against the new window).
type meterWindow struct {
	start int64 // unix nanos
	count atomic.Uint64
}

// Meter counts events and reports rates over the elapsed wall-clock window.
// It backs the sustainable-throughput measurements of the scalability
// experiment (Figure 15).
type Meter struct {
	win atomic.Pointer[meterWindow]
}

// NewMeter returns a meter whose window starts now.
func NewMeter() *Meter {
	m := &Meter{}
	m.win.Store(&meterWindow{start: time.Now().UnixNano()})
	return m
}

// Add records n events.
func (m *Meter) Add(n uint64) { m.win.Load().count.Add(n) }

// Inc records one event.
func (m *Meter) Inc() { m.win.Load().count.Add(1) }

// Count returns the number of events recorded since the last Reset.
func (m *Meter) Count() uint64 { return m.win.Load().count.Load() }

// Rate returns events per second since the window start. The count and the
// window start are read from the same window, so a concurrent Reset can
// never pair one window's count with the other's start; the count is read
// before the clock, so events recorded while the reader is descheduled
// between the two reads never divide by an interval that excludes them.
func (m *Meter) Rate() float64 {
	w := m.win.Load()
	count := w.count.Load()
	elapsed := time.Since(time.Unix(0, w.start))
	if elapsed <= 0 {
		return 0
	}
	return float64(count) / elapsed.Seconds()
}

// Reset zeroes the counter and restarts the window by installing a fresh
// window in a single atomic store. Events recorded concurrently into the
// outgoing window are dropped with it — the same semantics a racing
// pre-fix Reset had, without the torn count/start pairing.
func (m *Meter) Reset() {
	m.win.Store(&meterWindow{start: time.Now().UnixNano()})
}

// Stopwatch measures one interval at a time; it exists so call sites read as
// measurement code rather than raw time arithmetic.
type Stopwatch struct {
	t0 time.Time
}

// StartStopwatch begins timing.
func StartStopwatch() Stopwatch { return Stopwatch{t0: time.Now()} }

// Elapsed reports the time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.t0) }

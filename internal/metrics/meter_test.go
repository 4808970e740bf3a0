package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestMeterCountAndRate(t *testing.T) {
	m := NewMeter()
	m.Add(10)
	m.Inc()
	if got := m.Count(); got != 11 {
		t.Fatalf("Count = %d, want 11", got)
	}
	time.Sleep(5 * time.Millisecond)
	if r := m.Rate(); r <= 0 {
		t.Fatalf("Rate = %v, want > 0", r)
	}
	m.Reset()
	if got := m.Count(); got != 0 {
		t.Fatalf("Count after Reset = %d, want 0", got)
	}
}

// TestMeterResetRace is the regression test for the torn Reset window: when
// the count and the window start were reset in two separate atomic stores, a
// concurrent Rate could pair one window's count with the other window's
// start — most dangerously an accumulated count against a nanoseconds-old
// start, reporting a physically impossible rate. With the single-pointer
// window swap, Rate always divides a window's count by that same window's
// age, so the observed rate is bounded by the writers' instantaneous add
// throughput.
//
// The bound: each Add contributes batch events, writers manage far fewer
// than 10^9 Adds/sec, so a consistent rate stays below batch*10^9 ≈ 10^15
// events/sec. A torn pairing divides a multi-millisecond window's
// accumulation by a ~100ns elapsed and lands orders of magnitude above the
// ceiling.
func TestMeterResetRace(t *testing.T) {
	const (
		batch   = 1 << 20
		ceiling = 1e16
	)
	const ops, resets = 200_000, 50
	m := NewMeter()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < ops; i++ {
				m.Add(batch)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < resets; i++ {
			time.Sleep(time.Millisecond) // let the window accumulate
			m.Reset()
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < ops; i++ {
				rate := m.Rate()
				if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 || rate > ceiling {
					t.Errorf("implausible Rate observed: %g events/s", rate)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGaugeFuncEvaluatedAtReadTime(t *testing.T) {
	r := NewRegistry()
	var v int64
	r.GaugeFunc("operator", "src/0", "inbox_depth", func() int64 { return v })
	v = 7
	vals := r.Values("operator")
	if got := vals["src/0"]["inbox_depth"]; got != 7 {
		t.Fatalf("derived gauge in Values = %d, want 7", got)
	}
	v = 42
	r.Capture(time.Now())
	h := r.History()
	last := h[len(h)-1]
	i := last.Index(InstrumentKey{"operator", "src/0", "inbox_depth"})
	if i < 0 {
		t.Fatal("derived gauge missing from the capture")
	}
	if last.Series[i].Kind != "gauge" || last.Values[i] != 42 {
		t.Fatalf("derived series = %s %d, want gauge 42", last.Series[i].Kind, last.Values[i])
	}
	// Re-registration replaces the function (workers restart).
	r.GaugeFunc("operator", "src/0", "inbox_depth", func() int64 { return -1 })
	if got := r.Values("operator")["src/0"]["inbox_depth"]; got != -1 {
		t.Fatalf("re-registered derived gauge = %d, want -1", got)
	}
	// nil registry and nil fn are no-ops.
	var nilr *Registry
	nilr.GaugeFunc("a", "b", "c", func() int64 { return 1 })
	r.GaugeFunc("a", "b", "c", nil)
}

func TestHistoryCaptureRingEvictsOldest(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sql", "q", "rows")
	base := time.Unix(1000, 0)
	// Size the ring to 3 via Retain, then stop the ticker and drive
	// captures manually for determinism.
	r.Retain(time.Hour, 3*time.Hour)
	r.StopRetain()
	if n := len(r.History()); n != 1 {
		t.Fatalf("Retain should capture one snapshot synchronously, got %d", n)
	}
	for i := 1; i <= 5; i++ {
		c.Add(10)
		r.Capture(base.Add(time.Duration(i) * time.Second))
	}
	h := r.History()
	if len(h) != 3 {
		t.Fatalf("ring retained %d snapshots, want 3", len(h))
	}
	if !h[0].At.Before(h[1].At) || !h[1].At.Before(h[2].At) {
		t.Fatalf("snapshots not oldest-first: %v %v %v", h[0].At, h[1].At, h[2].At)
	}
	find := func(s HistorySnapshot) int64 {
		if i := s.Index(InstrumentKey{"sql", "q", "rows"}); i >= 0 {
			return s.Values[i]
		}
		t.Fatalf("counter missing from snapshot at %v", s.At)
		return 0
	}
	if find(h[0]) != 30 || find(h[2]) != 50 {
		t.Fatalf("retained values %d..%d, want 30..50", find(h[0]), find(h[2]))
	}
	if rate := Rate(find(h[1]), find(h[2]), h[1].At, h[2].At); rate != 10 {
		t.Fatalf("rate between snapshots = %v rows/s, want 10", rate)
	}
	// Counter reset and zero-dt guard.
	if Rate(50, 30, h[1].At, h[2].At) != 0 || Rate(30, 50, h[1].At, h[1].At) != 0 {
		t.Fatal("Rate should clamp resets and zero dt to 0")
	}
}

func TestRetainTickerCapturesPeriodically(t *testing.T) {
	r := NewRegistry()
	r.Gauge("operator", "a/0", "watermark_us").Set(5)
	r.Retain(2*time.Millisecond, 100*time.Millisecond)
	defer r.StopRetain()
	deadline := time.Now().Add(2 * time.Second)
	for len(r.History()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("ticker captured only %d snapshots", len(r.History()))
		}
		time.Sleep(time.Millisecond)
	}
	r.StopRetain()
	n := len(r.History())
	time.Sleep(10 * time.Millisecond)
	if len(r.History()) != n {
		t.Fatal("captures continued after StopRetain")
	}
	// Restarting retention must keep working (Retain stops the old ticker).
	r.Retain(time.Millisecond, 10*time.Millisecond)
	r.Retain(time.Millisecond, 10*time.Millisecond)
	r.StopRetain()
	r.StopRetain() // idempotent
}

// TestHistoryRaceRetainVsScans is the race test behind sys.history: ticker
// captures, derived-gauge evaluation, and concurrent readers all running
// against one registry, each goroutine for a fixed number of operations.
// Run with -race.
func TestHistoryRaceRetainVsScans(t *testing.T) {
	r := NewRegistry()
	var depth int64 // accessed without atomics would race; keep it fixed
	r.GaugeFunc("operator", "s/0", "inbox_depth", func() int64 { return depth })
	c := r.Counter("operator", "s/0", "records_in")
	r.Retain(time.Millisecond, 50*time.Millisecond)
	defer r.StopRetain()
	const ops = 300
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() { // writers
			defer wg.Done()
			<-start
			for i := 0; i < ops; i++ {
				c.Inc()
				if i%8 == 0 { // a fresh instrument: the next capture rebuilds the table
					r.Counter("operator", fmt.Sprintf("w%d/%d", w, i), "records_in").Inc()
				}
				r.Capture(time.Now())
			}
		}()
		go func() { // readers: the sys.history / statusz access paths
			defer wg.Done()
			<-start
			for i := 0; i < ops; i++ {
				for _, s := range r.History() {
					_ = len(s.Values)
				}
				_ = r.Values("operator")
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := r.Values("operator")["s/0"]["records_in"]; got != 4*ops {
		t.Fatalf("records_in = %d, want %d", got, 4*ops)
	}
}

func TestPrometheusHelpLines(t *testing.T) {
	r := NewRegistry()
	r.Gauge("operator", "src/0", "watermark_lag_us").Set(1234)
	r.Counter("operator", "src/0", "blocked_sends").Inc()
	text := r.PrometheusText()
	if !strings.Contains(text, "# HELP squery_operator_watermark_lag_us ") {
		t.Fatalf("missing HELP for lag gauge:\n%s", text)
	}
	help := strings.Index(text, "# HELP squery_operator_watermark_lag_us")
	typ := strings.Index(text, "# TYPE squery_operator_watermark_lag_us")
	if help < 0 || typ < 0 || help > typ {
		t.Fatalf("HELP must precede TYPE:\n%s", text)
	}
	if err := ValidatePrometheusText(text); err != nil {
		t.Fatalf("exposition with HELP does not validate: %v", err)
	}
}

func TestValidateHelpLines(t *testing.T) {
	bad := []string{
		"# HELP\n",
		"# HELP only_name\n",
		"# HELP 0bad name text\n",
		"# HELP x d\n# HELP x d\n",
		"# TYPE x gauge\n# HELP x late\nx 1\n",
	}
	for _, text := range bad {
		if err := ValidatePrometheusText(text); err == nil {
			t.Fatalf("expected error for %q", text)
		}
	}
	good := "# HELP x docs with several words\n# TYPE x gauge\nx 1\n"
	if err := ValidatePrometheusText(good); err != nil {
		t.Fatalf("valid HELP rejected: %v", err)
	}
}

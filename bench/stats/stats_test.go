package stats

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := NewSamples(100)
	for i := 100; i >= 1; i-- {
		s.Add(int64(i))
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}} {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("p%g = %d, want %d", c.p, got, c.want)
		}
	}
	if got := NewSamples(0).Percentile(50); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
}

func TestSamplesCountWhatDoesNotFit(t *testing.T) {
	s := NewSamples(2)
	for i := 0; i < 5; i++ {
		s.Add(int64(i))
	}
	if s.Len() != 2 || s.Dropped() != 3 {
		t.Fatalf("len %d dropped %d, want 2 and 3", s.Len(), s.Dropped())
	}
	m := NewSamples(8)
	m.Merge(s)
	if m.Len() != 2 || m.Dropped() != 3 {
		t.Fatalf("merged len %d dropped %d, want 2 and 3", m.Len(), m.Dropped())
	}
}

func TestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99},
		// Fig 10 of the seed's results.txt reported p99.99 from 15 samples.
		{15, 0},
	} {
		if got := Supported(c.n); got != c.want {
			t.Errorf("Supported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1.0},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25, 1.0},
		{[]float64{100, 101, 99, 100, 102}, 99.5, 100, 101.5, 0.02},
		{[]float64{3, 1}, 0.5, 2, 3.5, 1.5},
	} {
		q1, m, q3 := Quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := Spread(c.xs); math.Abs(got-c.wantSpread) > 1e-12 {
			t.Errorf("Spread(%v) = %g, want %g", c.xs, got, c.wantSpread)
		}
	}
	if q1, m, q3 := Quartiles([]float64{7}); q1 != 7 || m != 7 || q3 != 7 {
		t.Errorf("single value: %g %g %g", q1, m, q3)
	}
	if Median(nil) != 0 || Spread(nil) != 0 {
		t.Error("empty input must give zeros")
	}
}

func TestSelfTime(t *testing.T) {
	parent := Interval{0, 100}
	for _, c := range []struct {
		name     string
		children []Interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []Interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []Interval{{10, 60}, {40, 90}}, 20},
		{"nested", []Interval{{10, 90}, {20, 30}}, 20},
		{"out of order", []Interval{{50, 70}, {0, 10}}, 70},
		{"covering", []Interval{{0, 100}}, 0},
		{"child outlives parent", []Interval{{80, 150}}, 80},
		{"child starts before parent", []Interval{{-20, 30}}, 70},
		{"child outside parent", []Interval{{120, 150}}, 100},
		{"empty child", []Interval{{40, 40}}, 100},
	} {
		if got := SelfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

// The orphaned bench/out/trace-mixed.json of an earlier harness carried
// "self_ns": -3938 on a record root: its hop spans overlapped (the sink
// received the record before the operator's emit call had returned) and
// their durations were summed. The union never exceeds the parent.
func TestSelfTimeOfOverlappingHopsIsNotNegative(t *testing.T) {
	root := Interval{Start: 1_000, End: 21_000} // due → sink
	children := []Interval{
		{1_000, 1_400},   // source.late
		{1_400, 9_000},   // hop.op
		{9_000, 16_500},  // process, whose emit is still returning …
		{12_562, 21_000}, // … while hop.sink has already begun
	}
	var sum int64
	for _, c := range children {
		sum += c.End - c.Start
	}
	if naive := (root.End - root.Start) - sum; naive != -3938 {
		t.Fatalf("the case no longer reproduces the naive result: %d", naive)
	}
	if got := SelfTime(root, children); got != 0 {
		t.Fatalf("self = %d, want 0: the children cover the root", got)
	}
}

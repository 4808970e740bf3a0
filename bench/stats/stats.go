// Package stats holds the benchmark's arithmetic: exact percentiles over
// raw samples, the rule for which percentile a sample supports, medians
// and quartiles across runs, and span self time.
package stats

import (
	"math"
	"sort"
)

// Samples is a pre-allocated buffer of raw measurements. Add never
// allocates: once the buffer is full further samples are only counted, so
// a run that outgrows its sizing is visible (Dropped) instead of silently
// resampled.
type Samples struct {
	v       []int64
	dropped int64
	sorted  bool
}

// NewSamples returns a buffer with room for capacity samples.
func NewSamples(capacity int) *Samples {
	return &Samples{v: make([]int64, 0, capacity)}
}

// Add records one sample. Not safe for concurrent use.
func (s *Samples) Add(x int64) {
	if len(s.v) == cap(s.v) {
		s.dropped++
		return
	}
	s.v = append(s.v, x)
	s.sorted = false
}

// Len returns the number of samples held.
func (s *Samples) Len() int { return len(s.v) }

// Dropped returns how many samples did not fit.
func (s *Samples) Dropped() int64 { return s.dropped }

// Bytes returns the buffer's heap footprint.
func (s *Samples) Bytes() int64 { return int64(cap(s.v)) * 8 }

// Merge appends o's samples (and its drop count).
func (s *Samples) Merge(o *Samples) {
	for _, x := range o.v {
		s.Add(x)
	}
	s.dropped += o.dropped
}

// Values returns the samples in ascending order. The slice is the
// buffer's own storage.
func (s *Samples) Values() []int64 {
	if !s.sorted {
		sort.Slice(s.v, func(i, j int) bool { return s.v[i] < s.v[j] })
		s.sorted = true
	}
	return s.v
}

// Percentile returns the exact p-th percentile (0 < p <= 100) by the
// nearest-rank method, or 0 for an empty buffer.
func (s *Samples) Percentile(p float64) int64 {
	return Percentile(s.Values(), p)
}

// Mean returns the arithmetic mean, or 0 for an empty buffer.
func (s *Samples) Mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.v {
		sum += float64(x)
	}
	return sum / float64(len(s.v))
}

// Percentile returns the nearest-rank p-th percentile of an ascending
// slice: the smallest value with at least p % of the samples at or below
// it. It returns 0 for an empty slice.
func Percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := ceilRank(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// ceilRank is ceil(p% of n), forgiving the float error that would turn
// 99 % of 100 into 99.00000000000001 and its ceiling into 100.
func ceilRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// Supported is the highest percentile, from the ladder 50, 90, 99, 99.9,
// 99.99, that has at least ten samples beyond it in a sample of size n; 0
// when even the median does not (n < 20). Reporting a p99 from fewer than
// a thousand samples is reporting two or three outliers.
func Supported(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
		beyond := n - ceilRank(p, n)
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// Quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (exclusive),
// which is what the acceptance check applies. It needs at least two
// values; with one it returns that value three times, with none zeros.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// i-th of m=4 cut points: position k*(n+1)/4, clamped to [1,n-1].
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// Median returns the median of xs.
func Median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}

// Spread returns the interquartile range of xs as a share of the median:
// the repeatability figure bounds are fixed from. It returns 0 when the
// median is 0.
func Spread(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// Interval is a half-open time interval [Start, End) in nanoseconds.
type Interval struct{ Start, End int64 }

// SelfTime returns the part of parent not covered by any child: the
// parent's duration minus the union of the child intervals clipped to the
// parent. Subtracting the children's summed durations instead goes
// negative as soon as two children overlap or one outlives its parent.
func SelfTime(parent Interval, children []Interval) int64 {
	total := parent.End - parent.Start
	if total <= 0 {
		return 0
	}
	cs := make([]Interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered, end int64
	end = parent.Start
	for _, c := range cs {
		if c.End <= end {
			continue
		}
		if c.Start > end {
			covered += c.End - c.Start
		} else {
			covered += c.End - end
		}
		end = c.End
	}
	return total - covered
}

// Package metrics provides the latency and throughput instrumentation used
// by every experiment in the S-QUERY reproduction: a concurrent,
// log-bucketed histogram that answers the percentile queries the paper
// plots (0th through 99.99th), and throughput meters for sustainable-rate
// measurements.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// Histogram records durations into exponentially sized buckets and answers
// quantile queries. It is safe for concurrent use. The bucket layout gives a
// relative error below ~2% across the nanosecond-to-minute range, which is
// far below the run-to-run variance of any experiment here.
//
// The buckets come in numOctaves octaves of bucketsPerOctave, and an octave
// is allocated when the first value lands in it: a histogram holds only the
// octaves it recorded into (a fresh one is under 400 B), so instruments that
// see a narrow range of values, or none, stay small.
type Histogram struct {
	mu      sync.Mutex
	octaves [numOctaves]*[bucketsPerOctave]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// bucketsPerOctave trades memory for resolution: 32 sub-buckets per power
// of two bounds the relative quantile error at 1/64 ≈ 1.6%.
const bucketsPerOctave = 32

// numOctaves covers durations up to ~2^40 ns (~18 minutes); longer ones
// land in the last bucket.
const numOctaves = 41

// numBuckets is the bucket count of a histogram with every octave touched.
const numBuckets = numOctaves * bucketsPerOctave

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	n := uint64(d)
	if n < bucketsPerOctave {
		return int(n)
	}
	// Position = octave * bucketsPerOctave + sub-bucket within octave.
	exp := 63 - leadingZeros(n)
	shift := exp - 5 // log2(bucketsPerOctave)
	sub := int(n>>uint(shift)) - bucketsPerOctave
	idx := (exp-4)*bucketsPerOctave + sub
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketLower returns the smallest duration mapping to bucket idx,
// the inverse of bucketIndex up to bucket granularity.
func bucketLower(idx int) time.Duration {
	if idx < bucketsPerOctave {
		return time.Duration(idx)
	}
	octave := idx/bucketsPerOctave + 4
	sub := idx % bucketsPerOctave
	shift := octave - 5
	return time.Duration((uint64(bucketsPerOctave) + uint64(sub)) << uint(shift))
}

func leadingZeros(x uint64) int { return bits.LeadingZeros64(x) }

// Record adds one observation. The nil histogram is a valid no-op
// instrument (a nil Registry hands them out), so hot paths record
// unconditionally.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	idx := bucketIndex(d)
	h.mu.Lock()
	oct := h.octaves[idx/bucketsPerOctave]
	if oct == nil {
		oct = new([bucketsPerOctave]uint64)
		h.octaves[idx/bucketsPerOctave] = oct
	}
	oct[idx%bucketsPerOctave]++
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of all observations, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the value at quantile q in [0,1]. Quantile(0) is the
// minimum and Quantile(1) the maximum. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	var v [1]time.Duration
	h.mu.Lock()
	h.quantiles([]float64{q}, v[:])
	h.mu.Unlock()
	return v[0]
}

// quantiles sets out[i] to the value at quantile qs[i], in one pass over
// the touched octaves; qs must be in ascending order. Caller holds h.mu.
func (h *Histogram) quantiles(qs []float64, out []time.Duration) {
	if h.count == 0 {
		clear(out)
		return
	}
	i := 0
	for ; i < len(qs) && qs[i] <= 0; i++ {
		out[i] = h.min
	}
	// rank is the 1-based rank of qs[i]'s value, for qs[i] in (0,1).
	rank := func() uint64 {
		r := uint64(math.Ceil(qs[i] * float64(h.count)))
		return max(r, 1)
	}
	var seen uint64
	for o, oct := range h.octaves {
		if oct == nil {
			continue
		}
		for j, c := range oct {
			seen += c
			for i < len(qs) && qs[i] < 1 && seen >= rank() {
				idx := o*bucketsPerOctave + j
				lo := bucketLower(idx)
				hi := bucketLower(idx + 1)
				// Midpoint keeps the estimate unbiased within the bucket;
				// clamping keeps it inside the observed range.
				out[i] = min(max(lo+(hi-lo)/2, h.min), h.max)
				i++
			}
		}
	}
	for ; i < len(qs); i++ {
		out[i] = h.max
	}
}

// Sum returns the running sum of all observations (Prometheus' summary
// `_sum` series).
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// PaperPercentiles is the percentile set plotted on the paper's inverted
// log-scale x-axis (Figures 8–13), plus p95 for the Prometheus summary
// convention, in ascending order.
var PaperPercentiles = []float64{0, 0.50, 0.90, 0.95, 0.99, 0.999, 0.9999}

// Snapshot returns a point-in-time copy of the histogram's summary at the
// paper's percentile set: one lock, one pass over the buckets.
func (h *Histogram) Snapshot() Summary {
	qv := make([]time.Duration, len(PaperPercentiles))
	count, sum := h.paperQuantiles(qv)
	s := Summary{
		Count:     count,
		Sum:       sum,
		Quantiles: make(map[float64]time.Duration, len(PaperPercentiles)),
	}
	if count > 0 {
		s.Mean = sum / time.Duration(count)
	}
	for i, q := range PaperPercentiles {
		s.Quantiles[q] = qv[i]
	}
	return s
}

// paperQuantiles sets qv[i] to the value at PaperPercentiles[i] and
// returns the count and sum, all under one lock.
func (h *Histogram) paperQuantiles(qv []time.Duration) (count uint64, sum time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.quantiles(PaperPercentiles, qv)
	return h.count, h.sum
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	// Copy other's touched octaves under its lock, then fold them in under
	// h's: the two locks are never held together.
	var src [numOctaves]*[bucketsPerOctave]uint64
	other.mu.Lock()
	for o, oct := range other.octaves {
		if oct != nil {
			c := *oct
			src[o] = &c
		}
	}
	count, sum, min, max := other.count, other.sum, other.min, other.max
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	for o, oct := range src {
		switch {
		case oct == nil:
		case h.octaves[o] == nil:
			h.octaves[o] = oct
		default:
			for j, c := range oct {
				h.octaves[o][j] += c
			}
		}
	}
	h.count += count
	h.sum += sum
	if count > 0 {
		if min < h.min {
			h.min = min
		}
		if max > h.max {
			h.max = max
		}
	}
}

// Reset discards all observations. Touched octaves stay allocated, zeroed,
// for the observations that follow.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, oct := range h.octaves {
		if oct != nil {
			clear(oct[:])
		}
	}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Summary is an immutable percentile snapshot of a histogram.
type Summary struct {
	Count     uint64
	Mean      time.Duration
	Sum       time.Duration
	Quantiles map[float64]time.Duration
}

// String renders the summary in the row format used by the experiment
// harness: `count=N mean=M p0=.. p50=.. p90=.. p99=.. p99.9=.. p99.99=..`.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d mean=%s", s.Count, round(s.Mean))
	qs := make([]float64, 0, len(s.Quantiles))
	for q := range s.Quantiles {
		qs = append(qs, q)
	}
	sort.Float64s(qs)
	for _, q := range qs {
		fmt.Fprintf(&b, " p%s=%s", trimPct(q), round(s.Quantiles[q]))
	}
	return b.String()
}

func trimPct(q float64) string {
	s := fmt.Sprintf("%v", q*100)
	return s
}

func round(d time.Duration) time.Duration {
	switch {
	case d > time.Second:
		return d.Round(time.Millisecond)
	case d > time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}

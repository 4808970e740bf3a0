package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", h.Count())
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("Quantile(0.5) on empty = %v, want 0", got)
	}
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram summary stats nonzero: mean=%v min=%v max=%v", h.Mean(), h.Min(), h.Max())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if relErr(got, 5*time.Millisecond) > 0.05 {
			t.Errorf("Quantile(%v) = %v, want ~5ms", q, got)
		}
	}
	if h.Min() != 5*time.Millisecond || h.Max() != 5*time.Millisecond {
		t.Errorf("min/max = %v/%v, want 5ms/5ms", h.Min(), h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-time.Second)
	if h.Min() != 0 {
		t.Errorf("negative durations should clamp to 0, got min=%v", h.Min())
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for _, d := range []time.Duration{0, 1, 31, 32, 33, 63, 64, 100, 1000, 1e6, 1e9, 1e12} {
		idx := bucketIndex(d)
		if idx < prev {
			t.Fatalf("bucketIndex not monotonic at %v: %d < %d", d, idx, prev)
		}
		prev = idx
	}
}

func TestBucketLowerInverse(t *testing.T) {
	for idx := 0; idx < numBuckets-1; idx++ {
		lo := bucketLower(idx)
		if got := bucketIndex(lo); got != idx {
			t.Fatalf("bucketIndex(bucketLower(%d)) = %d", idx, got)
		}
		hi := bucketLower(idx + 1)
		if got := bucketIndex(hi - 1); got != idx {
			t.Fatalf("upper edge of bucket %d maps to %d", idx, got)
		}
	}
}

// Property: the histogram quantile is always within bucket resolution
// (~3.2%) of the exact quantile of the recorded sample.
func TestHistogramQuantileAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(800)
		h := NewHistogram()
		samples := make([]time.Duration, n)
		for i := range samples {
			// Log-uniform over [1µs, 1s] — the range our experiments live in.
			exp := rng.Float64()*6 + 3 // 10^3 .. 10^9 ns
			samples[i] = time.Duration(math.Pow(10, exp))
			h.Record(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			rank := int(math.Ceil(q*float64(n))) - 1
			exact := samples[rank]
			got := h.Quantile(q)
			if relErr(got, exact) > 0.04 {
				t.Logf("seed=%d q=%v got=%v exact=%v", seed, q, got, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: min ≤ every reported quantile ≤ max, and quantiles are
// monotonically non-decreasing in q.
func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, r := range raw {
			h.Record(time.Duration(r))
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			if v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Record(time.Duration(i) * time.Millisecond)
		b.Record(time.Duration(i+100) * time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if relErr(a.Quantile(1), 199*time.Millisecond) > 0.05 {
		t.Errorf("merged max quantile = %v, want ~199ms", a.Quantile(1))
	}
	if a.Min() != 0 {
		t.Errorf("merged min = %v, want 0", a.Min())
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(time.Millisecond)
	a.Merge(b) // merging an empty histogram must not disturb min/max
	if a.Count() != 1 || a.Min() != time.Millisecond {
		t.Errorf("after merging empty: count=%d min=%v", a.Count(), a.Min())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Errorf("after reset: count=%d max=%v", h.Count(), h.Max())
	}
	h.Record(2 * time.Millisecond)
	if relErr(h.Quantile(0.5), 2*time.Millisecond) > 0.05 {
		t.Errorf("post-reset quantile = %v", h.Quantile(0.5))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(time.Duration(i%50) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Fatalf("concurrent count = %d, want %d", h.Count(), workers*perWorker)
	}
}

func TestSnapshotContainsPaperPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 10000 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	for _, q := range PaperPercentiles {
		if _, ok := s.Quantiles[q]; !ok {
			t.Errorf("snapshot missing percentile %v", q)
		}
	}
	// 99.99th of 10k uniform 1..10000µs is ~10ms.
	if relErr(s.Quantiles[0.9999], 10*time.Millisecond) > 0.05 {
		t.Errorf("p99.99 = %v, want ~10ms", s.Quantiles[0.9999])
	}
	if s.String() == "" {
		t.Error("summary String() is empty")
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Add(10)
	m.Inc()
	if m.Count() != 11 {
		t.Fatalf("Count = %d, want 11", m.Count())
	}
	if m.Rate() <= 0 {
		t.Errorf("Rate = %v, want > 0", m.Rate())
	}
	m.Reset()
	if m.Count() != 0 {
		t.Errorf("Count after reset = %d", m.Count())
	}
}

func TestStopwatch(t *testing.T) {
	sw := StartStopwatch()
	time.Sleep(time.Millisecond)
	if sw.Elapsed() < time.Millisecond {
		t.Errorf("Elapsed = %v, want >= 1ms", sw.Elapsed())
	}
}

func relErr(got, want time.Duration) float64 {
	if want == 0 {
		return math.Abs(float64(got))
	}
	return math.Abs(float64(got-want)) / float64(want)
}

// denseHistogram is the histogram as it was before octaves were allocated
// lazily: every one of numBuckets buckets allocated up front. It is the
// oracle of TestHistogramSparseMatchesDense.
type denseHistogram struct {
	counts   []uint64
	count    uint64
	sum      time.Duration
	min, max time.Duration
}

func newDense() *denseHistogram {
	return &denseHistogram{counts: make([]uint64, numBuckets), min: math.MaxInt64}
}

func (h *denseHistogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)]++
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

func (h *denseHistogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo := bucketLower(i)
			hi := bucketLower(i + 1)
			v := lo + (hi-lo)/2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

func (h *denseHistogram) Merge(o *denseHistogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.count > 0 {
		h.min = min(h.min, o.min)
		h.max = max(h.max, o.max)
	}
}

func (h *denseHistogram) Reset() { *h = *newDense() }

// sameAsDense fails t unless h and d answer every query alike and h has
// allocated the octaves d holds values in; only those, unless h was reset
// (Reset keeps touched octaves, zeroed).
func sameAsDense(t *testing.T, what string, h *Histogram, d *denseHistogram, reset bool) {
	t.Helper()
	mean, dmin := time.Duration(0), time.Duration(0)
	if d.count > 0 {
		mean, dmin = d.sum/time.Duration(d.count), d.min
	}
	if h.Count() != d.count || h.Sum() != d.sum || h.Mean() != mean || h.Min() != dmin || h.Max() != d.max {
		t.Fatalf("%s: count/sum/mean/min/max = %d/%v/%v/%v/%v, dense %d/%v/%v/%v/%v", what,
			h.Count(), h.Sum(), h.Mean(), h.Min(), h.Max(), d.count, d.sum, mean, dmin, d.max)
	}
	for _, q := range append(PaperPercentiles, 0.25, 1) {
		if got, want := h.Quantile(q), d.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, dense %v", what, q, got, want)
		}
	}
	s := h.Snapshot()
	for _, q := range PaperPercentiles {
		if got, want := s.Quantiles[q], d.Quantile(q); got != want {
			t.Fatalf("%s: Snapshot p%v = %v, dense %v", what, q*100, got, want)
		}
	}
	for o, oct := range h.octaves {
		touched := false
		for j := 0; j < bucketsPerOctave; j++ {
			touched = touched || d.counts[o*bucketsPerOctave+j] > 0
		}
		if touched && oct == nil || !touched && oct != nil && !reset {
			t.Fatalf("%s: octave %d allocated=%v, holds values=%v", what, o, oct != nil, touched)
		}
	}
}

// TestHistogramSparseMatchesDense holds the lazily allocated octaves to the
// dense layout they replaced: every statistic identical across Record,
// Merge in each direction and Reset, over values from 0 through the clamp
// above 2^40 ns.
func TestHistogramSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	fill := func(h *Histogram, d *denseHistogram, n int, octaves []int) {
		for i := 0; i < n; i++ {
			var v time.Duration
			switch r := rng.Intn(10); {
			case r == 0:
				v = 0
			case r == 1:
				v = time.Duration(rng.Intn(bucketsPerOctave))
			case r == 2:
				v = time.Duration(1<<40 + rng.Int63n(1<<50)) // clamps into the last bucket
			default:
				o := octaves[rng.Intn(len(octaves))]
				lo := bucketLower(o * bucketsPerOctave)
				hi := bucketLower((o + 1) * bucketsPerOctave)
				v = lo + time.Duration(rng.Int63n(int64(hi-lo)))
			}
			h.Record(v)
			d.Record(v)
		}
	}
	every := make([]int, numOctaves)
	for o := range every {
		every[o] = o
	}

	h, d := NewHistogram(), newDense()
	sameAsDense(t, "empty", h, d, false)
	fill(h, d, 5000, every)
	sameAsDense(t, "every octave", h, d, false)

	a, da := NewHistogram(), newDense()
	fill(a, da, 300, []int{3, 7, 12})
	b, db := NewHistogram(), newDense()
	fill(b, db, 300, []int{7, 20})
	a.Merge(b)
	da.Merge(db)
	sameAsDense(t, "sparse into sparse", a, da, false)
	sameAsDense(t, "merge source", b, db, false)

	h.Merge(NewHistogram())
	d.Merge(newDense())
	sameAsDense(t, "empty into full", h, d, false)

	e, de := NewHistogram(), newDense()
	e.Merge(h)
	de.Merge(d)
	sameAsDense(t, "full into empty", e, de, false)

	h.Reset()
	d.Reset()
	sameAsDense(t, "after reset", h, d, true)
	fill(h, d, 500, []int{9, 10})
	sameAsDense(t, "recorded after reset", h, d, true)

	if size := unsafe.Sizeof(Histogram{}); size > 400 {
		t.Fatalf("a fresh histogram occupies %d B, want at most 400", size)
	}
}

// TestHistogramSnapshotConsistent records from four goroutines while a
// fifth snapshots: each Summary must describe one state of the histogram
// (run with -race).
func TestHistogramSnapshotConsistent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					h.Record(time.Duration(rng.Int63n(1 << uint(rng.Intn(36)+1))))
				}
			}
		}(int64(w))
	}
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		if rem := s.Sum - s.Mean*time.Duration(s.Count); rem < 0 || rem >= time.Duration(s.Count) {
			close(stop)
			t.Fatalf("snapshot %d: sum %v, mean %v and count %d come from different states", i, s.Sum, s.Mean, s.Count)
		}
		prev := time.Duration(-1)
		for _, q := range PaperPercentiles {
			if s.Quantiles[q] < prev {
				close(stop)
				t.Fatalf("snapshot %d: p%v = %v below the previous percentile %v", i, q*100, s.Quantiles[q], prev)
			}
			prev = s.Quantiles[q]
		}
	}
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != h.Count() || s.Mean != h.Mean() || s.Sum != h.Sum() {
		t.Fatalf("quiescent snapshot %d/%v/%v, histogram %d/%v/%v", s.Count, s.Mean, s.Sum, h.Count(), h.Mean(), h.Sum())
	}
	for _, q := range PaperPercentiles {
		if s.Quantiles[q] != h.Quantile(q) {
			t.Fatalf("quiescent snapshot p%v = %v, Quantile = %v", q*100, s.Quantiles[q], h.Quantile(q))
		}
	}
}

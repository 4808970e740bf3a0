package sql

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Retractable accumulators against a refold: every accumulator kind is
// driven through insert/retract sequences, and after every step its result
// must equal a one-shot fold (add only) of the values still in.

// retractKind is one aggregate call under test and the argument values it
// is fed, drawn from a byte so that random and fuzzed sequences share it.
type retractKind struct {
	name string
	agg  Agg
	val  func(b byte) any
}

// Small domains, so ties and repeated values are common; every kind sees
// NULLs.
func intVal(b byte) any {
	if b%8 == 0 {
		return nil
	}
	return int64(b%11) - 5
}

func floatVal(b byte) any {
	switch {
	case b%8 == 0:
		return nil
	case b%3 == 0:
		return int64(b) // a SUM over ints alone reports an int again
	}
	return float64(b)*0.37 - 20
}

func strVal(b byte) any {
	if b%8 == 0 {
		return nil
	}
	return string(rune('a' + b%6))
}

func timeVal(b byte) any {
	if b%8 == 0 {
		return nil
	}
	return time.Unix(int64(b%9), 0).UTC()
}

var retractKinds = []retractKind{
	{"COUNT(*)", Agg{Func: AggCount, Star: true}, intVal},
	{"COUNT(col)", Agg{Func: AggCount}, intVal},
	{"COUNT(DISTINCT col)", Agg{Func: AggCount, Distinct: true}, strVal},
	{"COUNT(DISTINCT time)", Agg{Func: AggCount, Distinct: true}, timeVal},
	{"SUM(int)", Agg{Func: AggSum}, intVal},
	{"AVG(int)", Agg{Func: AggAvg}, intVal},
	{"SUM(float)", Agg{Func: AggSum}, floatVal},
	{"AVG(float)", Agg{Func: AggAvg}, floatVal},
	{"SUM(DISTINCT int)", Agg{Func: AggSum, Distinct: true}, intVal},
	{"MIN(int)", Agg{Func: AggMin}, intVal},
	{"MAX(int)", Agg{Func: AggMax}, intVal},
	{"MIN(string)", Agg{Func: AggMin}, strVal},
	{"MAX(string)", Agg{Func: AggMax}, strVal},
	{"MIN(time)", Agg{Func: AggMin}, timeVal},
	{"MAX(DISTINCT time)", Agg{Func: AggMax, Distinct: true}, timeVal},
	{"MAX(float)", Agg{Func: AggMax}, floatVal},
}

// retractor is one retractable accumulator and the values currently in it.
type retractor struct {
	aggs []Agg
	live *partialGroup
	in   []any
}

func newRetractor(a Agg) *retractor {
	aggs := []Agg{a}
	return &retractor{aggs: aggs, live: newPartialGroup("", aggs, true)}
}

// fold adds v to g, or retracts it, the way a group folds a row whose
// aggregate argument evaluates to v.
func (r *retractor) fold(g *partialGroup, v any, add bool) error {
	r.aggs[0].Arg = Lit{Val: v}
	return g.fold(&evalCtx{}, r.aggs, nil, add)
}

func (r *retractor) add(v any) error {
	r.in = append(r.in, v)
	return r.fold(r.live, v, true)
}

// retract takes the i-th value still in back out.
func (r *retractor) retract(i int) error {
	v := r.in[i]
	r.in[i] = r.in[len(r.in)-1]
	r.in = r.in[:len(r.in)-1]
	return r.fold(r.live, v, false)
}

// check compares the live result with a one-shot fold of the values in.
func (r *retractor) check() error {
	fresh := newPartialGroup("", r.aggs, false)
	for _, v := range r.in {
		if err := r.fold(fresh, v, true); err != nil {
			return err
		}
	}
	got, err := r.live.accs[0].result()
	if err != nil {
		return err
	}
	want, err := fresh.accs[0].result()
	if err != nil {
		return err
	}
	if !sameResult(got, want) {
		return fmt.Errorf("over %d values %v: live %#v, refold %#v", len(r.in), r.in, got, want)
	}
	return nil
}

// sameResult compares results: floats to 1e-9 relative error, times by
// instant, everything else exactly (type included).
func sameResult(got, want any) bool {
	if g, ok := got.(float64); ok {
		w, ok := want.(float64)
		return ok && math.Abs(g-w) <= 1e-9*math.Max(1, math.Abs(w))
	}
	if g, ok := got.(time.Time); ok {
		w, ok := want.(time.Time)
		return ok && g.Equal(w)
	}
	return reflect.DeepEqual(got, want)
}

// runRetract drives kind k through a byte-coded sequence: a byte whose
// low two bits are 0 retracts a value still in (chosen by its other bits),
// any other byte adds k.val(byte). Every step is checked against a refold.
func runRetract(k retractKind, seq []byte) error {
	r := newRetractor(k.agg)
	for step, b := range seq {
		var err error
		if b&3 == 0 && len(r.in) > 0 {
			err = r.retract(int(b>>2) % len(r.in))
		} else {
			err = r.add(k.val(b))
		}
		if err == nil {
			err = r.check()
		}
		if err != nil {
			return fmt.Errorf("%s, step %d: %w", k.name, step, err)
		}
	}
	return nil
}

func TestAggRetractMatchesRefold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range retractKinds {
		t.Run(k.name, func(t *testing.T) {
			for trial := 0; trial < 40; trial++ {
				seq := make([]byte, 20+rng.Intn(200))
				rng.Read(seq)
				if err := runRetract(k, seq); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestAggRetractExtremeToEmpty: MIN and MAX over values with ties, the
// current extreme retracted one copy at a time until the multiset is
// empty and the result NULL.
func TestAggRetractExtremeToEmpty(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 9}
	for _, fn := range []AggFunc{AggMin, AggMax} {
		r := newRetractor(Agg{Func: fn})
		for _, v := range vals {
			if err := r.add(v); err != nil {
				t.Fatal(err)
			}
		}
		for len(r.in) > 0 {
			ext, err := r.live.accs[0].result()
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for r.in[i] != ext {
				i++
			}
			if err := r.retract(i); err != nil {
				t.Fatal(err)
			}
			if err := r.check(); err != nil {
				t.Fatalf("%s: %v", fn, err)
			}
		}
		if res, _ := r.live.accs[0].result(); res != nil || len(r.live.accs[0].multi) != 0 {
			t.Fatalf("%s over nothing = %v with %d multiset entries, want NULL and none", fn, res, len(r.live.accs[0].multi))
		}
	}
}

// TestAggRetractNoFloatDrift: ten fractions stay in while 10 000 large
// floats are folded in and retracted again; SUM and AVG still match a
// refold of the ten to 1e-9 relative error. (A plain running sum is off
// by ~1e-6 relative here: each large value rounds the fractions' low bits
// away.)
func TestAggRetractNoFloatDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, fn := range []AggFunc{AggSum, AggAvg} {
		r := newRetractor(Agg{Func: fn})
		for i := 1; i <= 10; i++ {
			if err := r.add(rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		for cycle := 0; cycle < 10_000; cycle++ {
			if err := r.add(rng.NormFloat64() * 1e9); err != nil {
				t.Fatal(err)
			}
			if err := r.retract(len(r.in) - 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.check(); err != nil {
			t.Fatalf("%s after 10 000 cycles: %v", fn, err)
		}
	}
}

// TestAggRetractUnknownValue: retracting a value that was never folded in
// is an error, not a silent divergence.
func TestAggRetractUnknownValue(t *testing.T) {
	for _, a := range []Agg{{Func: AggMax}, {Func: AggCount, Distinct: true}} {
		r := newRetractor(a)
		if err := r.add(int64(1)); err != nil {
			t.Fatal(err)
		}
		if err := r.fold(r.live, int64(2), false); err == nil {
			t.Fatalf("%s retracted a value it never held", a.Func)
		}
	}
}

// FuzzAggRetract runs every accumulator kind through the fuzzed sequence.
func FuzzAggRetract(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 8, 12, 5, 0, 0, 0})
	f.Add([]byte{9, 9, 9, 4, 4, 4, 17, 0, 33})
	f.Fuzz(func(t *testing.T, seq []byte) {
		if len(seq) > 512 {
			t.Skip("oversized input")
		}
		for _, k := range retractKinds {
			if err := runRetract(k, seq); err != nil {
				t.Fatal(err)
			}
		}
	})
}

package sql

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"squery/internal/core"
)

// discardSink binds a sink that drops every event.
func discardSink(*StandingQuery) func(SubEvent) { return func(SubEvent) {} }

// TestSubscribeSeedFailureReturns: a standing query whose evaluation
// fails during the snapshot seed — before the applier goroutine exists —
// must return the error instead of deadlocking in its own teardown
// (Close waits for an applier that was never started). Regression: this
// hung the REPL's \watch forever on a GROUP BY over a column the table
// doesn't carry.
func TestSubscribeSeedFailureReturns(t *testing.T) {
	f := newFixture(t, 6, liveSnapCfg())
	f.ex.SetArrangements(core.NewArrangeRegistry(f.store))

	type res struct {
		sq  *StandingQuery
		err error
	}
	done := make(chan res, 1)
	go func() {
		sq, err := f.ex.SubscribeQuery(
			`SELECT COUNT(*), deliveryZone FROM orderstate GROUP BY deliveryZone`,
			discardSink)
		done <- res{sq, err}
	}()
	select {
	case r := <-done:
		if r.err == nil {
			// The dialect may legally evaluate a missing column as null;
			// then the subscription must simply work and tear down.
			r.sq.Close()
			t.Skip("seed did not fail; nothing to regress")
		}
		t.Logf("seed failure surfaced as: %v", r.err)
	case <-time.After(10 * time.Second):
		t.Fatal("SubscribeQuery deadlocked on a seed-time failure")
	}

	// The failed attach must not leak its arrangement: a fresh reader
	// starts from refs 0 (Infos drops torn-down arrangements).
	if infos := f.ex.arr.Infos(); len(infos) != 0 {
		t.Fatalf("failed subscribe leaked arrangements: %+v", infos)
	}
}

// residentEntries counts the entries of every map held in v by value —
// struct fields, slice and array elements, and map values, not through
// pointers — which for a StandingQuery is every row or key it keeps
// resident, under whatever field name.
func residentEntries(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Map:
		n = v.Len()
		for it := v.MapRange(); it.Next(); {
			n += residentEntries(it.Value())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += residentEntries(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += residentEntries(v.Field(i))
		}
	}
	return n
}

// TestStandingQueryHoldsOutputOnly: a single-table standing query keeps
// its output rows and nothing per source row. A filter matching none of N
// rows, folded through N updates (each still not matching), leaves the
// standing query with no resident entry at all — the arrangement is the
// only copy of the table on the push path.
func TestStandingQueryHoldsOutputOnly(t *testing.T) {
	const n = 24
	f := newFixture(t, n, liveSnapCfg())
	f.ex.SetArrangements(core.NewArrangeRegistry(f.store))
	sq, err := f.ex.SubscribeQuery(
		`SELECT partitionKey, customerLat FROM orderinfo WHERE deliveryZone = 'nowhere'`,
		discardSink)
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Close()
	for i := 0; i < n; i++ {
		f.info.Update(fmt.Sprintf("order-%d", i), orderInfo{DeliveryZone: "east", CustomerLat: float64(i)})
	}
	f.info.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for sq.Watermark() < n {
		if time.Now().After(deadline) {
			t.Fatalf("standing query folded %d of %d updates", sq.Watermark(), n)
		}
		time.Sleep(time.Millisecond)
	}
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if got := residentEntries(reflect.ValueOf(sq).Elem()); got != 0 {
		t.Fatalf("standing query with an empty result holds %d resident entries over %d source rows, want 0", got, n)
	}
}

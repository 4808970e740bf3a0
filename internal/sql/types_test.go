package sql

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
)

// tCell carries one column of every Go type evaluation classifies, and one
// (int16) it does not.
type tCell struct {
	Num  int
	N32  int32
	N64  int64
	U64  uint64
	F32  float32
	F64  float64
	Str  string
	Flag bool
	At   time.Time
	Odd  int16
}

// TestResultTypes pins the Go type of every value an expression kind
// produces, in each drive mode: a one-shot query, a GROUP BY (whose HAVING
// holds an aggregate), and the snapshot frame of a standing query of
// either shape. Projection boxes each value exactly once, so a bound
// column keeps its own type, arithmetic and the numeric functions yield
// int64 or float64, COALESCE passes its argument's type through, and an
// aggregate yields its accumulator's type.
func TestResultTypes(t *testing.T) {
	const parts = 4
	store := kv.NewStore(partition.New(parts), partition.Assign(parts, 3), nil)
	mgr := core.NewManager(store, 2)
	cat := core.NewCatalog(store)
	if err := cat.RegisterJob(mgr.Registry(), "tcell"); err != nil {
		t.Fatal(err)
	}
	cfg := liveSnapCfg()
	if err := mgr.RegisterOperator(core.OperatorMeta{Name: "tcell", Parallelism: 1, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	be := mgr.NewBackend("tcell", 0, store.View(0), cfg)
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	const rows = 3
	for i := 1; i <= rows; i++ {
		be.Update(fmt.Sprintf("c-%d", i), tCell{
			Num: 10 * i, N32: int32(i), N64: int64(100 + i), U64: uint64(i),
			F32: float32(i) + 0.5, F64: float64(i) + 0.25, Str: fmt.Sprintf("s%d", i),
			Flag: i%2 == 0, At: base.Add(time.Duration(i) * time.Hour), Odd: int16(i),
		})
	}
	be.Flush()
	ex := NewExecutor(cat, 3)

	var (
		i64   = reflect.TypeOf(int64(0))
		f64   = reflect.TypeOf(float64(0))
		str   = reflect.TypeOf("")
		boolT = reflect.TypeOf(false)
		tm    = reflect.TypeOf(time.Time{})
	)
	cases := []struct {
		expr string
		want reflect.Type
	}{
		// Bound columns keep their own type, classified or not.
		{`num`, reflect.TypeOf(int(0))},
		{`n32`, reflect.TypeOf(int32(0))},
		{`n64`, i64},
		{`u64`, reflect.TypeOf(uint64(0))},
		{`f32`, reflect.TypeOf(float32(0))},
		{`f64`, f64},
		{`str`, str},
		{`flag`, boolT},
		{`at`, tm},
		{`odd`, reflect.TypeOf(int16(0))},
		{`partitionKey`, str},
		// Unary minus and arithmetic widen to int64 or float64.
		{`-num`, i64},
		{`-n32`, i64},
		{`-u64`, i64},
		{`-f32`, f64},
		{`-f64`, f64},
		{`num + n64`, i64},
		{`num - n32`, i64},
		{`num * u64`, i64},
		{`num % 3`, i64},
		{`num / 5`, i64}, // exact
		{`num / 7`, f64}, // inexact
		{`num + f64`, f64},
		{`n64 - f32`, f64},
		{`num * f64`, f64},
		{`num / f64`, f64},
		// Functions.
		{`ABS(num)`, i64},
		{`ABS(f32)`, f64},
		{`ROUND(f64)`, i64},
		{`ROUND(n32)`, i64},
		{`UPPER(str)`, str},
		{`LOWER(str)`, str},
		{`TRIM(str)`, str},
		{`LENGTH(str)`, i64},
		{`CONCAT(str, num)`, str},
		{`COALESCE(num, num)`, reflect.TypeOf(int(0))},
		{`COALESCE(n32, n32)`, reflect.TypeOf(int32(0))},
		{`COALESCE(n64, n64)`, i64},
		{`COALESCE(u64, u64)`, reflect.TypeOf(uint64(0))},
		{`COALESCE(f32, f32)`, reflect.TypeOf(float32(0))},
		{`COALESCE(f64, f64)`, f64},
		{`COALESCE(str, str)`, str},
		{`COALESCE(flag, flag)`, boolT},
		{`COALESCE(at, at)`, tm},
		{`COALESCE(odd, odd)`, reflect.TypeOf(int16(0))},
		// Predicates.
		{`str LIKE 's%'`, boolT},
		{`num IN (10, 20)`, boolT},
		{`f64 BETWEEN 1 AND 2`, boolT},
		{`str IS NULL`, boolT},
		{`NOT flag`, boolT},
		{`at < LOCALTIMESTAMP`, boolT},
	}
	aggs := []struct {
		expr string
		want reflect.Type
	}{
		{`COUNT(*)`, i64},
		{`SUM(num)`, i64},
		{`SUM(f64)`, f64},
		{`AVG(num)`, f64},
		{`MIN(n32)`, reflect.TypeOf(int32(0))},
		{`MAX(f32)`, reflect.TypeOf(float32(0))},
		{`MIN(str)`, str},
		{`MAX(at)`, tm},
		{`COUNT(DISTINCT str)`, i64},
		{`SUM(num) * 2`, i64},
		{`ROUND(AVG(f64))`, i64},
	}

	check := func(t *testing.T, mode string, vals [][]any, want reflect.Type, n int) {
		t.Helper()
		if len(vals) != n {
			t.Fatalf("%s: %d rows, want %d", mode, len(vals), n)
		}
		for _, r := range vals {
			if got := reflect.TypeOf(r[0]); got != want {
				t.Fatalf("%s: value %v is %v, want %v", mode, r[0], got, want)
			}
		}
	}
	oneShot := func(t *testing.T, q string) [][]any {
		t.Helper()
		res, err := ex.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Rows
	}
	standing := func(t *testing.T, q string) [][]any {
		t.Helper()
		var snap [][]any
		sq, err := ex.SubscribeQuery(q, func(*StandingQuery) func(SubEvent) {
			return func(ev SubEvent) {
				if ev.Snapshot {
					for _, d := range ev.Deltas {
						snap = append(snap, d.Vals)
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("SUBSCRIBE %s: %v", q, err)
		}
		sq.Close()
		return snap
	}
	run := func(t *testing.T, expr string, want reflect.Type, plainRows int) {
		plain := `SELECT ` + expr + ` AS v FROM tcell`
		grouped := plain + ` GROUP BY partitionKey HAVING COUNT(*) >= 1`
		check(t, plain, oneShot(t, plain), want, plainRows)
		check(t, grouped, oneShot(t, grouped), want, rows)
		check(t, "SUBSCRIBE "+plain, standing(t, plain), want, plainRows)
		check(t, "SUBSCRIBE "+grouped, standing(t, grouped), want, rows)
	}
	for _, c := range cases {
		t.Run(c.expr, func(t *testing.T) { run(t, c.expr, c.want, rows) })
	}
	for _, c := range aggs {
		// Without GROUP BY an aggregate makes one global group.
		t.Run(c.expr, func(t *testing.T) { run(t, c.expr, c.want, 1) })
	}
}

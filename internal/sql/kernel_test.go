package sql

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
	"squery/internal/wire"
)

// kRow is the row type of the kernel fixture's table; kAlt is another
// struct with the same columns, which the table's schema does not accept.
type kRow struct {
	Name string
	N    int64
	U    uint64
	F    float64
	B    bool
	T    time.Time
}

type kAlt struct {
	Name string
	N    int64
	U    uint64
	F    float64
	B    bool
	T    time.Time
}

// kVals is one fixture row's values, for the expected counts.
type kVals = kRow

// kernelFixture is two tables: kx, whose rows are kRow except for a few
// kAlt rows and one map row, all in partitions 1 and 2 — partition 0, which
// the planner samples for the schema, holds kRow only — and ky, a map row
// per key of kx but the 20 k-20xx, plus 10 keys kx lacks. kx is the larger,
// so a co-partitioned join of the two drives from ky and probes kx.
type kernelFixture struct {
	ex    *Executor
	store *kv.Store
	bx    *core.Backend
	by    *core.Backend
	vals  map[string]kVals
	parts partition.Partitioner
}

func newKernelFixture(t *testing.T) *kernelFixture {
	t.Helper()
	const parts = 8
	p := partition.New(parts)
	store := kv.NewStore(p, partition.Assign(parts, 3), nil)
	mgr := core.NewManager(store, 2)
	cat := core.NewCatalog(store)
	cfg := liveSnapCfg()
	if err := cat.RegisterJob(mgr.Registry(), "kx", "ky"); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"kx", "ky"} {
		if err := mgr.RegisterOperator(core.OperatorMeta{Name: op, Parallelism: 1, Config: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	f := &kernelFixture{ex: NewExecutor(cat, 3), store: store, vals: map[string]kVals{}, parts: p,
		bx: mgr.NewBackend("kx", 0, store.View(0), cfg), by: mgr.NewBackend("ky", 0, store.View(0), cfg)}
	f.write(0, 0, 1200)
	f.write(0, 2000, 2020)
	for i := 1200; i < 1210; i++ {
		f.by.Update(fmt.Sprintf("k-%d", i), map[string]any{"tag": "on"})
	}
	f.by.Flush()
	return f
}

// joined reports whether key k of kx has a partner in ky.
func joined(k string) bool { return !strings.HasPrefix(k, "k-20") }

// write writes keys k-lo..k-(hi-1) to kx, each row's values drawn from i
// and gen, and those below 2000 to ky too.
func (f *kernelFixture) write(gen, lo, hi int) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	past, future := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2101, 1, 1, 0, 0, 0, 0, time.UTC)
	maps := 0
	for i := lo; i < hi; i++ {
		j := i + gen*7
		key := fmt.Sprintf("k-%d", i)
		v := kVals{Name: names[j%4], N: int64(j % 20), U: uint64(j%4) << 62, F: float64(j%40) / 2, B: j%3 == 0, T: past}
		if j%5 < 2 {
			v.T = future
		}
		f.vals[key] = v
		var row any = v
		if q := f.parts.Of(key); q == 1 || q == 2 {
			switch {
			case i%9 == 0 && maps == 0:
				maps++
				row = map[string]any{"name": v.Name, "n": v.N, "u": v.U, "f": v.F, "b": v.B, "t": v.T}
			case i%9 == 0:
				row = kAlt(v)
			}
		}
		f.bx.Update(key, row)
		if joined(key) {
			f.by.Update(key, map[string]any{"tag": "on"})
		}
	}
	f.bx.Flush()
	f.by.Flush()
}

// count is how many kx rows the predicate holds on — of those with a
// partner in ky, if join.
func (f *kernelFixture) count(pred func(kVals) bool, join bool) int64 {
	var n int64
	for k, v := range f.vals {
		if pred(v) && (joined(k) || !join) {
			n++
		}
	}
	return n
}

// kernelShapes are predicates over kx (alias x), each with its meaning in
// plain Go and whether it compiles to kernels: comparisons of a column with
// a literal under AND/OR do, and every other shape — IN, BETWEEN, NOT, a
// bool column, a literal on the left, a LIKE leaf anywhere in the tree —
// runs through evalBatch whole.
var kernelShapes = []struct {
	where  string
	kernel bool
	holds  func(kVals) bool
}{
	{`x.name = 'beta'`, true, func(v kVals) bool { return v.Name == "beta" }},
	{`x.name != 'beta'`, true, func(v kVals) bool { return v.Name != "beta" }},
	{`x.name < 'c'`, true, func(v kVals) bool { return v.Name < "c" }},
	{`x.n >= 7`, true, func(v kVals) bool { return v.N >= 7 }},
	{`x.n = 7.0`, true, func(v kVals) bool { return v.N == 7 }},
	{`x.u > 0`, true, func(v kVals) bool { return v.U > 0 }},
	{`x.u > 5000000000000000000`, true, func(v kVals) bool { return v.U > 5e18 }},
	{`x.f < 7.5`, true, func(v kVals) bool { return v.F < 7.5 }},
	{`x.f <= 7`, true, func(v kVals) bool { return v.F <= 7 }},
	{`x.t < LOCALTIMESTAMP`, true, func(v kVals) bool { return v.T.Before(time.Now()) }},
	{`x.t >= LOCALTIMESTAMP`, true, func(v kVals) bool { return !v.T.Before(time.Now()) }},
	{`x.n < 10 AND x.name = 'beta'`, true, func(v kVals) bool { return v.N < 10 && v.Name == "beta" }},
	{`x.name = 'gamma' OR x.f > 15 OR x.u = 0`, true, func(v kVals) bool { return v.Name == "gamma" || v.F > 15 || v.U == 0 }},
	{`(x.name < 'c' OR x.t < LOCALTIMESTAMP) AND (x.n != 4 OR x.f > 12)`, true, func(v kVals) bool {
		return (v.Name < "c" || v.T.Before(time.Now())) && (v.N != 4 || v.F > 12)
	}},
	{`x.b = TRUE`, false, func(v kVals) bool { return v.B }},
	{`'gamma' = x.name`, false, func(v kVals) bool { return v.Name == "gamma" }},
	{`10 > x.n`, false, func(v kVals) bool { return v.N < 10 }},
	{`x.name IN ('alpha', 'delta')`, false, func(v kVals) bool { return v.Name == "alpha" || v.Name == "delta" }},
	{`x.n NOT BETWEEN 5 AND 15`, false, func(v kVals) bool { return v.N < 5 || v.N > 15 }},
	{`NOT (x.n < 10)`, false, func(v kVals) bool { return v.N >= 10 }},
	{`x.n < 10 AND x.name LIKE 'b%'`, false, func(v kVals) bool { return v.N < 10 && strings.HasPrefix(v.Name, "b") }},
	{`x.name LIKE 'g%' OR x.f > 15`, false, func(v kVals) bool { return strings.HasPrefix(v.Name, "g") || v.F > 15 }},
}

// TestFilterForeignTypeRows: a schema-bound table holding a few rows of
// another struct type and a map row, which the schema does not accept, is
// filtered by every kernel shape — each comparison kind, AND and OR — and by
// shapes that stay on evalBatch (IN, BETWEEN, NOT, a bool column, a literal
// on the left, a LIKE leaf under AND/OR), as a pushed filter, on the probed
// side of a co-partitioned join and as a residual (the right side of a LEFT
// JOIN, with misses). Each compiles to kernels or not as listed, returns
// the expected count and agrees with the by-name reference. A standing
// query over the same table folds to the one-shot result.
func TestFilterForeignTypeRows(t *testing.T) {
	f := newKernelFixture(t)
	positions := []struct {
		name, sql string
		// kernels reports whether the plan compiled the filter the shape
		// lands in, at this position, to kernels.
		kernels func(pp *physPlan) bool
	}{
		{"pushed", `SELECT COUNT(*) FROM kx x WHERE %s`,
			func(pp *physPlan) bool { return pp.pushedB[0].k != nil }},
		{"probed", `SELECT COUNT(*) FROM ky y JOIN kx x USING(partitionKey) WHERE y.tag = 'on' AND (%s)`,
			func(pp *physPlan) bool { return pp.pushedB[1].k != nil }},
		{"residual", `SELECT COUNT(*) FROM ky y LEFT JOIN kx x USING(partitionKey) WHERE %s`,
			func(pp *physPlan) bool { return pp.residualB.k != nil }},
	}
	for _, s := range kernelShapes {
		for _, pos := range positions {
			want := f.count(s.holds, pos.name != "pushed")
			q := fmt.Sprintf(pos.sql, s.where)
			pp, err := f.ex.compile(mustParse(t, q), ExecOpts{}, false)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			switch {
			case pos.name == "probed" && !(pp.coPart && pp.drive == 0):
				t.Fatalf("%s: not a co-partitioned join driven from ky", q)
			case pos.name == "residual" && pp.pushedB[1].e != nil:
				t.Fatalf("%s: the LEFT JOIN's right side took a pushed filter", q)
			}
			if got := pos.kernels(pp); got != s.kernel {
				t.Fatalf("%s: the %s filter compiled to kernels = %v, want %v", q, pos.name, got, s.kernel)
			}
			for _, opts := range []ExecOpts{{}, {DisablePushdown: true}} {
				res, err := f.ex.QueryWithOptions(q, opts)
				if err != nil {
					t.Fatalf("%s (pushdown off: %v): %v", q, opts.DisablePushdown, err)
				}
				if got := res.Rows[0][0]; got != want {
					t.Fatalf("%s (pushdown off: %v) = %v, want %d", q, opts.DisablePushdown, got, want)
				}
			}
		}
	}

	// The standing arm: subscribe once the table holds every row type, then
	// rewrite every key — kRow, kAlt and map rows alike — so that both the
	// seed and the deltas pass through the filter.
	type open struct {
		q    string
		sq   *StandingQuery
		view *foldedView
	}
	var subs []open
	for _, s := range kernelShapes {
		q := `SELECT COUNT(*) FROM kx x WHERE ` + s.where
		v := newFoldedView()
		sq, err := f.ex.SubscribeQuery(q, v.sink)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		subs = append(subs, open{q, sq, v})
	}
	f.write(1, 0, 1200)
	f.write(1, 2000, 2020)
	for _, s := range subs {
		mustHaveFolded(t, s.sq, s.view, handed(f.store, s.sq))
		res, err := f.ex.Query(s.q)
		if err != nil {
			t.Fatalf("%s: %v", s.q, err)
		}
		if got, want := s.view.canon(), canon(res.Rows, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: folded view disagrees with the one-shot result\n got  %v\n want %v", s.q, got, want)
		}
		s.sq.Close()
	}
}

// TestKernelTreesMatchEvalBatch: random AND/OR trees of kernel leaves
// over a schema-bound source, filtered over random selections, keep
// exactly the positions evalBatch's evaluation of the same tree keeps; a
// tree with one leaf that is not a kernel compiles to none.
func TestKernelTreesMatchEvalBatch(t *testing.T) {
	const n = 64
	srcs := []tableSrc{{name: "x", alias: "x", schema: wire.FlatSchemaOf(kRow{})}}
	pp := &physPlan{srcs: srcs}
	rng := rand.New(rand.NewSource(1))
	names := []string{"alpha", "beta", "gamma", "delta"}
	now := time.Now()
	xs := make([]core.TableRow, n)
	for i := range xs {
		xs[i].Raw = kRow{Name: names[rng.Intn(4)], N: int64(rng.Intn(10)), U: uint64(rng.Intn(4)) << 62,
			F: float64(rng.Intn(10)) / 2, T: now.Add(time.Duration(rng.Intn(3)-1) * time.Hour)}
	}
	kernels := []string{`x.n < 5`, `x.name = 'beta'`, `x.name >= 'c'`, `x.f != 2.5`, `x.u > 0`,
		`x.u <= 9223372036854775807`, `x.n = 3.0`, `x.t > LOCALTIMESTAMP`, `x.t <= LOCALTIMESTAMP`}
	generic := []string{`x.name LIKE 'a%'`, `x.n IN (1, 3)`, `NOT (x.n < 5)`, `5 > x.n`}
	var tree func(depth int, pure bool) string
	tree = func(depth int, pure bool) string {
		if depth == 0 || rng.Intn(3) == 0 {
			return kernels[rng.Intn(len(kernels))]
		}
		l, r := tree(depth-1, pure), tree(depth-1, pure)
		if !pure && rng.Intn(2) == 0 {
			r = generic[rng.Intn(len(generic))]
		}
		return "(" + l + [2]string{" AND ", " OR "}[rng.Intn(2)] + r + ")"
	}
	b := newBatch(srcs, &scratch{})
	b.cols[0], b.n = xs, n
	c := &evalCtx{now: now}
	for it := 0; it < 2000; it++ {
		where := tree(4, true)
		e := pp.bind(mustParse(t, `SELECT 1 FROM x WHERE `+where).Where)
		f := newFilter(e, srcs)
		if f.k == nil {
			t.Fatalf("%s: compiled to no kernel", where)
		}
		var sel []int32
		for i := int32(0); i < n; i++ {
			if rng.Intn(4) > 0 {
				sel = append(sel, i)
			}
		}
		want, err := c.filterBatch(filter{e: e}, &b, sel, nil)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		got, _ := c.filterBatch(f, &b, sel, nil)
		if !reflect.DeepEqual(append([]int32{}, got...), append([]int32{}, want...)) {
			t.Fatalf("%s: kept %v, want %v", where, got, want)
		}
		if mixed := "(" + tree(2, false) + " AND " + generic[it%len(generic)] + ")"; newFilter(pp.bind(mustParse(t, `SELECT 1 FROM x WHERE `+mixed).Where), srcs).k != nil {
			t.Fatalf("%s: compiled to kernels", mixed)
		}
	}
}

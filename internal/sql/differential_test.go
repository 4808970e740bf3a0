package sql

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"squery/internal/core"
	"squery/internal/kv"
	"squery/internal/partition"
)

// Differential parity: seeded random tables and generated queries, every
// query answered three ways that must agree — the fragment path (columns
// bound to schema ordinals, filter, probe and fold on the owning node), the
// DisablePushdown reference (by-name accessor, everything at the client),
// and a naive evaluation written here in plain Go over the same rows, which
// shares no code with the engine's evaluator. The first step of ROADMAP
// item 9(b).

// Two flat struct tables that share column names (stampNs, seq, zone — as
// the benchmark's tables share stampNs and seq) and one map table, which
// reports no schema.
type dOrder struct {
	Zone    string
	Amount  int64
	Price   float64
	Open    bool
	Late    time.Time
	StampNs int64
	Seq     int64
}

type dState struct {
	State   string
	Rider   string
	Late    time.Time
	StampNs int64
	Seq     int64
}

// dRow is the naive model's row: column name → value, pseudo-columns
// included.
type dRow map[string]any

// dTable is one table of the naive model: its rows by key, live and at
// each committed snapshot.
type dTable struct {
	op     string
	schema bool
	live   map[string]dRow
	snaps  map[int64]map[string]dRow
}

var (
	dZones  = []string{"north", "south", "east", "west"}
	dStates = []string{"NEW", "ACCEPTED", "PICKED_UP", "DELIVERED"}
	dPast   = time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	dFuture = time.Date(2101, 1, 1, 0, 0, 0, 0, time.UTC)
)

type diffFixture struct {
	ex     *Executor
	store  *kv.Store
	tables map[string]*dTable
	keys   []string
	// rng draws the rows every write wave writes through backends.
	rng      *rand.Rand
	backends map[string]*core.Backend
	// liveOnly makes generate read live tables only, which is what a
	// standing query can subscribe to.
	liveOnly bool
	// selfJoin makes generate build every query over a co-partitioned join
	// of a table with itself; generalJoin, over a join on a non-key column.
	selfJoin, generalJoin bool
	// limits is the range an unordered LIMIT is drawn from.
	limits int
}

var dOps = []string{"dorder", "dstate", "dnote"}

func rowOf(key string, v any) dRow {
	r := dRow{core.ColPartitionKey: key}
	switch x := v.(type) {
	case dOrder:
		r["zone"], r["amount"], r["price"], r["open"] = x.Zone, x.Amount, x.Price, x.Open
		r["late"], r["stampNs"], r["seq"] = x.Late, x.StampNs, x.Seq
	case dState:
		r["state"], r["rider"], r["late"], r["stampNs"], r["seq"] = x.State, x.Rider, x.Late, x.StampNs, x.Seq
	case map[string]any:
		for c, val := range x {
			r[c] = val
		}
	}
	return r
}

// newDiffFixture builds three operators over keys k-0..k-(n-1) in 16
// partitions, each holding a random subset, checkpoints (ssid 1), rewrites
// and deletes some rows, checkpoints again (ssid 2), then moves live state
// once more.
func newDiffFixture(t *testing.T, seed int64, n int) *diffFixture {
	t.Helper()
	return newDiffFixtureOn(t, seed, n, 16)
}

// newDiffFixtureOn is newDiffFixture over the given number of partitions.
func newDiffFixtureOn(t *testing.T, seed int64, n, parts int) *diffFixture {
	t.Helper()
	p := partition.New(parts)
	store := kv.NewStore(p, partition.Assign(parts, 3), nil)
	mgr := core.NewManager(store, 4)
	cat := core.NewCatalog(store)
	cfg := liveSnapCfg()
	if err := cat.RegisterJob(mgr.Registry(), dOps...); err != nil {
		t.Fatal(err)
	}
	f := &diffFixture{ex: NewExecutor(cat, 3), store: store, tables: map[string]*dTable{},
		rng: rand.New(rand.NewSource(seed)), backends: map[string]*core.Backend{}, limits: 8}
	for _, op := range dOps {
		if err := mgr.RegisterOperator(core.OperatorMeta{Name: op, Parallelism: 1, Config: cfg}); err != nil {
			t.Fatal(err)
		}
		f.backends[op] = mgr.NewBackend(op, 0, store.View(0), cfg)
		f.tables[op] = &dTable{op: op, schema: op != "dnote", live: map[string]dRow{}, snaps: map[int64]map[string]dRow{}}
	}
	for _, ix := range []struct {
		table, col string
		kind       core.IndexKind
	}{
		{"dorder", "zone", core.IndexHash},
		{"dorder", "amount", core.IndexBTree},
		{"snapshot_dorder", "zone", core.IndexHash},
		{"dstate", "state", core.IndexHash},
	} {
		if err := cat.CreateIndex(ix.table, ix.col, ix.kind); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		f.keys = append(f.keys, fmt.Sprintf("k-%d", i))
	}
	checkpoint := func() {
		ssid, err := mgr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range dOps {
			if _, err := f.backends[op].SnapshotPrepare(ssid); err != nil {
				t.Fatal(err)
			}
			snap := map[string]dRow{}
			for k, r := range f.tables[op].live {
				snap[k] = r
			}
			f.tables[op].snaps[ssid] = snap
		}
		if _, err := mgr.Commit(ssid); err != nil {
			t.Fatal(err)
		}
	}
	f.write(80)
	checkpoint()
	f.write(30)
	checkpoint()
	f.write(20)
	return f
}

// gen draws a random row of op for the i-th key.
func (f *diffFixture) gen(op string, i int) any {
	rng := f.rng
	late := func() time.Time {
		if rng.Intn(2) == 0 {
			return dPast
		}
		return dFuture
	}
	switch op {
	case "dorder":
		return dOrder{Zone: dZones[rng.Intn(len(dZones))], Amount: int64(rng.Intn(20)),
			Price: float64(rng.Intn(40)) / 2, Open: rng.Intn(2) == 0, Late: late(),
			StampNs: int64(rng.Intn(1000)), Seq: int64(i)}
	case "dstate":
		return dState{State: dStates[rng.Intn(len(dStates))], Rider: fmt.Sprintf("r%d", rng.Intn(5)),
			Late: late(), StampNs: int64(rng.Intn(1000)), Seq: int64(i + 1000)}
	}
	return map[string]any{"note": fmt.Sprintf("n%d", rng.Intn(6)), "weight": int64(rng.Intn(9)), "zone": dZones[rng.Intn(len(dZones))]}
}

// write is one wave of writes to the live tables and the naive model: each
// key of each table is rewritten with a fresh random row (share %) —
// inserted again if an earlier wave deleted it — or deleted (8 %).
func (f *diffFixture) write(share int) {
	for _, op := range dOps {
		for i, k := range f.keys {
			switch r := f.rng.Intn(100); {
			case r < share:
				v := f.gen(op, i)
				f.backends[op].Update(k, v)
				f.tables[op].live[k] = rowOf(k, v)
			case r < share+8:
				f.backends[op].Delete(k)
				delete(f.tables[op].live, k)
			}
		}
		f.backends[op].Flush()
	}
}

// dSource is one FROM/JOIN entry of a generated query.
type dSource struct {
	sql    string // table as written, quoted
	alias  string // "" = none
	rows   map[string]dRow
	schema bool
	cols   map[string]bool
}

func (s dSource) ref() string {
	if s.alias != "" {
		return s.alias
	}
	return strings.Trim(s.sql, `"`)
}

// source picks live or a snapshot of op; pin is the WHERE conjunct that
// selects the version ("" for live and for the latest snapshot).
func (f *diffFixture) source(rng *rand.Rand, op, alias string, qualifyPin bool) (dSource, string) {
	tb := f.tables[op]
	s := dSource{alias: alias, schema: tb.schema}
	pin := ""
	switch v := rng.Intn(3); {
	case f.liveOnly:
		// A live table has no snapshot to select: the planner strips an ssid
		// pin on it, so the pin changes nothing.
		s.sql, s.rows = op, tb.live
		if v > 0 {
			pin = fmt.Sprintf("ssid = %d", v)
		}
	case v == 0:
		s.sql, s.rows = op, tb.live
	case v == 1:
		s.sql, s.rows = `"snapshot_`+op+`"`, tb.snaps[2]
	default:
		s.sql, s.rows = `"snapshot_`+op+`"`, tb.snaps[1]
		pin = "ssid = 1"
	}
	if pin != "" && qualifyPin {
		pin = s.ref() + "." + pin
	}
	s.cols = map[string]bool{core.ColPartitionKey: true}
	for _, r := range s.rows {
		for c := range r {
			s.cols[c] = true
		}
		break
	}
	if len(s.rows) == 0 {
		for _, c := range map[string][]string{
			"dorder": {"zone", "amount", "price", "open", "late", "stampNs", "seq"},
			"dstate": {"state", "rider", "late", "stampNs", "seq"},
			"dnote":  {"note", "weight", "zone"},
		}[op] {
			s.cols[c] = true
		}
	}
	return s, pin
}

// dCol is a column reference of a generated query: its text, and how the
// naive model resolves it — the engine's documented rule: a qualified name
// reads its source (NULL on a LEFT JOIN miss); an unqualified name reads
// the first source, in order, that has the column.
type dCol struct {
	text string
	src  int // -1 = unqualified
	name string
}

func (c dCol) of(jr []dRow) any {
	if c.src >= 0 {
		if jr[c.src] == nil {
			return nil
		}
		return jr[c.src][c.name]
	}
	for _, r := range jr {
		if r == nil {
			continue
		}
		if v, ok := r[c.name]; ok {
			return v
		}
	}
	return nil
}

// tri is three-valued logic: 1 true, 0 false, -1 unknown.
type tri int

func triOf(b bool) tri {
	if b {
		return 1
	}
	return 0
}

// dPred is a generated predicate: its SQL and its meaning.
type dPred struct {
	sql  string
	eval func(jr []dRow) tri
}

func cmpNum(a float64, op string, b float64) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	}
	return a >= b
}

func numOf(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	panic(fmt.Sprintf("not numeric: %T", v))
}

// atom generates one predicate over column c, by the column's domain.
func atom(rng *rand.Rand, c dCol) dPred {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	nullable := func(fn func(v any) bool) func(jr []dRow) tri {
		return func(jr []dRow) tri {
			v := c.of(jr)
			if v == nil {
				return -1
			}
			return triOf(fn(v))
		}
	}
	if rng.Intn(10) == 0 {
		not := rng.Intn(2) == 0
		sql := c.text + " IS NULL"
		if not {
			sql = c.text + " IS NOT NULL"
		}
		return dPred{sql, func(jr []dRow) tri { return triOf((c.of(jr) == nil) != not) }}
	}
	switch c.name {
	case "zone", "state", "rider", "note", core.ColPartitionKey:
		domain := map[string][]string{"zone": dZones, "state": dStates,
			"rider": {"r0", "r1", "r2", "r3", "r4"}, "note": {"n0", "n1", "n2", "n3", "n4", "n5"},
			core.ColPartitionKey: {"k-1", "k-7", "k-12", "k-30"}}[c.name]
		v := domain[rng.Intn(len(domain))]
		switch rng.Intn(7) {
		case 0:
			w := domain[rng.Intn(len(domain))]
			return dPred{fmt.Sprintf("%s IN ('%s', '%s')", c.text, v, w),
				nullable(func(x any) bool { return x == v || x == w })}
		case 1:
			return dPred{fmt.Sprintf("%s LIKE '%s%%'", c.text, v[:1]),
				nullable(func(x any) bool { return strings.HasPrefix(x.(string), v[:1]) })}
		case 2:
			return dPred{fmt.Sprintf("%s != '%s'", c.text, v), nullable(func(x any) bool { return x != v })}
		case 3:
			n := len(v) - rng.Intn(2)
			return dPred{fmt.Sprintf("LENGTH(%s) = %d", c.text, n),
				nullable(func(x any) bool { return utf8.RuneCountInString(x.(string)) == n })}
		case 4:
			return dPred{fmt.Sprintf("UPPER(%s) = '%s'", c.text, strings.ToUpper(v)),
				nullable(func(x any) bool { return strings.ToUpper(x.(string)) == strings.ToUpper(v) })}
		case 5: // literal on the left
			op := ops[rng.Intn(len(ops))]
			return dPred{fmt.Sprintf("'%s' %s %s", v, flipOp[op], c.text),
				nullable(func(x any) bool { return cmpOrd(strings.Compare(x.(string), v), op) })}
		}
		return dPred{fmt.Sprintf("%s = '%s'", c.text, v), nullable(func(x any) bool { return x == v })}
	case "open":
		return dPred{c.text + " = TRUE", nullable(func(x any) bool { return x.(bool) })}
	case "late":
		op := []string{"<", ">"}[rng.Intn(2)]
		sql := c.text + " " + op + " LOCALTIMESTAMP"
		if rng.Intn(2) == 0 {
			sql = "LOCALTIMESTAMP " + flipOp[op] + " " + c.text
		}
		return dPred{sql, nullable(func(x any) bool { return x.(time.Time).Before(time.Now()) == (op == "<") })}
	case "price":
		switch rng.Intn(4) {
		case 0:
			lo := float64(rng.Intn(40)) / 2
			hi := lo + float64(rng.Intn(20))/2
			return dPred{fmt.Sprintf("%s BETWEEN %g AND %g", c.text, lo, hi),
				nullable(func(x any) bool { return numOf(x) >= lo && numOf(x) <= hi })}
		case 1: // arithmetic over two columns of the same source
			amount := dCol{text: strings.TrimSuffix(c.text, c.name) + "amount", src: c.src, name: "amount"}
			op, n := ops[rng.Intn(len(ops))], rng.Intn(40)
			return dPred{fmt.Sprintf("%s + %s %s %d", c.text, amount.text, op, n), func(jr []dRow) tri {
				p, a := c.of(jr), amount.of(jr)
				if p == nil || a == nil {
					return -1
				}
				return triOf(cmpNum(numOf(p)+numOf(a), op, float64(n)))
			}}
		}
		op, n := ops[rng.Intn(len(ops))], float64(rng.Intn(40))/2
		return dPred{fmt.Sprintf("%s %s %g", c.text, op, n), nullable(func(x any) bool { return cmpNum(numOf(x), op, n) })}
	}
	// Integer columns: amount, weight, stampNs, seq.
	max := map[string]int{"amount": 20, "weight": 9, "stampNs": 1000, "seq": 1100}[c.name]
	switch rng.Intn(6) {
	case 0:
		lo := rng.Intn(max)
		hi := lo + rng.Intn(max/2+1)
		return dPred{fmt.Sprintf("%s BETWEEN %d AND %d", c.text, lo, hi),
			nullable(func(x any) bool { return numOf(x) >= float64(lo) && numOf(x) <= float64(hi) })}
	case 1: // arithmetic
		op, n := ops[rng.Intn(len(ops))], rng.Intn(2*max)
		return dPred{fmt.Sprintf("%s * 2 %s %d", c.text, op, n), nullable(func(x any) bool { return cmpNum(numOf(x)*2, op, float64(n)) })}
	}
	op, n := ops[rng.Intn(len(ops))], rng.Intn(max)
	if rng.Intn(3) == 0 { // literal on the left
		return dPred{fmt.Sprintf("%d %s %s", n, flipOp[op], c.text), nullable(func(x any) bool { return cmpNum(numOf(x), op, float64(n)) })}
	}
	return dPred{fmt.Sprintf("%s %s %d", c.text, op, n), nullable(func(x any) bool { return cmpNum(numOf(x), op, float64(n)) })}
}

// flipOp is the operator that reads the same with its operands swapped.
var flipOp = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// cmpOrd applies op to a three-way comparison's result.
func cmpOrd(c int, op string) bool { return cmpNum(float64(c), op, 0) }

func orPred(a, b dPred) dPred {
	return dPred{"(" + a.sql + " OR " + b.sql + ")", func(jr []dRow) tri {
		x, y := a.eval(jr), b.eval(jr)
		switch {
		case x == 1 || y == 1:
			return 1
		case x == -1 || y == -1:
			return -1
		}
		return 0
	}}
}

func andPred(a, b dPred) dPred {
	return dPred{"(" + a.sql + " AND " + b.sql + ")", func(jr []dRow) tri {
		x, y := a.eval(jr), b.eval(jr)
		switch {
		case x == 0 || y == 0:
			return 0
		case x == -1 || y == -1:
			return -1
		}
		return 1
	}}
}

func notPred(a dPred) dPred {
	return dPred{"NOT (" + a.sql + ")", func(jr []dRow) tri {
		if x := a.eval(jr); x >= 0 {
			return 1 - x
		}
		return -1
	}}
}

// dQuery is one generated query with its naive answer.
type dQuery struct {
	sql     string
	want    [][]any
	ordered bool
	// limit >= 0 on an unordered query: any limit-sized subset of want.
	limit int
	// srcs are the query's sources, FROM first.
	srcs []dSource
}

// columns lists the references a query over srcs may use: qualified ones
// for every column of every source, unqualified ones likewise — ambiguous
// names included, which resolve to the first source.
func columns(srcs []dSource) (all []dCol) {
	seen := map[string]bool{}
	for i, s := range srcs {
		var names []string
		for c := range s.cols {
			names = append(names, c)
		}
		sort.Strings(names)
		for _, c := range names {
			if len(srcs) > 1 {
				all = append(all, dCol{text: s.ref() + "." + c, src: i, name: c})
			}
			if !seen[c] {
				seen[c] = true
				all = append(all, dCol{text: c, src: -1, name: c})
			}
		}
	}
	return all
}

// generate builds one random query and evaluates it naively.
func (f *diffFixture) generate(rng *rand.Rand) dQuery {
	var srcs []dSource
	var pins []string
	var from string
	// joinOn(l, r) says whether two rows join; outer keeps left misses;
	// manyToMany marks a join on a non-key column, where a row of the first
	// source pairs with many.
	var joinOn func(l, r dRow) bool
	outer, manyToMany := false, false
	add := func(op, alias string) dSource {
		s, pin := f.source(rng, op, alias, len(srcs) > 0 || rng.Intn(2) == 0)
		if pin != "" {
			pins = append(pins, pin)
		}
		srcs = append(srcs, s)
		return s
	}
	as := func(s dSource) string {
		if s.alias != "" {
			return s.sql + " AS " + s.alias
		}
		return s.sql
	}
	byKey := func(l, r dRow) bool { return l[core.ColPartitionKey] == r[core.ColPartitionKey] }
	pair := [][2]string{{"dorder", "dstate"}, {"dstate", "dorder"}, {"dorder", "dnote"}, {"dnote", "dstate"}}[rng.Intn(4)]
	shape := rng.Intn(6)
	if f.generalJoin {
		shape = 5
	}
	switch {
	case f.selfJoin: // co-partitioned self-join, in either form
		op := dOps[rng.Intn(len(dOps))]
		a, b := add(op, "x"), add(op, "y")
		cond := " USING(partitionKey)"
		if rng.Intn(2) == 0 {
			cond = " ON x.partitionKey = y.partitionKey"
		}
		from, joinOn = as(a)+" JOIN "+as(b)+cond, byKey
	case shape < 2: // single table
		op := []string{"dorder", "dstate", "dnote"}[rng.Intn(3)]
		alias := ""
		if rng.Intn(3) == 0 {
			alias = "t"
		}
		from = as(add(op, alias))
	case shape == 2: // co-partitioned join
		a, b := add(pair[0], ""), add(pair[1], "")
		if a.sql == b.sql {
			srcs, pins = srcs[:1], pins[:0]
			from = as(a)
			break
		}
		from, joinOn = as(a)+" JOIN "+as(b)+" USING(partitionKey)", byKey
	case shape == 3: // co-partitioned join in the ON form
		a, b := add(pair[0], "x"), add(pair[1], "y")
		from, joinOn = as(a)+" JOIN "+as(b)+" ON x.partitionKey = y.partitionKey", byKey
	case shape == 4: // left join
		a, b := add(pair[0], "x"), add(pair[1], "y")
		from, joinOn, outer = as(a)+" LEFT JOIN "+as(b)+" USING(partitionKey)", byKey, true
	default: // general join on a non-key column, many-to-many
		manyToMany = true
		on := func(col string) func(l, r dRow) bool {
			return func(l, r dRow) bool { return reflect.DeepEqual(l[col], r[col]) }
		}
		switch rng.Intn(3) {
		case 0: // with a table that has no schema
			a, b := add("dorder", "o"), add("dnote", "n")
			from, joinOn = as(a)+" JOIN "+as(b)+" ON o.zone = n.zone", on("zone")
		case 1: // between the two schema tables
			a, b := add("dorder", "o"), add("dstate", "s")
			from, joinOn = as(a)+" JOIN "+as(b)+" ON o.late = s.late", on("late")
		default: // of a schema table with itself
			a, b := add("dorder", "o"), add("dorder", "p")
			from, joinOn = as(a)+" JOIN "+as(b)+" ON o.zone = p.zone", on("zone")
		}
	}
	// An unqualified ssid pin applies to every snapshot table: only keep it
	// when it means what the model assumed.
	for i, p := range pins {
		if !strings.Contains(p, ".") && len(srcs) > 1 {
			pins[i] = srcs[0].ref() + "." + p
		}
	}
	cols := columns(srcs)
	pick := func() dCol { return cols[rng.Intn(len(cols))] }

	var preds []dPred
	for n := rng.Intn(4); n > 0; n-- {
		p := atom(rng, pick())
		switch rng.Intn(8) {
		case 0:
			p = orPred(p, atom(rng, pick()))
		case 1:
			p = notPred(p)
		case 2:
			p = notPred(orPred(p, atom(rng, pick())))
		case 3:
			p = orPred(andPred(p, atom(rng, pick())), notPred(atom(rng, pick())))
		}
		preds = append(preds, p)
	}
	where := append([]string(nil), pins...)
	for _, p := range preds {
		where = append(where, p.sql)
	}
	rng.Shuffle(len(where), func(i, j int) { where[i], where[j] = where[j], where[i] })

	// The naive working set: nested loops over sorted keys.
	sorted := func(rows map[string]dRow) []dRow {
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]dRow, len(keys))
		for i, k := range keys {
			out[i] = rows[k]
		}
		return out
	}
	var work [][]dRow
	var right []dRow
	if len(srcs) > 1 {
		right = sorted(srcs[1].rows)
	}
	for _, l := range sorted(srcs[0].rows) {
		if len(srcs) == 1 {
			work = append(work, []dRow{l})
			continue
		}
		hit := false
		for _, r := range right {
			if joinOn(l, r) {
				hit = true
				work = append(work, []dRow{l, r})
			}
		}
		if !hit && outer {
			work = append(work, []dRow{l, nil})
		}
	}
	kept := work[:0:0]
	for _, jr := range work {
		ok := true
		for _, p := range preds {
			if p.eval(jr) != 1 {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, jr)
		}
	}

	q := dQuery{limit: -1, srcs: srcs}
	sql := "SELECT "
	tail := ""
	keyCol := dCol{text: core.ColPartitionKey, src: -1, name: core.ColPartitionKey}
	if len(srcs) > 1 {
		keyCol = dCol{text: srcs[0].ref() + "." + core.ColPartitionKey, src: 0, name: core.ColPartitionKey}
	}
	if rng.Intn(2) == 0 {
		// Projection.
		var out []dCol
		for n := 1 + rng.Intn(3); n > 0; n-- {
			out = append(out, pick())
		}
		out = append(out, keyCol)
		texts := make([]string, len(out))
		for i, c := range out {
			texts[i] = c.text
		}
		sql += strings.Join(texts, ", ")
		for _, jr := range kept {
			row := make([]any, len(out))
			for i, c := range out {
				row[i] = c.of(jr)
			}
			q.want = append(q.want, row)
		}
		// The key is unique per output row except in the many-to-many join.
		switch rng.Intn(3) {
		case 0:
			if !manyToMany {
				tail, q.ordered = " ORDER BY "+keyCol.text, true
				if rng.Intn(2) == 0 {
					n := rng.Intn(8)
					tail += fmt.Sprintf(" LIMIT %d", n)
					if len(q.want) > n {
						q.want = q.want[:n]
					}
				}
			}
		case 1:
			q.limit = rng.Intn(f.limits)
			tail = fmt.Sprintf(" LIMIT %d", q.limit)
		}
	} else {
		// Aggregation.
		var group *dCol
		if rng.Intn(4) > 0 {
			for _, c := range cols {
				switch c.name {
				case "zone", "state", "rider", "note", "open", "amount", "weight":
					if rng.Intn(4) == 0 && group == nil {
						c := c
						group = &c
					}
				}
			}
		}
		type aggSpec struct {
			sql  string
			fold func(rows [][]dRow) any
		}
		nonNull := func(c dCol, rows [][]dRow) (vals []any) {
			for _, jr := range rows {
				if v := c.of(jr); v != nil {
					vals = append(vals, v)
				}
			}
			return vals
		}
		numeric := func(c dCol) bool {
			switch c.name {
			case "amount", "weight", "stampNs", "seq", "price":
				return true
			}
			return false
		}
		var aggs []aggSpec
		aggs = append(aggs, aggSpec{"COUNT(*)", func(rows [][]dRow) any { return int64(len(rows)) }})
		for n := rng.Intn(4); n > 0; n-- {
			c := pick()
			switch k := rng.Intn(6); {
			case k == 0:
				aggs = append(aggs, aggSpec{"COUNT(" + c.text + ")", func(rows [][]dRow) any { return int64(len(nonNull(c, rows))) }})
			case k == 1:
				aggs = append(aggs, aggSpec{"COUNT(DISTINCT " + c.text + ")", func(rows [][]dRow) any {
					seen := map[any]bool{}
					for _, v := range nonNull(c, rows) {
						if tm, ok := v.(time.Time); ok {
							v = tm.UnixNano()
						}
						seen[v] = true
					}
					return int64(len(seen))
				}})
			case k <= 3 && numeric(c):
				fn := []string{"SUM", "AVG"}[k-2]
				aggs = append(aggs, aggSpec{fn + "(" + c.text + ")", func(rows [][]dRow) any {
					vals := nonNull(c, rows)
					if len(vals) == 0 {
						return nil
					}
					var sum float64
					for _, v := range vals {
						sum += numOf(v)
					}
					if fn == "AVG" {
						return sum / float64(len(vals))
					}
					if _, isInt := vals[0].(int64); isInt {
						return int64(sum)
					}
					return sum
				}})
			case c.name != "open":
				fn := []string{"MIN", "MAX"}[rng.Intn(2)]
				aggs = append(aggs, aggSpec{fn + "(" + c.text + ")", func(rows [][]dRow) any {
					var best any
					for _, v := range nonNull(c, rows) {
						if best == nil {
							best = v
							continue
						}
						var less bool
						switch x := v.(type) {
						case string:
							less = x < best.(string)
						case time.Time:
							less = x.Before(best.(time.Time))
						default:
							less = numOf(v) < numOf(best)
						}
						if less == (fn == "MIN") && !reflect.DeepEqual(v, best) {
							best = v
						}
					}
					return best
				}})
			}
		}
		texts := make([]string, len(aggs))
		for i, a := range aggs {
			texts[i] = a.sql
		}
		minCount := -1
		if rng.Intn(3) == 0 {
			minCount = rng.Intn(4)
		}
		var groups [][][]dRow
		if group == nil {
			groups = [][][]dRow{kept}
		} else {
			texts = append(texts, group.text)
			idx := map[string]int{}
			for _, jr := range kept {
				k := fmt.Sprint(group.of(jr))
				i, ok := idx[k]
				if !ok {
					i = len(groups)
					idx[k] = i
					groups = append(groups, nil)
				}
				groups[i] = append(groups[i], jr)
			}
			tail = " GROUP BY " + group.text
		}
		if minCount >= 0 {
			tail += fmt.Sprintf(" HAVING COUNT(*) > %d", minCount)
		}
		sql += strings.Join(texts, ", ")
		for _, rows := range groups {
			if minCount >= 0 && len(rows) <= minCount {
				continue
			}
			row := make([]any, 0, len(aggs)+1)
			for _, a := range aggs {
				row = append(row, a.fold(rows))
			}
			if group != nil {
				row = append(row, group.of(rows[0]))
			}
			q.want = append(q.want, row)
		}
	}
	sql += " FROM " + from
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	q.sql = sql + tail
	return q
}

// canon renders result rows type-insensitively (the naive model keeps
// int64 and float64 where the engine returns a column's own Go type),
// sorted unless the query orders.
func canon(rows [][]any, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case time.Time:
				cells[j] = fmt.Sprint(x.UnixNano())
			case float64:
				cells[j] = fmt.Sprintf("%.6f", x)
			case int64:
				cells[j] = fmt.Sprintf("%.6f", float64(x))
			default:
				cells[j] = fmt.Sprint(v)
			}
		}
		out[i] = strings.Join(cells, "|")
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// TestDifferentialParity holds every engine path to the naive answer on
// generated queries: four small fixtures of 60 keys in 16 partitions, and
// one of 800 keys in 2 partitions, whose partitions span two chunks
// (kv.ScanBatch rows each) and whose unordered LIMITs, drawn up to two
// chunks' worth, fill in the middle of one.
func TestDifferentialParity(t *testing.T) {
	for _, in := range []struct {
		seed           int64
		keys, parts    int
		queries, limit int
	}{
		{1, 60, 16, 250, 8},
		{2, 60, 16, 250, 8},
		{3, 60, 16, 250, 8},
		{4, 60, 16, 250, 8},
		{5, 800, 2, 60, 2 * kv.ScanBatch},
	} {
		f := newDiffFixtureOn(t, in.seed, in.keys, in.parts)
		f.limits = in.limit
		if per := f.store.GetMap("dorder").Size() / in.parts; in.keys > 60 && per <= kv.ScanBatch {
			t.Fatalf("seed %d: %d rows per partition, want more than one chunk (%d)", in.seed, per, kv.ScanBatch)
		}
		rng := rand.New(rand.NewSource(in.seed * 977))
		for i := 0; i < in.queries; i++ {
			// The guarded policies spawn a goroutine per partition: run them
			// on every fifth query.
			checkDifferential(t, f, f.generate(rng), i%5 == 0, fmt.Sprintf("seed %d query %d", in.seed, i))
		}
	}
}

// FuzzDifferential is TestDifferentialParity's oracle behind a fuzz
// target: the input picks one of the four small fixtures and the seed the
// query is generated from, and every engine path must agree with the
// naive evaluation.
func FuzzDifferential(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(uint8(i), i*977)
	}
	fixtures := map[int64]*diffFixture{}
	f.Fuzz(func(t *testing.T, fixture uint8, query int64) {
		seed := int64(fixture%4) + 1
		fx := fixtures[seed]
		if fx == nil {
			fx = newDiffFixture(t, seed, 60)
			fixtures[seed] = fx
		}
		checkDifferential(t, fx, fx.generate(rand.New(rand.NewSource(query))), false, fmt.Sprintf("seed %d query %d", seed, query))
	})
}

// checkDifferential runs one generated query down the fragment path, the
// DisablePushdown reference and the DisableIndexes plan — and, when
// guarded is set, under each degradation policy — and holds each result to
// the naive answer and to the fragment path's value types.
func checkDifferential(t *testing.T, f *diffFixture, q dQuery, guarded bool, name string) {
	t.Helper()
	want := canon(q.want, q.ordered)
	// No fault is injected here, so a partition attempt that outlives the
	// default 100 ms timeout is a slow build (-race on a many-to-many
	// join), not a fault. On the fixture's unreplicated store the fallback
	// path then fails with PartitionUnavailableError
	// (TestQueryPolicyFallbackNeedsReplication pins that), and retry and
	// fail-fast would time out the same way.
	const noFault = time.Minute
	paths := []struct {
		name string
		opts ExecOpts
	}{
		{"fragment", ExecOpts{}},
		{"no pushdown", ExecOpts{DisablePushdown: true}},
		{"no indexes", ExecOpts{DisableIndexes: true}},
		{"retry", ExecOpts{Policy: PolicyRetry, PartitionTimeout: noFault}},
		{"fallback", ExecOpts{Policy: PolicyFallback, PartitionTimeout: noFault}},
		{"fail-fast", ExecOpts{Policy: PolicyFailFast, PartitionTimeout: noFault}},
	}
	if !guarded {
		paths = paths[:3]
	}
	var first *Result
	for _, p := range paths {
		res, err := f.ex.QueryWithOptions(q.sql, p.opts)
		if err != nil {
			t.Fatalf("%s (%s): %v\n%s", name, p.name, err, q.sql)
		}
		got := canon(res.Rows, q.ordered)
		if q.limit >= 0 {
			// Any limit-sized subset of the naive answer.
			if wantN := min(q.limit, len(want)); len(got) != wantN {
				t.Fatalf("%s (%s): %d rows, want %d\n%s", name, p.name, len(got), wantN, q.sql)
			}
			pool := map[string]int{}
			for _, w := range want {
				pool[w]++
			}
			for _, g := range got {
				if pool[g]--; pool[g] < 0 {
					t.Fatalf("%s (%s): row %s is not in the naive answer\n%s", name, p.name, g, q.sql)
				}
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s disagrees with the naive evaluation\n%s\n got  %v\n want %v", name, p.name, q.sql, got, want)
		}
		// Between engine paths the values' Go types must agree too.
		if first == nil {
			first = res
		} else if !q.ordered {
			if a, b := sortedRows(res), sortedRows(first); a != b {
				t.Fatalf("%s: %s and fragment path differ\n%s\n %s\n %s", name, p.name, q.sql, a, b)
			}
		} else if !reflect.DeepEqual(res.Rows, first.Rows) {
			t.Fatalf("%s: %s and fragment path differ\n%s\n %v\n %v", name, p.name, q.sql, res.Rows, first.Rows)
		}
	}
}

// compileOn compiles a query for white-box inspection of its pushdown.
func compileOn(t *testing.T, ex *Executor, q string) *physPlan {
	t.Helper()
	pp, err := ex.compile(mustParse(t, q), ExecOpts{}, false)
	if err != nil {
		t.Fatalf("compile %s: %v", q, err)
	}
	return pp
}

// TestPushdownSoundnessRules pins the attribution rules by name: what may
// run against one source's rows before the join, and what must wait for
// the joined row.
func TestPushdownSoundnessRules(t *testing.T) {
	f := newDiffFixture(t, 11, 60)
	agree := func(t *testing.T, q string) {
		t.Helper()
		got, err := f.ex.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.ex.QueryWithOptions(q, ExecOpts{DisablePushdown: true})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := sortedRows(got), sortedRows(want); a != b {
			t.Fatalf("%s\n fragment    %s\n no pushdown %s", q, a, b)
		}
	}

	t.Run("unqualified column goes to the one source that has it", func(t *testing.T) {
		q := `SELECT COUNT(*), zone FROM "snapshot_dorder" JOIN "snapshot_dstate" USING(partitionKey) WHERE state = 'ACCEPTED' AND amount > 3 GROUP BY zone`
		pp := compileOn(t, f.ex, q)
		if pp.pushed[0] == nil || pp.pushed[1] == nil || pp.residual != nil {
			t.Fatalf("pushed = %v, residual = %v; want amount on dorder, state on dstate, nothing left", pp.pushed, pp.residual)
		}
		if !strings.Contains(pp.pushed[0].String(), "amount") || !strings.Contains(pp.pushed[1].String(), "state") {
			t.Fatalf("conjuncts landed on the wrong side: %v", pp.pushed)
		}
		agree(t, q)
	})

	t.Run("right side of a LEFT JOIN is never pre-filtered", func(t *testing.T) {
		for _, q := range []string{
			`SELECT x.partitionKey, y.state FROM dorder x LEFT JOIN dstate y USING(partitionKey) WHERE y.state IS NULL`,
			`SELECT x.partitionKey, state FROM dorder x LEFT JOIN dstate y USING(partitionKey) WHERE state = 'NEW'`,
		} {
			pp := compileOn(t, f.ex, q)
			if pp.pushed[1] != nil || pp.residual == nil {
				t.Fatalf("%s: pushed[right] = %v, residual = %v; the conjunct must stay residual", q, pp.pushed[1], pp.residual)
			}
			agree(t, q)
			// It joins by probing the right side's copy of each partition,
			// driven from the left: nothing of the right side ships.
			_, pp, err := f.ex.execTraced(mustParse(t, q), ExecOpts{}, q)
			if err != nil {
				t.Fatal(err)
			}
			if plan := pp.render(3, true); !strings.Contains(plan, "co-partitioned key-lookup join, driven from the left side") ||
				!strings.Contains(plan, "left outer") || pp.drive != 0 || pp.scans[1].Stat().Shipped.Load() != 0 {
				t.Fatalf("%s: want a co-partitioned left outer join that ships none of the right side\n%s", q, plan)
			}
		}
		// Pre-filtering y by `state IS NULL` would keep no y row and turn
		// every x row into a NULL-extended match: count the real misses.
		res, err := f.ex.Query(`SELECT COUNT(*) FROM dorder x LEFT JOIN dstate y USING(partitionKey) WHERE y.state IS NULL`)
		if err != nil {
			t.Fatal(err)
		}
		misses := int64(0)
		for k := range f.tables["dorder"].live {
			if _, ok := f.tables["dstate"].live[k]; !ok {
				misses++
			}
		}
		if res.Rows[0][0] != misses {
			t.Fatalf("LEFT JOIN misses = %v, want %d", res.Rows[0][0], misses)
		}
	})

	t.Run("column found in both sources stays residual", func(t *testing.T) {
		q := `SELECT dorder.partitionKey, seq FROM dorder JOIN dstate USING(partitionKey) WHERE seq < 30 AND stampNs >= 0`
		pp := compileOn(t, f.ex, q)
		if pp.pushed[0] != nil || pp.pushed[1] != nil || pp.residual == nil {
			t.Fatalf("ambiguous columns were pushed: %v (residual %v)", pp.pushed, pp.residual)
		}
		// It reads the first source: dorder's seq runs 0..59, dstate's from 1000.
		res, err := f.ex.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			if r[1].(int64) >= 30 {
				t.Fatalf("seq resolved to the wrong source: %v", r)
			}
		}
		agree(t, q)
	})

	t.Run("column next to a source with no schema stays residual", func(t *testing.T) {
		q := `SELECT dorder.partitionKey FROM dorder JOIN dnote USING(partitionKey) WHERE amount > 5 AND weight < 4`
		pp := compileOn(t, f.ex, q)
		if pp.srcs[1].schema != nil {
			t.Fatal("a table of map rows reported a schema")
		}
		if pp.pushed[0] != nil || pp.pushed[1] != nil || pp.residual == nil {
			t.Fatalf("unqualified columns were attributed without every schema: %v", pp.pushed)
		}
		agree(t, q)
		// Qualified, the same conjuncts are attributable and pushed.
		pp = compileOn(t, f.ex, `SELECT dorder.partitionKey FROM dorder JOIN dnote USING(partitionKey) WHERE dorder.amount > 5 AND dnote.weight < 4`)
		if pp.pushed[0] == nil || pp.pushed[1] == nil || pp.residual != nil {
			t.Fatalf("qualified conjuncts were not pushed: %v (residual %v)", pp.pushed, pp.residual)
		}
	})
}

// TestDifferentialStanding is the standing arm of the oracle. In its
// query arm every generated query the SUBSCRIBE dialect accepts is
// subscribed, its snapshot frame must equal the naive answer, and after
// one more wave of writes — updates, deletes, re-inserts, join-column
// changes — its folded view must equal the one-shot result of the same
// query, which TestDifferentialParity holds against the naive evaluation.
// A second set of generated queries is then subscribed while write waves
// run on another goroutine, so every attach races writes to the partitions
// it seeds; once the waves stop, each folded view must equal the one-shot
// result too. Its template arm subscribes generated templates under many
// parameter tuples (templateArm); its general-join arm runs that over
// joins on a non-key column alone, where groups share the join index of
// each side key and a literal is lifted on both sides; and its self-join
// arm runs both over co-partitioned joins of a table with itself, whose
// two taps receive the same deltas.
func TestDifferentialStanding(t *testing.T) {
	t.Run("queries", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			f := newDiffFixture(t, seed, 60)
			f.liveOnly = true
			queryArm(t, f, seed)
		}
	})
	t.Run("templates", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			f := newDiffFixture(t, seed, 60)
			f.liveOnly = true
			templateArm(t, f, seed, rand.New(rand.NewSource(seed*104729)))
		}
	})
	t.Run("generaljoins", func(t *testing.T) {
		general := 0
		for seed := int64(1); seed <= 2; seed++ {
			f := newDiffFixture(t, seed, 30)
			f.liveOnly, f.generalJoin = true, true
			general += templateArm(t, f, seed, rand.New(rand.NewSource(seed*104729)))
		}
		if general == 0 {
			t.Fatal("no template lifted a literal on both sides of a general join")
		}
		t.Logf("%d templates lifted a literal on both sides of a general join", general)
	})
	t.Run("selfjoins", func(t *testing.T) {
		for seed := int64(1); seed <= 2; seed++ {
			f := newDiffFixture(t, seed, 60)
			f.liveOnly, f.selfJoin = true, true
			queryArm(t, f, seed)
			templateArm(t, f, seed, rand.New(rand.NewSource(seed*104729)))
		}
	})
}

// queryArm is TestDifferentialStanding's query arm over one seed's
// fixture.
func queryArm(t *testing.T, f *diffFixture, seed int64) {
	const perSeed = 150
	rng := rand.New(rand.NewSource(seed * 7919))
	type standing struct {
		sql  string
		sq   *StandingQuery
		view *foldedView
	}
	var subs []standing
	for i := 0; i < perSeed; i++ {
		q := f.generate(rng)
		v := newFoldedView()
		sq, err := f.ex.SubscribeQuery(q.sql, v.sink)
		if err != nil {
			if !strings.Contains(err.Error(), "SUBSCRIBE") {
				t.Fatalf("seed %d query %d: %v\n%s", seed, i, err, q.sql)
			}
			continue // outside the standing dialect
		}
		if got, want := v.canon(), canon(q.want, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d query %d: snapshot frame disagrees with the naive evaluation\n%s\n got  %v\n want %v", seed, i, q.sql, got, want)
		}
		subs = append(subs, standing{q.sql, sq, v})
	}
	if 3*len(subs) < perSeed {
		t.Fatalf("seed %d: the dialect accepted %d of %d generated queries, want at least a third", seed, len(subs), perSeed)
	}
	t.Logf("seed %d: %d of %d generated queries subscribed", seed, len(subs), perSeed)
	f.write(40)
	for i, s := range subs {
		mustHaveFolded(t, s.sq, s.view, handed(f.store, s.sq))
		res, err := f.ex.Query(s.sql)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, s.sql)
		}
		if got, want := s.view.canon(), canon(res.Rows, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d subscription %d: folded view disagrees with the one-shot result\n%s\n got  %v\n want %v", seed, i, s.sql, got, want)
		}
		s.sq.Close()
	}

	queries := make([]string, perSeed)
	for i := range queries {
		queries[i] = f.generate(rng).sql
	}
	stop, done := waves(f)
	subs = subs[:0]
	for i, q := range queries {
		v := newFoldedView()
		sq, err := f.ex.SubscribeQuery(q, v.sink)
		if err != nil {
			if !strings.Contains(err.Error(), "SUBSCRIBE") {
				close(stop)
				<-done
				t.Fatalf("seed %d racing query %d: %v\n%s", seed, i, err, q)
			}
			continue
		}
		subs = append(subs, standing{q, sq, v})
	}
	close(stop)
	t.Logf("seed %d: %d subscriptions attached during %d write waves", seed, len(subs), <-done)
	for i, s := range subs {
		mustMatchOneShot(t, f, s.sql, s.view, fmt.Sprintf("seed %d racing subscription %d", seed, i))
		s.sq.Close()
	}
}

// waves runs write waves on another goroutine until stop closes, then one
// more, and sends how many it ran on done.
func waves(f *diffFixture) (stop chan struct{}, done chan int) {
	stop, done = make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				f.write(40) // one more wave after the last attach
				done <- n + 1
				return
			default:
				f.write(40)
				n++
			}
		}
	}()
	return stop, done
}

// mustMatchOneShot asserts that a folded view has not failed and equals
// the one-shot result of its query.
func mustMatchOneShot(t *testing.T, f *diffFixture, q string, v *foldedView, name string) {
	t.Helper()
	v.mu.Lock()
	err := v.err
	v.mu.Unlock()
	if err != nil {
		t.Fatalf("%s failed: %v\n%s", name, err, q)
	}
	res, err := f.ex.Query(q)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, q)
	}
	if got, want := v.canon(), canon(res.Rows, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: folded view disagrees with the one-shot result\n%s\n got  %v\n want %v", name, q, got, want)
	}
}

// tParam is a column a template arm lifts, with the literals it is
// subscribed under: a value no row holds among them, and for an integer
// column a float literal, which `=` compares numerically but which is of
// the wrong kind to lift.
type tParam struct {
	op, col   string
	lits      []string
	wrongKind string
}

var tParams = []tParam{
	{"dorder", "zone", []string{"'north'", "'south'", "'east'", "'west'", "'nowhere'"}, ""},
	{"dorder", "amount", []string{"3", "4", "7", "12", "99"}, "4.0"},
	{"dorder", "open", []string{"TRUE", "FALSE"}, ""},
	{"dstate", "state", []string{"'NEW'", "'ACCEPTED'", "'PICKED_UP'", "'DELIVERED'", "'LOST'"}, ""},
	{"dstate", "rider", []string{"'r0'", "'r1'", "'r3'", "'r9'"}, ""},
}

// withConjunct adds c to a generated query's WHERE clause, ahead of what
// is there.
func withConjunct(q, c string) string {
	if i := strings.Index(q, " WHERE "); i >= 0 {
		return q[:i+7] + c + " AND " + q[i+7:]
	}
	for _, kw := range []string{" GROUP BY ", " HAVING "} {
		if i := strings.Index(q, kw); i >= 0 {
			return q[:i] + " WHERE " + c + q[i:]
		}
	}
	return q + " WHERE " + c
}

// templateArm subscribes generated templates: each generated query the
// dialect accepts gains a conjunct `col = literal` on a column of one of
// its sources that has a schema — or, in a join, on both — and is
// subscribed under many literals: every literal of its tParam, a few of
// them twice, and its wrong-kind literal, which must stay unlifted while
// all the others share one template. Half of the templates attach before the write waves start and
// stay; the rest attach while the waves run, and every third handle of the
// first half closes and its query attaches again meanwhile. Once the waves
// stop every view must equal the one-shot result, and a handle attached
// throughout must have folded exactly the deltas its tables handed on. It
// returns how many templates were general joins with slots on both sides.
func templateArm(t *testing.T, f *diffFixture, seed int64, rng *rand.Rand) (general int) {
	type tmpl struct {
		queries []string
		wrong   string // the wrong-kind query, "" when no column has one
		sides   []int
		base    string // the generated query, no literal added
	}
	var tmpls []tmpl
	for tries := 0; len(tmpls) < 12; tries++ {
		if tries > 500 {
			t.Fatalf("seed %d: generated %d templates in %d tries", seed, len(tmpls), tries)
		}
		q := f.generate(rng)
		if q.ordered || q.limit >= 0 || strings.Contains(q.sql, "LEFT JOIN") {
			continue // outside the standing dialect
		}
		var sides []int
		for i, s := range q.srcs {
			if s.schema {
				sides = append(sides, i)
			}
		}
		if len(sides) == 0 {
			continue
		}
		// A join with a schema on both sides lifts a literal on each half
		// of the time, so that a general join reads a join index per
		// tuple on both sides, each shared by the groups of that tuple.
		if len(sides) == 1 || rng.Intn(2) == 0 {
			sides = []int{sides[rng.Intn(len(sides))]}
		}
		if len(sides) == 2 && strings.Contains(q.sql, " ON o.") {
			general++
		}
		tp := tmpl{sides: sides, base: q.sql}
		var conj [][]string
		n := 0
		for _, side := range sides {
			src := q.srcs[side]
			var ps []tParam
			for _, p := range tParams {
				if p.op == src.sql {
					ps = append(ps, p)
				}
			}
			p := ps[rng.Intn(len(ps))]
			lits := append([]string(nil), p.lits...)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				lits = append(lits, p.lits[rng.Intn(len(p.lits))])
			}
			rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
			cs := make([]string, len(lits))
			for i, l := range lits {
				cs[i] = src.ref() + "." + p.col + " = " + l
			}
			if p.wrongKind != "" && tp.wrong == "" {
				tp.wrong = withConjunct(q.sql, src.ref()+"."+p.col+" = "+p.wrongKind)
			}
			conj = append(conj, cs)
			n = max(n, len(cs))
		}
		for k := 0; k < n; k++ {
			sql := q.sql
			for _, cs := range conj {
				sql = withConjunct(sql, cs[k%len(cs)])
			}
			tp.queries = append(tp.queries, sql)
		}
		tmpls = append(tmpls, tp)
	}

	type handle struct {
		sql    string
		sq     *StandingQuery
		view   *foldedView
		stayed bool
	}
	subscribe := func(q string) *handle {
		t.Helper()
		v := newFoldedView()
		sq, err := f.ex.SubscribeQuery(q, v.sink)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, q)
		}
		return &handle{sql: q, sq: sq, view: v}
	}
	// attach subscribes a template under all its literals and checks that
	// they share one template with the slots lifted, whatever instant each
	// binds, and that the wrong-kind literal does not; then the generated
	// query itself, twice: where it reads LOCALTIMESTAMP, the two bind two
	// instants, so two groups of one template share its taps.
	attach := func(tp tmpl) []*handle {
		t.Helper()
		var hs []*handle
		for _, q := range tp.queries {
			hs = append(hs, subscribe(q))
		}
		tpl := hs[0].sq.g.t
		for _, h := range hs {
			for _, side := range tp.sides {
				if h.sq.g.t != tpl || len(tpl.slots[side]) == 0 {
					t.Fatalf("seed %d: %s and %s do not share one template with the literals lifted", seed, tp.queries[0], h.sql)
				}
			}
		}
		if tp.wrong != "" {
			h := subscribe(tp.wrong)
			if h.sq.g.t == tpl {
				t.Fatalf("seed %d: the wrong-kind literal was lifted: %s", seed, tp.wrong)
			}
			hs = append(hs, h)
		}
		return append(hs, subscribe(tp.base), subscribe(tp.base))
	}
	var hs []*handle
	half := len(tmpls) / 2
	for _, tp := range tmpls[:half] {
		for _, h := range attach(tp) {
			h.stayed = true
			hs = append(hs, h)
		}
	}
	stable := len(hs)
	stop, done := waves(f)
	for _, tp := range tmpls[half:] {
		hs = append(hs, attach(tp)...)
	}
	for i := 0; i < stable; i += 3 {
		hs[i].sq.Close()
		hs[i].stayed = false
		hs = append(hs, subscribe(hs[i].sql))
		hs[i] = nil
	}
	close(stop)
	t.Logf("seed %d: %d templates under %d handles during %d write waves", seed, len(tmpls), len(hs), <-done)
	for i, h := range hs {
		if h == nil {
			continue
		}
		name := fmt.Sprintf("seed %d template handle %d", seed, i)
		mustMatchOneShot(t, f, h.sql, h.view, name)
		if h.stayed {
			mustHaveFolded(t, h.sq, h.view, handed(f.store, h.sq))
		}
		h.sq.Close()
	}
	return general
}

// FuzzDifferentialStanding is the standing arm of the oracle behind a fuzz
// target: the input picks one of the four fixtures and the seed the query
// is generated from. A query the SUBSCRIBE dialect accepts must open with
// the naive answer as its snapshot frame and, after one more wave of
// writes, hold the one-shot result of the same query. Each input builds
// its fixture afresh, so a failing input reproduces on its own.
func FuzzDifferentialStanding(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(uint8(i), i*7919)
	}
	// General joins with a literal lifted on both sides: dorder ⋈ dstate on
	// late (the first also reads LOCALTIMESTAMP on dstate's side) and
	// dorder with itself on zone.
	for i, q := range []int64{1484, 4574, 4260} {
		f.Add(uint8(i), q)
	}
	f.Fuzz(func(t *testing.T, fixture uint8, query int64) {
		seed := int64(fixture%4) + 1
		fx := newDiffFixture(t, seed, 60)
		fx.liveOnly = true
		q := fx.generate(rand.New(rand.NewSource(query)))
		name := fmt.Sprintf("seed %d query %d", seed, query)
		v := newFoldedView()
		sq, err := fx.ex.SubscribeQuery(q.sql, v.sink)
		if err != nil {
			if !strings.Contains(err.Error(), "SUBSCRIBE") {
				t.Fatalf("%s: %v\n%s", name, err, q.sql)
			}
			return // outside the standing dialect
		}
		defer sq.Close()
		if got, want := v.canon(), canon(q.want, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: snapshot frame disagrees with the naive evaluation\n%s\n got  %v\n want %v", name, q.sql, got, want)
		}
		fx.write(40)
		mustHaveFolded(t, sq, v, handed(fx.store, sq))
		res, err := fx.ex.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, q.sql)
		}
		if got, want := v.canon(), canon(res.Rows, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: folded view disagrees with the one-shot result\n%s\n got  %v\n want %v", name, q.sql, got, want)
		}
	})
}

package sql

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

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

// newDiffFixture builds three operators over keys k-0..k-(n-1), each
// holding a random subset, checkpoints (ssid 1), rewrites and deletes some
// rows, checkpoints again (ssid 2), then moves live state once more.
func newDiffFixture(t *testing.T, seed int64, n int) *diffFixture {
	t.Helper()
	p := partition.New(16)
	store := kv.NewStore(p, partition.Assign(16, 3), nil)
	mgr := core.NewManager(store, 4)
	cat := core.NewCatalog(store)
	cfg := liveSnapCfg()
	if err := cat.RegisterJob(mgr.Registry(), dOps...); err != nil {
		t.Fatal(err)
	}
	f := &diffFixture{ex: NewExecutor(cat, 3), store: store, tables: map[string]*dTable{},
		rng: rand.New(rand.NewSource(seed)), backends: map[string]*core.Backend{}}
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
		switch rng.Intn(4) {
		case 0:
			w := domain[rng.Intn(len(domain))]
			return dPred{fmt.Sprintf("%s IN ('%s', '%s')", c.text, v, w),
				nullable(func(x any) bool { return x == v || x == w })}
		case 1:
			return dPred{fmt.Sprintf("%s LIKE '%s%%'", c.text, v[:1]),
				nullable(func(x any) bool { return strings.HasPrefix(x.(string), v[:1]) })}
		case 2:
			return dPred{fmt.Sprintf("%s != '%s'", c.text, v), nullable(func(x any) bool { return x != v })}
		}
		return dPred{fmt.Sprintf("%s = '%s'", c.text, v), nullable(func(x any) bool { return x == v })}
	case "open":
		return dPred{c.text + " = TRUE", nullable(func(x any) bool { return x.(bool) })}
	case "late":
		op := []string{"<", ">"}[rng.Intn(2)]
		return dPred{c.text + " " + op + " LOCALTIMESTAMP",
			nullable(func(x any) bool { return x.(time.Time).Before(time.Now()) == (op == "<") })}
	case "price":
		op, n := ops[rng.Intn(len(ops))], float64(rng.Intn(40))/2
		return dPred{fmt.Sprintf("%s %s %g", c.text, op, n), nullable(func(x any) bool { return cmpNum(numOf(x), op, n) })}
	}
	// Integer columns: amount, weight, stampNs, seq.
	max := map[string]int{"amount": 20, "weight": 9, "stampNs": 1000, "seq": 1100}[c.name]
	if rng.Intn(4) == 0 {
		lo := rng.Intn(max)
		hi := lo + rng.Intn(max/2+1)
		return dPred{fmt.Sprintf("%s BETWEEN %d AND %d", c.text, lo, hi),
			nullable(func(x any) bool { return numOf(x) >= float64(lo) && numOf(x) <= float64(hi) })}
	}
	op, n := ops[rng.Intn(len(ops))], rng.Intn(max)
	if rng.Intn(3) == 0 { // literal on the left
		flip := map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
		return dPred{fmt.Sprintf("%d %s %s", n, flip, c.text), nullable(func(x any) bool { return cmpNum(numOf(x), op, float64(n)) })}
	}
	return dPred{fmt.Sprintf("%s %s %d", c.text, op, n), nullable(func(x any) bool { return cmpNum(numOf(x), op, float64(n)) })}
}

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
	// joinOn(l, r) says whether two rows join; outer keeps left misses.
	var joinOn func(l, r dRow) bool
	outer := false
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
	switch shape := rng.Intn(6); shape {
	case 0, 1: // single table
		op := []string{"dorder", "dstate", "dnote"}[rng.Intn(3)]
		alias := ""
		if rng.Intn(3) == 0 {
			alias = "t"
		}
		from = as(add(op, alias))
	case 2: // co-partitioned join
		a, b := add(pair[0], ""), add(pair[1], "")
		if a.sql == b.sql {
			srcs, pins = srcs[:1], pins[:0]
			from = as(a)
			break
		}
		from, joinOn = as(a)+" JOIN "+as(b)+" USING(partitionKey)", byKey
	case 3: // general join on the key
		a, b := add(pair[0], "x"), add(pair[1], "y")
		from, joinOn = as(a)+" JOIN "+as(b)+" ON x.partitionKey = y.partitionKey", byKey
	case 4: // left join
		a, b := add(pair[0], "x"), add(pair[1], "y")
		from, joinOn, outer = as(a)+" LEFT JOIN "+as(b)+" USING(partitionKey)", byKey, true
	default: // general join on a non-key column, many-to-many
		a, b := add("dorder", "o"), add("dnote", "n")
		from = as(a) + " JOIN " + as(b) + " ON o.zone = n.zone"
		joinOn = func(l, r dRow) bool { return l["zone"] == r["zone"] }
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
		switch rng.Intn(6) {
		case 0:
			p = orPred(p, atom(rng, pick()))
		case 1:
			p = notPred(p)
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
	for _, l := range sorted(srcs[0].rows) {
		if len(srcs) == 1 {
			work = append(work, []dRow{l})
			continue
		}
		hit := false
		for _, r := range sorted(srcs[1].rows) {
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

	q := dQuery{limit: -1}
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
		unique := !strings.Contains(from, "o.zone")
		switch rng.Intn(3) {
		case 0:
			if unique {
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
			q.limit = rng.Intn(8)
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

func TestDifferentialParity(t *testing.T) {
	const perSeed = 250
	for seed := int64(1); seed <= 4; seed++ {
		f := newDiffFixture(t, seed, 60)
		rng := rand.New(rand.NewSource(seed * 977))
		for i := 0; i < perSeed; i++ {
			q := f.generate(rng)
			want := canon(q.want, q.ordered)
			paths := []struct {
				name string
				opts ExecOpts
			}{
				{"fragment", ExecOpts{}},
				{"no pushdown", ExecOpts{DisablePushdown: true}},
				{"no indexes", ExecOpts{DisableIndexes: true}},
				{"retry", ExecOpts{Policy: PolicyRetry}},
				{"fallback", ExecOpts{Policy: PolicyFallback}},
				{"fail-fast", ExecOpts{Policy: PolicyFailFast}},
			}
			if i%5 != 0 {
				paths = paths[:3] // the guarded policies spawn a goroutine per partition
			}
			var first *Result
			for _, p := range paths {
				res, err := f.ex.QueryWithOptions(q.sql, p.opts)
				if err != nil {
					t.Fatalf("seed %d query %d (%s): %v\n%s", seed, i, p.name, err, q.sql)
				}
				got := canon(res.Rows, q.ordered)
				if q.limit >= 0 {
					// Any limit-sized subset of the naive answer.
					if wantN := min(q.limit, len(want)); len(got) != wantN {
						t.Fatalf("seed %d query %d (%s): %d rows, want %d\n%s", seed, i, p.name, len(got), wantN, q.sql)
					}
					pool := map[string]int{}
					for _, w := range want {
						pool[w]++
					}
					for _, g := range got {
						if pool[g]--; pool[g] < 0 {
							t.Fatalf("seed %d query %d (%s): row %s is not in the naive answer\n%s", seed, i, p.name, g, q.sql)
						}
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d query %d: %s disagrees with the naive evaluation\n%s\n got  %v\n want %v", seed, i, p.name, q.sql, got, want)
				}
				// Between engine paths the values' Go types must agree too.
				if first == nil {
					first = res
				} else if !q.ordered {
					if a, b := sortedRows(res), sortedRows(first); a != b {
						t.Fatalf("seed %d query %d: %s and fragment path differ\n%s\n %s\n %s", seed, i, p.name, q.sql, a, b)
					}
				} else if !reflect.DeepEqual(res.Rows, first.Rows) {
					t.Fatalf("seed %d query %d: %s and fragment path differ\n%s\n %v\n %v", seed, i, p.name, q.sql, res.Rows, first.Rows)
				}
			}
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

// TestDifferentialStanding is the standing arm of the oracle: every
// generated query the SUBSCRIBE dialect accepts is subscribed, its snapshot
// frame must equal the naive answer, and after one more wave of writes —
// updates, deletes, re-inserts, join-column changes — its folded view must
// equal the one-shot result of the same query, which TestDifferentialParity
// holds against the naive evaluation. A second set of generated queries is
// then subscribed while write waves run on another goroutine, so every
// attach races writes to the partitions it seeds; once the waves stop,
// each folded view must equal the one-shot result too.
func TestDifferentialStanding(t *testing.T) {
	const perSeed = 150
	for seed := int64(1); seed <= 4; seed++ {
		f := newDiffFixture(t, seed, 60)
		f.liveOnly = true
		f.ex.SetArrangements(core.NewArrangeRegistry(f.store))
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
			mustHaveFolded(t, s.sq, s.view, handed(f.ex, s.sq))
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
		stop, done := make(chan struct{}), make(chan int)
		go func() {
			waves := 0
			for {
				select {
				case <-stop:
					f.write(40) // one more wave after the last attach
					done <- waves + 1
					return
				default:
					f.write(40)
					waves++
				}
			}
		}()
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
		waves := <-done
		t.Logf("seed %d: %d subscriptions attached during %d write waves", seed, len(subs), waves)
		for i, s := range subs {
			s.view.mu.Lock()
			err := s.view.err
			s.view.mu.Unlock()
			if err != nil {
				t.Fatalf("seed %d racing subscription %d failed: %v\n%s", seed, i, err, s.sql)
			}
			res, err := f.ex.Query(s.sql)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, s.sql)
			}
			if got, want := s.view.canon(), canon(res.Rows, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d racing subscription %d: folded view disagrees with the one-shot result\n%s\n got  %v\n want %v", seed, i, s.sql, got, want)
			}
			s.sq.Close()
		}
	}
}

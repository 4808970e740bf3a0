package plan

import (
	"strings"
	"testing"
	"time"
)

// tree builds the representative plan: limit(sort(project(filter(
// hashjoin(scan, gathered scan))))), with stats filled as if it had
// executed.
func tree() Node {
	left := &Scan{Table: "orders", Mode: Live, ClusterNodes: 3, Partitions: 32,
		PartHint: -1, Filter: "(total > 5)"}
	right := &Scan{Table: "snapshot_state", Mode: Snapshot, SSID: 7, Pinned: true,
		ClusterNodes: 3, Partitions: 32, PartHint: 4, PrunedParts: 31,
		Gathered: true, Cols: []string{"total", "zone"}}
	left.Stat().Parts.Store(32)
	left.Stat().Examined.Store(1000)
	left.Stat().Rows.Store(40)
	left.Stat().WallNs.Store(int64(2 * time.Millisecond))
	right.Stat().Parts.Store(1)
	right.Stat().Rows.Store(3)
	j := &HashJoin{Left: left, Right: right, Cond: "USING(partitionKey)"}
	j.Stat().Rows.Store(12)
	f := &Filter{Input: j, Pred: "(zone = 'north')"}
	f.Stat().In.Store(12)
	f.Stat().Rows.Store(5)
	p := &Project{Input: f, Items: []string{"zone", "total"}}
	p.Stat().Rows.Store(5)
	s := &Sort{Input: p, Keys: []string{"total DESC"}}
	return &Limit{Input: s, N: 3, EarlyStop: false}
}

func TestRenderPlanOnly(t *testing.T) {
	out := Render(tree(), RenderOpts{ClusterNodes: 3, Partitions: 32})
	for _, want := range []string{
		"plan (3 nodes, 32 partitions):",
		"limit 3",
		"sort total DESC",
		"project zone, total",
		"filter (zone = 'north')",
		"join USING(partitionKey) global hash join (build right at the client, probe left on the owning node)",
		"scan orders live (read uncommitted), scatter-gather over 3 nodes, pushed filter (total > 5)",
		"scan snapshot_state snapshot @ ssid 7 (pinned), scatter-gather over 3 nodes, pruned to partition 4 by partitionKey, ship cols (total, zone)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "[analyze:") || strings.Contains(out, "analyzed:") {
		t.Fatalf("plan-only render leaked analyze annotations:\n%s", out)
	}
	// Indentation: each level two spaces deeper, root at one level.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.HasPrefix(lines[1], "  limit") {
		t.Fatalf("root not at depth 1: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    sort") {
		t.Fatalf("child not at depth 2: %q", lines[2])
	}
}

func TestRenderAnalyzed(t *testing.T) {
	out := Render(tree(), RenderOpts{
		ClusterNodes: 3, Partitions: 32, Analyzed: true,
		Total: 5 * time.Millisecond, Returned: 3, Degraded: 1,
	})
	for _, want := range []string{
		"scanned 32/32 partitions (0 pruned), 40 rows kept (of 1000 examined)",
		"scanned 1/32 partitions (31 pruned), 3 rows, shipped",
		"[analyze: 12 rows",
		"[analyze: kept 5/12 rows",
		"[analyze: 5 row(s)",
		"analyzed: total 5ms, 3 row(s) returned, 1 degraded partition(s)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("analyzed plan missing %q:\n%s", want, out)
		}
	}
	// Sort and limit carry no stats and must not render empty brackets.
	if strings.Contains(out, "[analyze: ]") {
		t.Fatalf("empty analyze annotation rendered:\n%s", out)
	}
}

func TestScanDescribeModes(t *testing.T) {
	v := &Scan{Table: "sys.queries", Mode: Virtual, PartHint: -1, Partitions: 1}
	if got := v.Describe(); !strings.Contains(got, "virtual system table, single partition") {
		t.Fatalf("virtual scan: %q", got)
	}
	u := &Scan{Table: "snapshot_x", Mode: Snapshot, Unresolved: "no committed snapshot", PartHint: -1}
	if got := u.Describe(); !strings.Contains(got, "snapshot (unresolvable now: no committed snapshot)") {
		t.Fatalf("unresolved scan: %q", got)
	}
	lo := &HashJoin{Cond: "ON a = b", LeftOuter: true}
	if got := lo.Describe(); !strings.Contains(got, "left outer") {
		t.Fatalf("left outer join: %q", got)
	}
	es := &Limit{N: 10, EarlyStop: true}
	if got := es.Describe(); !strings.Contains(got, "early-stop") {
		t.Fatalf("early-stop limit: %q", got)
	}
	ag := &Aggregate{GroupBy: []string{"zone"}, Having: "(COUNT(*) > 1)"}
	if got := ag.Describe(); got != "aggregate GROUP BY zone, folded per node into partial groups, merged at the client, having (COUNT(*) > 1)" {
		t.Fatalf("aggregate describe: %q", got)
	}
	ag.AtClient = true
	if got := ag.Describe(); got != "aggregate GROUP BY zone, folded at the client, having (COUNT(*) > 1)" {
		t.Fatalf("client-side aggregate describe: %q", got)
	}
	cj := &CoJoin{
		Drive:    &Scan{Table: "snapshot_state", Mode: Snapshot, SSID: 7, PartHint: -1, Filter: "(state = 'x')"},
		Probe:    &Scan{Table: "snapshot_info", Mode: Snapshot, SSID: 7, PartHint: -1, Probe: true},
		DriveEst: 12,
	}
	if got := cj.Describe(); !strings.Contains(got, "co-partitioned key-lookup join") || !strings.Contains(got, "est≈12 rows") {
		t.Fatalf("co-partitioned join: %q", got)
	}
	if got := cj.Probe.Describe(); !strings.HasPrefix(got, "probe snapshot_info snapshot @ ssid 7") || !strings.Contains(got, "key lookup by the driving row's partitionKey") {
		t.Fatalf("probed scan: %q", got)
	}
	kl := &Scan{Table: "orders", Mode: Live, ClusterNodes: 3, PartHint: 4, Access: "key lookup(partitionKey = k)", EstRows: 1}
	if got := kl.Describe(); !strings.Contains(got, "access key lookup(partitionKey = k) (est≈1 rows)") {
		t.Fatalf("key-lookup scan: %q", got)
	}
}

func TestWalkOrder(t *testing.T) {
	var kinds []string
	Walk(tree(), func(n Node) { kinds = append(kinds, n.Kind()) })
	want := "limit sort project filter hashjoin scan scan"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("walk order = %q, want %q", got, want)
	}
}

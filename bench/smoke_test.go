package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The smoke test runs every workload for about a second on a thousand
// keys and asserts deterministic facts only: which metrics come out, that
// no operation fails, and the shape of the span forest. It compares no
// clock readings (ROADMAP item 4a).

func TestMain(m *testing.M) {
	// The benchmark reads its contract and keeps its scratch files
	// relative to the repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func small(w *workload) *workload {
	c := *w
	c.orders, c.riders = 1000, 100
	return &c
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		d, ok := defOf(m.Name)
		if !ok {
			t.Errorf("BENCHMARK.json lists %s, which the benchmark does not measure", m.Name)
			continue
		}
		if d.unit != m.Unit || d.better != m.Better {
			t.Errorf("%s: BENCHMARK.json says %s/%s, the catalogue %s/%s", m.Name, m.Unit, m.Better, d.unit, d.better)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), layerDefs...) {
		if !seen[d.name] {
			t.Errorf("the catalogue's %s is missing from BENCHMARK.json", d.name)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

func TestEveryWorkloadRunsCorrectly(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := runOnce(runOpts{w: small(w), seed: 7, seconds: 1, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, tl := range res.tallies {
				if tl.attempted == 0 {
					t.Errorf("no %s attempted", tl.kind)
				}
				if tl.failed != 0 {
					t.Errorf("%d of %d %s failed: %v", tl.failed, tl.attempted, tl.kind, tl.firstErr)
				}
			}
			// A traced run measures everything except that its setup_s is
			// one set-up, not a median.
			for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
				if _, ok := res.values[m.Name]; !ok {
					t.Errorf("metric %s was not measured", m.Name)
				}
			}
			for n := range res.values {
				if _, ok := defOf(n); !ok {
					t.Errorf("measured %s, which the catalogue does not declare", n)
				}
			}
			checkForest(t, res.spans)
		})
	}
}

// checkForest asserts that the spans form a forest: ids are dense, every
// parent exists and precedes its child, a child shares its root's trace
// id, and no self time is negative.
func checkForest(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("a traced run recorded no spans")
	}
	roots := map[string]bool{}
	for i, s := range spans {
		if s.ID != i+1 {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.SelfNs < 0 {
			t.Errorf("span %d (%s) has self time %d", s.ID, s.Name, s.SelfNs)
		}
		if s.Parent == 0 {
			roots[s.Name] = true
			continue
		}
		if s.Parent >= s.ID {
			t.Errorf("span %d (%s) names parent %d, which does not precede it", s.ID, s.Name, s.Parent)
			continue
		}
		if p := spans[s.Parent-1]; p.TraceID != s.TraceID {
			t.Errorf("span %d (%s) has trace id %d, its parent %d", s.ID, s.Name, s.TraceID, p.TraceID)
		}
	}
	for _, want := range []string{"record", "checkpoint"} {
		if !roots[want] {
			t.Errorf("no %s root among the spans", want)
		}
	}
}

func TestResultLineHasTheContractsShape(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOnce(runOpts{w: small(workloads[0]), seed: 3, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	line, err := resultLine(res, spec.EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%v in %s", err, line)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
		t.Fatalf("correct/attempted/failed are wrong in %s", line)
	}
	if len(got.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("%d metrics, want %d", len(got.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		v, ok := got.Metrics[m.Name]
		if !ok || v.Value == nil || v.Unit != m.Unit {
			t.Errorf("metric %s is missing or has the wrong unit in %s", m.Name, line)
		}
	}
}

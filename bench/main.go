// Command bench is the repository's benchmark: four workloads over one
// Q-commerce pipeline, driven through the engine's public functions only.
//
//	bash bench/run.sh --workload ingest --seed 1 --seconds 16 --trace 0
//
// runs one workload once and prints, as the last line of standard output,
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) that
// BENCHMARK.json lists. Without --workload it runs every workload both
// ways and prints every metric by name with its unit. With -repeat N it
// runs N sets and checks them against BENCHMARK.json's bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// procs is the benchmark's GOMAXPROCS: the recorded host's two cores,
// pinned so that a larger machine runs the same schedule.
const procs = 2

func main() {
	name := flag.String("workload", "", "workload to run (ingest, query, mixed, subscribe); empty runs all, traced and untraced")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run N full sets and compare them against the bounds")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *repeat > 0:
		os.Exit(repeatSets(spec, *repeat, *seed, *seconds))
	case *name == "":
		os.Exit(runAll(spec, *seed, *seconds))
	}
	w := workloadByName(*name)
	if w == nil {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runOnce(runOpts{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: "bench/out"})
	if err != nil {
		fail(err)
	}
	summary(os.Stderr, w.name, res)
	names := spec.names(*trace == 1)
	line, err := resultLine(res, names)
	if err != nil {
		fail(err)
	}
	fmt.Println(line)
	if res.failed() > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark's contract (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// names lists the metrics a run reports: per_layer when traced,
// end_to_end otherwise.
func (s *benchSpec) names(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// resultLine renders the one-line JSON result the contract asks for.
func resultLine(res *result, names []specMetric) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.failed() == 0, res.attempted(), res.failed(), map[string]val{}}
	for _, m := range names {
		x, ok := res.values[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = val{x, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// summary prints every value the run measured, the operation tallies and
// the host fingerprint.
func summary(f *os.File, workload string, res *result) {
	fmt.Fprintf(f, "workload %s  %s\n", workload, fingerprint())
	names := make([]string, 0, len(res.values))
	for n := range res.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d, _ := defOf(n)
		fmt.Fprintf(f, "  %-42s %14.4f %s\n", n, res.values[n], d.unit)
	}
	for _, t := range res.tallies {
		fmt.Fprintf(f, "  %-14s attempted %9d  failed %d\n", t.kind, t.attempted, t.failed)
		if t.firstErr != nil {
			fmt.Fprintf(f, "    first failure: %v\n", t.firstErr)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintf(f, "  note: %s\n", n)
	}
	for _, n := range res.invalid {
		fmt.Fprintf(f, "  invalid as a measurement: %s\n", n)
	}
}

// fingerprint records what a number was measured on.
func fingerprint() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("cores=%d GOMAXPROCS=%d %s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

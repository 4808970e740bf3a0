package main

import (
	"fmt"
	"math"
	"os"

	"squery/bench/stats"
)

// runAll runs every workload untraced and traced once and prints every
// metric by name with its unit. It returns the process exit code.
func runAll(spec *benchSpec, seed int64, seconds float64) int {
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOnce(runOpts{w: w, seed: seed, seconds: seconds, trace: traced, outDir: "bench/out"})
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", w.name, err)
				return 2
			}
			fmt.Printf("workload %s trace=%v attempted=%d failed=%d\n", w.name, traced, res.attempted(), res.failed())
			for _, m := range spec.names(traced) {
				fmt.Printf("  %-42s %14.4f %s\n", m.Name, res.values[m.Name], m.Unit)
			}
			for _, t := range res.tallies {
				if t.failed > 0 {
					fmt.Printf("  FAILED %s: %d of %d: %v\n", t.kind, t.failed, t.attempted, t.firstErr)
					code = 1
				}
			}
		}
	}
	return code
}

// repeatSets runs n sets — a set is one untraced run of every workload,
// set i on seed+i — and prints, per workload and end-to-end metric, the
// quartiles across sets, their spread as a share of the median (from four
// sets up; fewer have no quartiles to speak of), and how far the sets
// disagree: the second set against the first, or with more sets the
// median of the later half against that of the earlier half. It exits
// non-zero when a spread (set-up time excepted, as in the acceptance
// check) or a disagreement exceeds the metric's bound in BENCHMARK.json.
// This is how the bounds were first fixed and how they are re-checked.
func repeatSets(spec *benchSpec, n int, seed int64, seconds float64) int {
	code := 0
	vals := map[string]map[string][]float64{}
	for _, w := range workloads {
		vals[w.name] = map[string][]float64{}
	}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			var res *result
			var err error
			// A run whose generators ran late measured itself: repeat it,
			// twice at most.
			for try := 0; try < 3; try++ {
				res, err = runOnce(runOpts{w: w, seed: seed + int64(i), seconds: seconds})
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", w.name, err)
					return 2
				}
				if len(res.invalid) == 0 {
					break
				}
				fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.name, seed+int64(i), res.invalid)
			}
			if res.failed() > 0 {
				summary(os.Stderr, w.name, res)
				code = 1
			}
			for _, m := range spec.EndToEnd {
				vals[w.name][m.Name] = append(vals[w.name][m.Name], res.values[m.Name])
			}
			fmt.Fprintf(os.Stderr, "set %d/%d: %s done\n", i+1, n, w.name)
		}
	}
	for _, w := range workloads {
		fmt.Printf("workload %s, %d sets\n", w.name, n)
		fmt.Printf("  %-24s %12s %12s %12s %8s %9s %6s\n", "metric", "q1", "median", "q3", "spread", "disagree", "bound")
		for _, m := range spec.EndToEnd {
			xs := vals[w.name][m.Name]
			q1, med, q3 := stats.Quartiles(xs)
			a, b := stats.Median(xs[:len(xs)/2]), stats.Median(xs[len(xs)/2:])
			disagree := 0.0
			if a != 0 {
				disagree = math.Abs(b-a) / math.Abs(a)
			}
			over := disagree > m.Bound
			spread := "-"
			if len(xs) >= 4 {
				sp := stats.Spread(xs)
				spread = fmt.Sprintf("%.1f%%", 100*sp)
				over = over || (m.Name != "setup_s" && sp > m.Bound)
			}
			flag := ""
			if over {
				flag = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("  %-24s %12.3f %12.3f %12.3f %8s %8.1f%% %5.0f%%%s\n", m.Name, q1, med, q3, spread, 100*disagree, 100*m.Bound, flag)
		}
	}
	return code
}

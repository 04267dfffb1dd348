package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
)

// exactCounts are per-layer metrics that repeat exactly on unchanged code, so
// any difference between two result files is a change of behaviour, not of
// speed.
var exactCounts = []string{"sim.result_digest", "agent.state_rpcs_per_launch", "cascade.deflations_per_launch"}

func readResultFile(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// minRuns is how many runs a side needs before its spread means anything: a
// single run has none, and would pass for perfectly steady.
const minRuns = 3

// ungatedBound is the bound -compare holds the ungated timings to: the one
// BENCHMARK.json gives the gated timings.
const ungatedBound = 0.25

// values collects one metric of one workload over a file's runs: a metric of
// BENCHMARK.json's lists or, from untraced runs, an ungated timing.
func (f *resultFile) values(workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if v, ok := r.Ungated[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// verdict judges b against a for one end-to-end metric. The run-to-run spread
// is each side's interquartile distance as a share of its median; when
// either exceeds the bound, or a side has too few runs to show its spread,
// the difference cannot be resolved, whatever the medians say.
func verdict(d metricDef, a, b []float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case min(len(a), len(b)) < minRuns:
		word = fmt.Sprintf("unresolved (n < %d)", minRuns)
	case math.Max(spread(a), spread(b)) > d.Bound:
		word = "unresolved"
	case worse > d.Bound:
		word = "REGRESSED"
	case worse < -d.Bound:
		word = "better"
	default:
		word = "unchanged"
	}
	return worse, word
}

// ungatedNames lists the ungated timings either file holds, sorted.
func ungatedNames(files ...*resultFile) []string {
	names := make(map[string]bool)
	for _, f := range files {
		for _, r := range f.Runs {
			for name := range r.Ungated {
				names[name] = true
			}
		}
	}
	return slices.Sorted(maps.Keys(names))
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and spreads and the verdict under BENCHMARK.json's bound; the same
// for the ungated timings; then the exact counts of the traced runs. It fails
// when anything regressed.
func compareFiles(b *benchmarkFile, pathA, pathB string) error {
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if !fa.Comparable || !fb.Comparable {
		return fmt.Errorf("a -quick result is not comparable")
	}
	if fa.Seconds != fb.Seconds {
		return fmt.Errorf("run lengths differ: %gs against %gs", fa.Seconds, fb.Seconds)
	}
	fmt.Printf("a: %s  commit %s  %s\nb: %s  commit %s  %s\n\n", pathA, fa.Environment.Commit, fa.Environment.CPUModel,
		pathB, fb.Environment.Commit, fb.Environment.CPUModel)
	fmt.Printf("%-13s %-19s %14s %7s %3s %14s %7s %3s %8s %6s  %s\n",
		"workload", "metric", "a median", "spread", "n", "b median", "spread", "n", "worse by", "bound", "verdict")
	defs := slices.Clone(b.EndToEnd)
	for _, name := range ungatedNames(fa, fb) {
		defs = append(defs, metricDef{Name: name, Unit: "ms", Better: "lower", Bound: ungatedBound})
	}
	regressed := 0
	for _, w := range workloadNames {
		for _, d := range defs {
			va, vb := fa.values(w, d.Name, false), fb.values(w, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, word := verdict(d, va, vb)
			if word == "REGRESSED" {
				regressed++
			}
			fmt.Printf("%-13s %-19s %14.6g %6.1f%% %3d %14.6g %6.1f%% %3d %+7.1f%% %5.0f%%  %s\n",
				w, d.Name, median(va), 100*spread(va), len(va), median(vb), 100*spread(vb), len(vb), 100*worse, 100*d.Bound, word)
		}
	}
	fmt.Println()
	for _, w := range workloadNames {
		for _, name := range exactCounts {
			va, vb := fa.values(w, name, true), fb.values(w, name, true)
			if len(va) == 0 || len(vb) == 0 || (va[0] == 0 && vb[0] == 0) {
				continue
			}
			word := "equal"
			if va[0] != vb[0] {
				word = "BEHAVIOUR CHANGED"
			}
			fmt.Printf("%-13s %-30s %18.15g %18.15g  %s\n", w, name, va[0], vb[0], word)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressed)
	}
	return nil
}

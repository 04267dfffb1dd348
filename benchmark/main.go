// Command benchmark is this repository's benchmark: two saturated simulation
// cells and two fixed-population live-plane workloads, measured end to end
// with tracing off and, in a separate traced run, layer by layer from spans
// this package records around its calls into each layer's public functions.
// README.md in this directory defines every workload and metric.
//
// It is a module of its own and runs from this directory; from the repository
// root that is go run -C benchmark . followed by:
//
//	(nothing)                                every workload, untraced and traced
//	-quick                                   the same at ~1/20 size (not comparable)
//	-workload sim_xl -seed 3 -seconds 20 -trace 0
//	-compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// -quick runs fleets and populations at 1/quickScale and windows (and with
// them trace lengths) at 1/quickSeconds: the same code paths in under 30 s.
const (
	quickScale   = 20
	quickSeconds = 10
)

// workloadNames is the fixed order workloads run and print in.
var workloadNames = []string{"sim_fig8c", "sim_xl", "plane_launch", "plane_mixed"}

// defaultRuns is how many untraced runs of each workload, on consecutive
// seeds, the all-workloads mode puts in a result file: the fewest whose spread
// -compare can judge. -quick, which is not comparable, makes one.
const defaultRuns = 3

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	compare  bool
}

// runSpec is one run of one workload.
type runSpec struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	quick    bool
	dir      string // existing directory for span files and the planes' journals
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the contract's JSON line (default: all)")
	flag.Int64Var(&o.seed, "seed", 11, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time per run (default: BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.BoolVar(&o.quick, "quick", false, "run at ~1/20 size in under 30 s; results are marked comparable: false")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	b, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(b, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	seconds := o.seconds
	if seconds == 0 {
		seconds = float64(b.RunSeconds)
	}
	if o.quick {
		seconds /= quickSeconds
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	env := readEnvironment()
	warning, unlock := lockRun()
	defer unlock()
	if warning != "" {
		env.Warnings = append(env.Warnings, warning)
	}
	for _, w := range env.Warnings {
		fmt.Fprintln(os.Stderr, "benchmark: WARNING:", w)
	}
	file := &resultFile{Environment: env, Comparable: !o.quick, Seconds: seconds}

	if o.workload != "" {
		r, err := runWorkload(b, runSpec{o.workload, o.seed, seconds, o.trace != 0, o.quick, outDir})
		if err != nil {
			return err
		}
		file.Runs = append(file.Runs, r)
		if err := file.write(filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", o.workload, o.trace))); err != nil {
			return err
		}
		printRun(os.Stderr, b, r)
		// The contract's result: one JSON object, the last line of stdout.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !r.Correct {
			return fmt.Errorf("%s: output checks failed", o.workload)
		}
		return nil
	}

	// Every workload: untraced runs on consecutive seeds, then one traced
	// run; every metric printed by name with its unit.
	runs := defaultRuns
	if o.quick {
		runs = 1
	}
	ok := true
	for _, name := range workloadNames {
		for i := 0; i <= runs; i++ {
			spec := runSpec{name, o.seed + int64(i), seconds, false, o.quick, outDir}
			if i == runs {
				spec.seed, spec.traced = o.seed, true
			}
			r, err := runWorkload(b, spec)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			file.Runs = append(file.Runs, r)
			printRun(os.Stdout, b, r)
			ok = ok && r.Correct
		}
	}
	short := env.Commit[:min(len(env.Commit), 12)]
	out := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-%s.json", short, o.seed, time.Now().UTC().Format("20060102T150405Z")))
	if err := file.write(out); err != nil {
		return err
	}
	fmt.Printf("\ncomparable: %v\nresults: %s\n", file.Comparable, filepath.Join("benchmark", out))
	if !ok {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// runWorkload runs one workload once, in a settled heap, and closes the
// result against the contract's metric list.
func runWorkload(b *benchmarkFile, spec runSpec) (*runResult, error) {
	runtime.GC()
	debug.FreeOSMemory()
	var (
		r   *runResult
		err error
	)
	if w, ok := simWorkloads[spec.workload]; ok {
		if spec.quick {
			w = w.quick()
		}
		if spec.traced {
			r, err = traceSim(spec, w)
		} else {
			r, err = runSim(spec, w)
		}
	} else if w, ok := planeWorkloads[spec.workload]; ok {
		r, err = runPlane(spec, w)
	} else {
		return nil, fmt.Errorf("unknown workload %q (have %v)", spec.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	r.check(r.Failed == 0, "%d of %d operations failed", r.Failed, r.Attempted)
	return r, r.finish(b)
}

// printRun prints one run: every metric of its mode by name with its unit,
// in BENCHMARK.json's order, then the notes.
func printRun(w io.Writer, b *benchmarkFile, r *runResult) {
	mode, defs := "end-to-end, tracing off", b.EndToEnd
	if r.Traced {
		mode, defs = "per-layer, traced", b.PerLayer
	}
	fmt.Fprintf(w, "\n== %s  seed %d  (%s)  wall %.1fs  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Seed, mode, r.WallS, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		// A traced run lists only the layers the workload reaches.
		if m := r.Metrics[d.Name]; !r.Traced || m.Value != 0 {
			names = append(names, d.Name)
		}
	}
	if r.Traced {
		sort.Strings(names)
	}
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-34s %20.15g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range slices.Sorted(maps.Keys(r.Ungated)) {
		fmt.Fprintf(w, "  %-34s %20.15g ms (ungated)\n", n, r.Ungated[n])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark runs from its own directory (go run -C benchmark . from the
// repository root). outDir holds everything a run leaves behind: result files,
// span files, the planes' journals, the run lock.
const (
	outDir        = "out"
	benchmarkJSON = "../BENCHMARK.json"
)

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json, the contract this program is written to.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	buf, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return nil, fmt.Errorf("run the benchmark from its own directory: %w", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Config    any               `json:"config"` // the workload's resolved sizes
	WallS     float64           `json:"wall_s"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Ungated are timings an untraced run takes beside the contract's
	// metrics, in ms, lower is better: the contract's result line has no
	// room for them, -compare judges them like the others.
	Ungated map[string]float64 `json:"ungated_ms,omitempty"`
	// Notes carry what is only printed: sample counts, failed output checks.
	Notes []string `json:"notes,omitempty"`

	start time.Time
}

func newResult(spec runSpec, config any) *runResult {
	return &runResult{Workload: spec.workload, Seed: spec.seed, Traced: spec.traced, Config: config, Correct: true,
		Metrics: make(map[string]metric), Ungated: make(map[string]float64), start: time.Now()}
}

func (r *runResult) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{value, unit}
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// check records a failed output check; any one makes the run incorrect.
func (r *runResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.note("CHECK FAILED: "+format, args...)
	}
}

// finish closes the run against the contract: every metric of the mode's list
// is present exactly once. A layer the workload does not reach did no work,
// so its per-layer metrics read 0; an end-to-end metric may not be missing.
func (r *runResult) finish(b *benchmarkFile) error {
	r.WallS = time.Since(r.start).Seconds()
	defs := b.EndToEnd
	if r.Traced {
		defs = b.PerLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case ok && m.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		case !ok && !r.Traced:
			return fmt.Errorf("workload %s did not measure end-to-end metric %s", r.Workload, d.Name)
		case !ok:
			m = metric{0, d.Unit}
		}
		out[d.Name] = m
		delete(r.Metrics, d.Name)
	}
	for name := range r.Metrics {
		return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
	}
	r.Metrics = out
	return nil
}

// environment is recorded in every result file, so a number is never read
// without the host and settings that produced it.
type environment struct {
	Commit     string   `json:"commit"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	GoVersion  string   `json:"go_version"`
	Time       string   `json:"time"`
	Warnings   []string `json:"warnings,omitempty"`
}

func readEnvironment() environment {
	env := environment{
		Commit:     commit(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if env.GOMAXPROCS > env.NProc {
		env.Warnings = append(env.Warnings, fmt.Sprintf("GOMAXPROCS %d > nproc %d: lanes and servers share cores", env.GOMAXPROCS, env.NProc))
	}
	return env
}

// commit is the revision the binary was built from, or the checkout's HEAD;
// "unknown" in a checkout that is not a git repository.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat("../.git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// lockRun notes this run in outDir and reports whether another run of the
// benchmark is alive: two runs on this host share its cores and spoil both.
func lockRun() (warning string, unlock func()) {
	path := filepath.Join(outDir, ".lock")
	if buf, err := os.ReadFile(path); err == nil {
		if pid, err := strconv.Atoi(strings.TrimSpace(string(buf))); err == nil && pid != os.Getpid() && syscall.Kill(pid, 0) == nil {
			warning = fmt.Sprintf("another run of the benchmark is alive (pid %d): timings of both are unreliable", pid)
		}
	}
	_ = os.WriteFile(path, []byte(strconv.Itoa(os.Getpid())), 0o644) // advisory only
	return warning, func() { os.Remove(path) }
}

// resultFile is what a run writes under outDir and what -compare reads.
type resultFile struct {
	Environment environment  `json:"environment"`
	Comparable  bool         `json:"comparable"` // false for -quick sizes
	Seconds     float64      `json:"seconds"`
	Runs        []*runResult `json:"runs"`
}

func (f *resultFile) write(path string) error {
	buf, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

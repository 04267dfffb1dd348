package experiments

import (
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"deflation/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures_quick.golden from this build's output")

// quickRun is one figure's quick run, made once per test binary at 8
// workers through a cache shared by every figure. Every golden, shape,
// determinism and memoization test reads it instead of re-running sweeps.
type quickRun struct {
	res Result
	err error
	// lookups counts the cache lookups the run made: zero when none of its
	// cells is memoizable.
	lookups uint64
}

var (
	quickMu    sync.Mutex
	quickCache = sweep.NewCache()
	quickRuns  = map[string]quickRun{}
)

func figure(t *testing.T, name string) Figure {
	t.Helper()
	for _, f := range Figures() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no figure %q", name)
	return Figure{}
}

func quickRunOf(t *testing.T, name string) quickRun {
	t.Helper()
	quickMu.Lock()
	defer quickMu.Unlock()
	r, ok := quickRuns[name]
	if !ok {
		_, hits, misses := quickCache.Stats()
		r.res, r.err = figure(t, name).Run(Options{Quick: true, Workers: 8, Cache: quickCache})
		_, hits2, misses2 := quickCache.Stats()
		r.lookups = hits2 + misses2 - hits - misses
		quickRuns[name] = r
	}
	if r.err != nil {
		t.Fatalf("figure %s: %v", name, r.err)
	}
	return r
}

// quick returns figure name's quick result.
func quick(t *testing.T, name string) Result {
	t.Helper()
	return quickRunOf(t, name).res
}

// at returns series name's value at x in p.
func at(t *testing.T, p panel, name string, x float64) float64 {
	t.Helper()
	for _, s := range p.series {
		if s.Name != name {
			continue
		}
		for i, v := range p.x {
			if v == x {
				return s.Values[i]
			}
		}
	}
	t.Fatalf("%s: no point %q @ %g", p.title, name, x)
	return 0
}

// testName is a figure's subtest name: numbered figures take a "fig"
// prefix, as on the deflbench command line.
func testName(f Figure) string {
	if f.Name[0] >= '0' && f.Name[0] <= '9' {
		return "fig" + f.Name
	}
	return f.Name
}

// shapeClaims lists, for every figure, the tests that assert its shape
// claims.
var shapeClaims = map[string][]func(*testing.T){
	"table1":    {TestTable1MechanismsAllFire},
	"table2":    {TestTable2WorkloadsAllRun},
	"1":         {TestFig1ShapeClaims},
	"5a":        {TestFig5aShapeClaims},
	"5b":        {TestFig5bShapeClaims},
	"5c":        {TestFig5cShapeClaims},
	"5d":        {TestFig5dShapeClaims},
	"6":         {TestFig6ShapeClaims},
	"7a":        {TestFig7aShapeClaims},
	"7b":        {TestFig7bShapeClaims},
	"8a":        {TestFig8aShapeClaims},
	"8b":        {TestFig8bShapeClaims},
	"8c":        {TestFig8cQuickShapeClaims},
	"8c-xl":     {TestFig8cXLQuickShapeClaims},
	"8d":        {TestFig8dQuickShapeClaims},
	"revenue":   {TestRevenueShapeClaims},
	"chaos":     {TestChaosZeroRateReproducesFig8cBaseline, TestChaosFaultsDegradeTheCluster},
	"migration": {TestFigMigrationQuickShapeClaims},
	"failover": {
		TestFailoverZeroFaultRowReproducesFig8cBaseline, TestFailoverNeverEvictsHealthyVMs,
	},
	"slo": {
		TestFigSLOZeroDeflationMatchesWebapp, TestFigSLOFrontierStrictlyDeeper,
		TestFigSLOMixedFleet, TestFigSLOTable,
	},
	"mixed": {
		TestFigMixedZeroDeflationIdenticalAcrossSubstrates, TestFigMixedContainerFrontierStrictlyDeeper,
		TestFigMixedResizeLatency, TestFigMixedAggressiveOOMAsymmetry, TestFigMixedTable,
	},
}

// TestEveryFigureHasShapeClaims fails when a registered figure has no
// shape-claim test, or a listed figure is no longer registered.
func TestEveryFigureHasShapeClaims(t *testing.T) {
	registered := map[string]bool{}
	for _, f := range Figures() {
		registered[f.Name] = true
		if len(shapeClaims[f.Name]) == 0 {
			t.Errorf("figure %s has no shape-claim test", f.Name)
		}
	}
	for name := range shapeClaims {
		if !registered[name] {
			t.Errorf("shape claims listed for unregistered figure %s", name)
		}
	}
}

// TestFiguresGolden pins every figure's quick table, byte for byte: the
// file is what `deflbench -fig all -quick` prints with its timing lines
// removed, plus 8c-xl after 8c. Regenerate with -update only when a change
// means to move a figure.
func TestFiguresGolden(t *testing.T) {
	const path = "testdata/figures_quick.golden"
	var b strings.Builder
	for _, f := range Figures() {
		b.WriteString(quick(t, f.Name).Table() + "\n\n")
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("line %d diverged from golden:\n got: %s\nwant: %s", i+1, line, w)
		}
	}
	t.Fatalf("output has %d lines, golden %d", strings.Count(got, "\n"), strings.Count(string(want), "\n"))
}

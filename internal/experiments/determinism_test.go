package experiments

import (
	"reflect"
	"testing"
)

// runFigure is one figure sweep producing its result struct and rendered
// table. The determinism property below runs each twice — serial and
// 8-way parallel — and requires bit-for-bit identical output.
type runFigure struct {
	name string
	run  func() (any, string, error)
	slow bool // skipped under -short
}

func figures() []runFigure {
	wrap := func(run func() (any, string, error), name string, slow bool) runFigure {
		return runFigure{name: name, run: run, slow: slow}
	}
	asAny := func(v interface{ Table() string }, err error) (any, string, error) {
		if err != nil {
			return nil, "", err
		}
		return v, v.Table(), nil
	}
	return []runFigure{
		wrap(func() (any, string, error) { return asAny(Fig1()) }, "fig1", false),
		wrap(func() (any, string, error) { return asAny(Fig5a()) }, "fig5a", false),
		wrap(func() (any, string, error) { return asAny(Fig5b()) }, "fig5b", false),
		wrap(func() (any, string, error) { return asAny(Fig5c()) }, "fig5c", false),
		wrap(func() (any, string, error) { return asAny(Fig5d()) }, "fig5d", false),
		wrap(func() (any, string, error) { return asAny(Fig6(Fig6Workloads()[0])) }, "fig6", false),
		wrap(func() (any, string, error) { return asAny(Fig7a()) }, "fig7a", true),
		wrap(func() (any, string, error) { return asAny(Fig7b()) }, "fig7b", true),
		wrap(func() (any, string, error) { return asAny(Fig8b()) }, "fig8b", false),
		wrap(func() (any, string, error) { return asAny(Fig8c(QuickFig8cConfig())) }, "fig8c", false),
		wrap(func() (any, string, error) { return asAny(Fig8cXL(QuickFig8cXLConfig())) }, "fig8c-xl", true),
		wrap(func() (any, string, error) { return asAny(Fig8d(true, 0)) }, "fig8d", true),
		wrap(func() (any, string, error) { return asAny(Chaos(QuickChaosConfig())) }, "chaos", true),
		wrap(func() (any, string, error) { return asAny(FigMigration(QuickFigMigrationConfig())) }, "migration", true),
		wrap(func() (any, string, error) { return asAny(FigMixed(QuickFigMixedConfig())) }, "mixed", true),
		wrap(func() (any, string, error) { return asAny(Failover(QuickFailoverConfig())) }, "failover", true),
		wrap(func() (any, string, error) { return asAny(Revenue(true)) }, "revenue", false),
		wrap(func() (any, string, error) { return asAny(FigSLO(QuickFigSLOConfig())) }, "slo", false),
		wrap(func() (any, string, error) { return asAny(Table2()) }, "table2", true),
	}
}

// TestSweepDeterminism proves every figure sweep is bit-for-bit
// deterministic under parallelism: the result struct (reflect.DeepEqual)
// and the formatted table of an 8-worker run are identical to the legacy
// serial path with the same seeds. Memoization is off, so both runs
// exercise the real simulations.
func TestSweepDeterminism(t *testing.T) {
	SetMemoization(false)
	defer SetParallelism(0)
	for _, f := range figures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			if f.slow && testing.Short() {
				t.Skip("slow figure; skipped under -short")
			}
			SetParallelism(1)
			serialRes, serialTable, err := f.run()
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			SetParallelism(8)
			parRes, parTable, err := f.run()
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if !reflect.DeepEqual(serialRes, parRes) {
				t.Errorf("result structs differ between serial and 8-way parallel runs:\nserial:   %#v\nparallel: %#v", serialRes, parRes)
			}
			if serialTable != parTable {
				t.Errorf("formatted tables differ between serial and 8-way parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", serialTable, parTable)
			}
		})
	}
}

// TestMemoizationPreservesResults proves enabling the cross-sweep cache
// never changes a figure's output, only its wall-clock: a memoized re-run
// of Fig. 8c (quick) matches the uncached run exactly.
func TestMemoizationPreservesResults(t *testing.T) {
	defer func() {
		SetMemoization(false)
		SetParallelism(0)
	}()
	SetMemoization(false)
	SetParallelism(4)
	plain, err := Fig8c(QuickFig8cConfig())
	if err != nil {
		t.Fatal(err)
	}
	SetMemoization(true)
	warm, err := Fig8c(QuickFig8cConfig()) // populates the cache
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Fig8c(QuickFig8cConfig()) // served from it
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, warm) || !reflect.DeepEqual(plain, cached) {
		t.Errorf("memoization changed Fig8c results:\nplain:  %#v\nwarm:   %#v\ncached: %#v", plain, warm, cached)
	}
	if plain.Table() != cached.Table() {
		t.Errorf("memoization changed the Fig8c table:\n%s\nvs\n%s", plain.Table(), cached.Table())
	}
}

package experiments

import (
	"context"

	"deflation/internal/sweep"
)

// Options is every figure's only input.
type Options struct {
	// Quick runs the reduced cluster-simulation and interactive sweeps.
	// Figures without a reduced form run in full either way.
	Quick bool
	// Workers bounds the sweep engine's concurrency: 0 means GOMAXPROCS and
	// 1 runs every cell in order on the calling goroutine. Each cell owns
	// its whole state, so the output is identical at any value.
	Workers int
	// Cache, when non-nil, lets identical cells share one run across
	// figures (the chaos sweep's zero-fault row is exactly a Fig. 8c cell).
	// It never changes output.
	Cache *sweep.Cache
	// Progress, when non-nil, is called after every sweep cell completes.
	Progress func(sweep.Progress)
}

// Result is a figure's output.
type Result interface{ Table() string }

// Figure is one table or figure of the evaluation.
type Figure struct {
	Name  string
	Group string // "5", "7" or "8" for a panel of that figure, else ""
	InAll bool   // part of the full set; false only for the 10k-node scale sweep
	Run   func(Options) (Result, error)
}

// Figures lists every figure in presentation order.
func Figures() []Figure {
	return []Figure{
		{Name: "table1", InAll: true, Run: table1},
		{Name: "table2", InAll: true, Run: table2},
		{Name: "1", InAll: true, Run: fig1},
		{Name: "5a", Group: "5", InAll: true, Run: fig5a.run},
		{Name: "5b", Group: "5", InAll: true, Run: fig5b.run},
		{Name: "5c", Group: "5", InAll: true, Run: fig5c.run},
		{Name: "5d", Group: "5", InAll: true, Run: fig5d.run},
		{Name: "6", InAll: true, Run: fig6},
		{Name: "7a", Group: "7", InAll: true, Run: fig7a},
		{Name: "7b", Group: "7", InAll: true, Run: fig7b},
		{Name: "8a", Group: "8", InAll: true, Run: fig8a},
		{Name: "8b", Group: "8", InAll: true, Run: fig8b},
		{Name: "8c", Group: "8", InAll: true, Run: fig8c},
		{Name: "8c-xl", Run: fig8cXL},
		{Name: "8d", Group: "8", InAll: true, Run: fig8d},
		{Name: "revenue", InAll: true, Run: revenue},
		{Name: "chaos", InAll: true, Run: chaos},
		{Name: "migration", InAll: true, Run: figMigration},
		{Name: "failover", InAll: true, Run: failover},
		{Name: "slo", InAll: true, Run: figSLO},
		{Name: "mixed", InAll: true, Run: figMixed},
	}
}

// runCells fans the cells of one sweep out through the engine o describes,
// returning results in submission order.
func runCells[T any](o Options, label string, cells []sweep.Cell[T]) ([]T, error) {
	e := &sweep.Engine{Workers: o.Workers, Cache: o.Cache, Progress: o.Progress}
	return sweep.Run(context.Background(), e, label, cells)
}

// gridRow is one series of a grid sweep: its name and the cell that
// computes its y-value at one x.
type gridRow struct {
	name string
	cell func(x float64) (float64, error)
}

// grid runs every (row, x) cell of a sweep and returns one series per row.
// Each cell builds its own host and VM, so the grid parallelizes with no
// shared state.
func grid(o Options, label string, xs []float64, rows []gridRow) ([]series, error) {
	var cells []sweep.Cell[float64]
	for _, r := range rows {
		for _, x := range xs {
			cells = append(cells, sweep.Cell[float64]{
				Run: func(context.Context) (float64, error) { return r.cell(x) },
			})
		}
	}
	vals, err := runCells(o, label, cells)
	if err != nil {
		return nil, err
	}
	out := make([]series, len(rows))
	for i, r := range rows {
		out[i] = series{Name: r.name, Values: vals[i*len(xs) : (i+1)*len(xs)]}
	}
	return out, nil
}

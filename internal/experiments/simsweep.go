package experiments

import (
	"context"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/sweep"
	"deflation/internal/trace"
)

// simBase is the trace-driven cluster every simulation figure starts from:
// 100 servers fed 4000 arrivals 2 s apart with 1 h median lifetimes, seed
// 42. Quick keeps the 2 s arrivals but shortens the trace to 2500 VMs with
// 10-minute lifetimes on 25 servers, which still saturates the cluster.
func simBase(quick bool) cluster.SimConfig {
	if quick {
		return cluster.SimConfig{Seed: 42, Servers: 25, Trace: trace.Config{
			Count: 2500, MeanInterarrival: 2 * time.Second, LifetimeMedian: 10 * time.Minute,
		}}
	}
	return cluster.SimConfig{Seed: 42, Servers: 100, Trace: trace.Config{
		Count: 4000, MeanInterarrival: 2 * time.Second, LifetimeMedian: time.Hour,
	}}
}

// overcommits is a sim sweep's x-axis: the given target overcommitment
// ratios, or the two saturated points 1.5 and 1.8 under Quick.
func overcommits(o Options, full ...float64) []float64 {
	if o.Quick {
		return []float64{1.5, 1.8}
	}
	return full
}

// simCell builds a memoizable sweep cell around one cluster simulation.
// A config carrying a revenue meter has side effects beyond the returned
// result, so such cells are never memoized.
func simCell(cfg cluster.SimConfig) sweep.Cell[cluster.SimResult] {
	key := ""
	if cfg.Meter == nil {
		// The key spans the full SimConfig: any two sims with equal JSON
		// forms are the same deterministic computation, whichever figure
		// asks for them — so the namespace is the cell type, not the figure.
		key = sweep.Key("cluster.RunSim", cfg)
	}
	return sweep.Cell[cluster.SimResult]{
		Key: key,
		Run: func(context.Context) (cluster.SimResult, error) {
			return cluster.RunSim(cfg)
		},
	}
}

// simRow is one series of a sim sweep: its name and its edit of the
// sweep's base config.
type simRow struct {
	name string
	edit func(*cluster.SimConfig)
}

// simPanel is one table of a sim sweep: its title and the metric it plots.
type simPanel struct {
	title  string
	metric func(cluster.SimResult) float64
}

func preemption(r cluster.SimResult) float64 { return r.PreemptionProbability }
func goodput(r cluster.SimResult) float64    { return r.Goodput }

// simSweep runs base at every (row, overcommit) cell and draws one panel
// per metric, each with one series per row over overcommitment percent.
func simSweep(o Options, label string, base cluster.SimConfig, ocs []float64, rows []simRow, panels []simPanel) (Result, error) {
	var cells []sweep.Cell[cluster.SimResult]
	for _, r := range rows {
		for _, oc := range ocs {
			cfg := base
			cfg.TargetOvercommit = oc
			r.edit(&cfg)
			cells = append(cells, simCell(cfg))
		}
	}
	sims, err := runCells(o, label, cells)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(ocs))
	for i, oc := range ocs {
		xs[i] = (oc - 1) * 100
	}
	out := make(curves, len(panels))
	for pi, p := range panels {
		out[pi] = panel{title: p.title, xlabel: "overcommit%", x: xs}
		for ri, r := range rows {
			s := series{Name: r.name}
			for _, sim := range sims[ri*len(ocs) : (ri+1)*len(ocs)] {
				s.Values = append(s.Values, p.metric(sim))
			}
			out[pi].series = append(out[pi].series, s)
		}
	}
	return out, nil
}

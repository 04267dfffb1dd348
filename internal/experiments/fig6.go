package experiments

import (
	"context"
	"fmt"
	"strings"

	"deflation/internal/spark"
	"deflation/internal/spark/workloads"
	"deflation/internal/sweep"
)

// fig6Mechanisms lists the four series of each panel.
var fig6Mechanisms = []spark.PressureMechanism{
	spark.PressurePolicy, spark.PressureSelf, spark.PressureVMLevel, spark.PressurePreempt,
}

// fig6Result reproduces Figure 6: one panel per Spark workload (ALS,
// K-means, CNN, RNN) of normalized running time when deflated halfway
// through execution, for cascade (policy), self-deflation, VM-level
// deflation, and preemption.
type fig6Result struct {
	panels curves
	// chosen records, per panel and deflation level, the mechanism the
	// policy series actually used.
	chosen [][]spark.PressureMechanism
}

// Table renders the four panels.
func (r fig6Result) Table() string {
	var b strings.Builder
	for _, p := range r.panels {
		b.WriteString(curves{p}.Table() + "\n")
	}
	return b.String()
}

// jitteredDeflation produces the slightly uneven per-VM deflation vector a
// proportional cluster policy yields in practice (±10% around the mean).
func jitteredDeflation(n int, d float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = d * 1.1
		} else {
			out[i] = d * 0.9
		}
		if out[i] >= 0.95 {
			out[i] = 0.95
		}
	}
	return out
}

// fig6Cell is one (deflation, mechanism) point of a Figure 6 panel.
type fig6Cell struct {
	Norm   float64
	Chosen spark.PressureMechanism
}

// fig6 runs the four panels in the paper's order. Every (deflation,
// mechanism) point is an independent sweep cell: each builds its own Spark
// cluster and baseline.
func fig6(o Options) (Result, error) {
	var res fig6Result
	for _, w := range []string{"als", "kmeans", "cnn", "rnn"} {
		xs := []float64{0.25, 0.5}
		if w == "cnn" || w == "rnn" {
			xs = []float64{0.125, 0.25, 0.5}
		}
		var cells []sweep.Cell[fig6Cell]
		for _, d := range xs {
			for _, m := range fig6Mechanisms {
				cells = append(cells, sweep.Cell[fig6Cell]{
					Run: func(context.Context) (fig6Cell, error) {
						norm, chosen, err := fig6Run(w, m, d)
						return fig6Cell{Norm: norm, Chosen: chosen}, err
					},
				})
			}
		}
		vals, err := runCells(o, "fig6-"+w, cells)
		if err != nil {
			return nil, err
		}
		p := panel{
			title:  fmt.Sprintf("Figure 6 (%s): normalized running time, deflated at 50%% progress", w),
			xlabel: "fraction", x: xs,
		}
		var chosen []spark.PressureMechanism
		for si, m := range fig6Mechanisms {
			s := series{Name: m.String()}
			for di := range xs {
				c := vals[di*len(fig6Mechanisms)+si]
				s.Values = append(s.Values, c.Norm)
				if m == spark.PressurePolicy {
					chosen = append(chosen, c.Chosen)
				}
			}
			p.series = append(p.series, s)
		}
		res.panels = append(res.panels, p)
		res.chosen = append(res.chosen, chosen)
	}
	return res, nil
}

func fig6Run(w string, m spark.PressureMechanism, d float64) (float64, spark.PressureMechanism, error) {
	spec := &spark.PressureSpec{
		AtProgress: 0.5,
		Deflation:  jitteredDeflation(8, d),
		Mechanism:  m,
		Estimator:  spark.EstimatorHeuristic,
	}
	switch w {
	case "als", "kmeans":
		build := workloads.ALS
		if w == "kmeans" {
			build = workloads.KMeans
		}
		base, err := runBatch(build, nil)
		if err != nil {
			return 0, 0, err
		}
		run, chosen, err := runBatchWithChoice(build, spec)
		if err != nil {
			return 0, 0, err
		}
		return run / base, chosen, nil
	case "cnn", "rnn":
		build := workloads.CNN
		if w == "rnn" {
			build = workloads.RNN
		}
		// Kill-based mechanisms deploy with checkpointing; deflation-based
		// ones do not need it (§6.2, Fig. 7b).
		ckpt := m == spark.PressureSelf || m == spark.PressurePreempt
		baseRun, err := spark.NewTrainingRun(build(false))
		if err != nil {
			return 0, 0, err
		}
		base, err := baseRun.Run(nil)
		if err != nil {
			return 0, 0, err
		}
		elapsed, chosen, err := spark.RunTrainingScenario(build(ckpt), spec)
		if err != nil {
			return 0, 0, err
		}
		return elapsed / base, chosen, nil
	}
	return 0, 0, fmt.Errorf("experiments: unknown workload %q", w)
}

func runBatch(build func(workloads.Params) (*spark.BatchJob, error), spec *spark.PressureSpec) (float64, error) {
	secs, _, err := runBatchWithChoice(build, spec)
	return secs, err
}

func runBatchWithChoice(build func(workloads.Params) (*spark.BatchJob, error), spec *spark.PressureSpec) (float64, spark.PressureMechanism, error) {
	p := workloads.Params{}
	cl, err := p.Cluster()
	if err != nil {
		return 0, 0, err
	}
	job, err := build(p)
	if err != nil {
		return 0, 0, err
	}
	res, err := spark.RunBatchScenario(cl, job, spec)
	if err != nil {
		return 0, 0, err
	}
	return res.DurationSecs, res.Chosen, nil
}

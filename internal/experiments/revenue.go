package experiments

import (
	"context"
	"fmt"
	"strings"

	"deflation/internal/cluster"
	"deflation/internal/pricing"
	"deflation/internal/sweep"
)

// revenueRow is one deployment's outcome.
type revenueRow struct {
	Deployment    string
	Revenue       float64
	CoreHoursSold float64
	PreemptProb   float64
}

// revenueResult implements the §8 pricing discussion as an experiment:
// provider revenue at 1.6× target overcommitment under three deployments —
// the preemption-only baseline with today's flat spot discount, deflation
// with the same flat discount, and deflation with resource-as-a-service
// pricing.
type revenueResult []revenueRow

// Table renders the comparison.
func (r revenueResult) Table() string {
	var b strings.Builder
	b.WriteString("# §8 pricing: provider revenue at 1.6x target overcommitment\n")
	fmt.Fprintf(&b, "%-28s %12s %14s %12s\n", "deployment", "revenue $", "core-hours", "preempt-p")
	for _, row := range r {
		fmt.Fprintf(&b, "%-28s %12.2f %14.0f %12.3f\n",
			row.Deployment, row.Revenue, row.CoreHoursSold, row.PreemptProb)
	}
	return b.String()
}

// revenue runs the comparison.
func revenue(o Options) (Result, error) {
	rates := pricing.DefaultRates()
	configs := []struct {
		name  string
		mode  cluster.Mode
		model pricing.Model
	}{
		{"preemption + flat discount", cluster.ModePreemptionOnly, pricing.FlatDiscount{Rates: rates, Discount: 0.3}},
		{"deflation + flat discount", cluster.ModeDeflation, pricing.FlatDiscount{Rates: rates, Discount: 0.3}},
		{"deflation + RaaS", cluster.ModeDeflation, pricing.ResourceAsAService{Rates: rates, Discount: 0.5}},
	}
	// One cell per deployment; each builds its own meter inside the cell so
	// concurrent deployments accrue revenue independently. Meter cells are
	// never memoized (the meter is a side effect of the run).
	var cells []sweep.Cell[revenueRow]
	for _, c := range configs {
		cells = append(cells, sweep.Cell[revenueRow]{
			Run: func(context.Context) (revenueRow, error) {
				meter, err := pricing.NewMeter(c.model)
				if err != nil {
					return revenueRow{}, err
				}
				cfg := simBase(o.Quick)
				cfg.Mode, cfg.TargetOvercommit, cfg.Meter = c.mode, 1.6, meter
				sim, err := cluster.RunSim(cfg)
				if err != nil {
					return revenueRow{}, err
				}
				return revenueRow{
					Deployment:    c.name,
					Revenue:       meter.Total(),
					CoreHoursSold: meter.CoreHoursSold,
					PreemptProb:   sim.PreemptionProbability,
				}, nil
			},
		})
	}
	rows, err := runCells(o, "revenue", cells)
	if err != nil {
		return nil, err
	}
	return revenueResult(rows), nil
}

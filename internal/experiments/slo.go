package experiments

import (
	"context"
	"fmt"
	"strings"

	"deflation/internal/apps/curveapp"
	"deflation/internal/apps/webapp"
	"deflation/internal/cascade"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/interactive"
	"deflation/internal/restypes"
	"deflation/internal/spark"
	"deflation/internal/sweep"
	"deflation/internal/vm"
)

// figSLO sweeps an interactive replicated service under open-loop load
// across arrival rate × replica count × deflation fraction, comparing two
// reclamation policies on the measured p99:
//
//   - slo-target: deflation-aware servers behind the capacity-weighted
//     balancer, with the p99-targeting SLO guard clamping the cascade to
//     measured latency headroom (the Fuerst-style interactive policy);
//   - utility-cascade: deflation-unaware servers deflated by the plain
//     utility-curve cascade, the batch-oriented default.
//
// A final mixed-fleet cell co-locates guarded web replicas with unguarded
// batch VMs on one host and deflates everything, showing full reclamation
// from batch while the web tier keeps its SLO.
//
// The full sweep offers 400 and 800 rps per replica (against the webapp's
// 1600-rps replicas) to fleets of 2 and 4, requests 0–75% of each
// replica's CPU in 12.5% steps, and measures p99 against a 50 ms SLO over
// 240 ticks after a 40-tick warm-up. Quick keeps one fleet shape, four
// fractions and 20/80-tick windows.

// sloCell identifies one figSLO sweep cell. It is JSON-serialized into the
// memoization key, so it must fully determine the run.
type sloCell struct {
	Policy        string // "slo-target" or "utility-cascade"
	RPSPerReplica float64
	Replicas      int
	DeflateFrac   float64
	Profile       string
	WarmupTicks   int
	MeasureTicks  int
	SLOP99MS      float64
	Seed          int64
	// BatchVMs co-locates this many unguarded batch VMs on the host and
	// deflates them alongside the web tier (the mixed-fleet cell).
	BatchVMs int
}

const (
	policySLO     = "slo-target"
	policyUtility = "utility-cascade"
)

// sloCellResult is one cell's measurement window summary.
type sloCellResult struct {
	P50MS, P95MS, P99MS, MeanMS float64
	ViolationFraction           float64
	ServedRPS, DroppedRPS       float64
	SLOViolated                 bool
	OverloadTicks               int
	// WebReclaimedCores is the CPU actually reclaimed per web replica
	// (after any SLO clamp); BatchReclaimedCores is per batch VM.
	WebReclaimedCores   float64
	BatchReclaimedCores float64
}

// runSLOCell builds one self-owned fleet (host, VMs, service, arrival
// stream), warms it up, applies a single deflation event through the
// cascade, and measures the service over the post-deflation window.
func runSLOCell(c sloCell) (sloCellResult, error) {
	var res sloCellResult
	size := stdVMSize()
	host, err := hypervisor.NewHost(hypervisor.Config{
		Name:     "slo-host",
		Capacity: size.Scale(float64(c.Replicas+c.BatchVMs) * 1.25),
	})
	if err != nil {
		return res, err
	}

	aware := c.Policy == policySLO
	apps := make([]*webapp.App, c.Replicas)
	webVMs := make([]*vm.VM, c.Replicas)
	for i := range apps {
		a := webapp.NewApp(webapp.Config{DeflationAware: aware})
		dom, err := host.CreateDomain(fmt.Sprintf("web-%d", i), size, guestos.Config{})
		if err != nil {
			return res, err
		}
		dom.MarkWarm()
		v, err := vm.New(dom, a, vm.Config{})
		if err != nil {
			return res, err
		}
		apps[i], webVMs[i] = a, v
	}
	var batchVMs []*vm.VM
	for i := 0; i < c.BatchVMs; i++ {
		dom, err := host.CreateDomain(fmt.Sprintf("batch-%d", i), size, guestos.Config{})
		if err != nil {
			return res, err
		}
		dom.MarkWarm()
		app := curveapp.New(curveapp.Config{
			Name: "spark-cnn", Curve: spark.CurveCNNTraining, Size: size,
			Elastic: true, RSSFraction: 0.5, MinRSSFraction: 0.15,
		})
		v, err := vm.New(dom, app, vm.Config{})
		if err != nil {
			return res, err
		}
		batchVMs = append(batchVMs, v)
	}

	profile, err := interactive.ProfileFromString(c.Profile)
	if err != nil {
		return res, err
	}
	svc, err := interactive.NewServiceWith(interactive.ServiceConfig{
		Arrivals: interactive.ArrivalConfig{
			Seed:    c.Seed,
			BaseRPS: c.RPSPerReplica * float64(c.Replicas),
			Profile: profile,
		},
		SLOP99MS: c.SLOP99MS,
	}, apps)
	if err != nil {
		return res, err
	}

	envs := func() []hypervisor.Env {
		out := make([]hypervisor.Env, len(webVMs))
		for i, v := range webVMs {
			out[i] = v.Env()
		}
		return out
	}
	for tick := 0; tick < c.WarmupTicks; tick++ {
		if err := svc.Step(envs()); err != nil {
			return res, err
		}
	}

	if c.DeflateFrac > 0 {
		ctrl := cascade.New(cascade.AllLevels())
		if c.Policy == policySLO {
			guard := interactive.NewSLOGuard(svc)
			// Plan against the SLO itself rather than the default safety
			// margin: the point of this figure is the deepest violation-free
			// deflation each policy reaches.
			guard.Headroom = 0.95
			for i, v := range webVMs {
				guard.Register(v.Name(), i)
			}
			ctrl.SetSLOPolicy(guard)
		}
		// One deflation event: reclaim the fraction of each VM's CPU and
		// half that fraction of its memory.
		target := restypes.V(size.CPU*c.DeflateFrac, size.MemoryMB*c.DeflateFrac*0.5, 0, 0)
		for _, v := range webVMs {
			before := v.Allocation().CPU
			if err := ctrl.Deflate(v, target, &cascade.Report{}); err != nil {
				return res, err
			}
			res.WebReclaimedCores += before - v.Allocation().CPU
		}
		res.WebReclaimedCores /= float64(len(webVMs))
		for _, v := range batchVMs {
			before := v.Allocation().CPU
			if err := ctrl.Deflate(v, target, &cascade.Report{}); err != nil {
				return res, err
			}
			res.BatchReclaimedCores += before - v.Allocation().CPU
		}
		if len(batchVMs) > 0 {
			res.BatchReclaimedCores /= float64(len(batchVMs))
		}
	}

	svc.ResetStats()
	for tick := 0; tick < c.MeasureTicks; tick++ {
		if err := svc.Step(envs()); err != nil {
			return res, err
		}
	}
	r := svc.Result()
	window := float64(c.MeasureTicks)
	res.P50MS, res.P95MS, res.P99MS, res.MeanMS = r.P50MS, r.P95MS, r.P99MS, r.MeanMS
	res.ViolationFraction = r.ViolationFraction
	res.ServedRPS = r.Served / window
	res.DroppedRPS = r.Dropped / window
	res.SLOViolated = r.SLOViolated
	res.OverloadTicks = r.OverloadTicks
	return res, nil
}

// sloSweepCell wraps a cell for the engine; cells are pure functions of
// their config, so they memoize across sweeps.
func sloSweepCell(c sloCell) sweep.Cell[sloCellResult] {
	return sweep.Cell[sloCellResult]{
		Key: sweep.Key("experiments.sloCell", c),
		Run: func(context.Context) (sloCellResult, error) {
			return runSLOCell(c)
		},
	}
}

// sloPanel is one (arrival rate, fleet size) slice of the sweep: measured
// p99 and actually-reclaimed cores per deflation fraction for both
// policies, plus each policy's frontier — the deepest requested deflation
// before its first p99 violation (-1 when even zero deflation violates).
type sloPanel struct {
	RPSPerReplica float64
	Replicas      int

	SLO, Utility           series // p99 ms per deflation fraction
	SLOCores, UtilityCores series // reclaimed cores per replica

	SLOFrontierPct, UtilityFrontierPct float64
	slo, utility                       []sloCellResult
}

// sloResult holds the sweep output.
type sloResult struct {
	SLOP99MS     float64
	DeflationPct []float64
	Panels       []sloPanel
	Mixed        sloMixed
}

// sloMixed is the mixed-fleet cell: guarded web replicas and
// unguarded batch VMs sharing a host through one deflation event.
type sloMixed struct {
	WebReplicas, BatchVMs int
	RPSPerReplica         float64
	DeflationPct          float64
	Cell                  sloCellResult
}

// Table renders every panel plus the frontier and mixed-fleet summaries.
func (r sloResult) Table() string {
	var b strings.Builder
	for _, p := range r.Panels {
		title := fmt.Sprintf("fig-slo: p99 (ms) and reclaimed cores/replica, %g rps/replica × %d replicas (SLO %g ms)",
			p.RPSPerReplica, p.Replicas, r.SLOP99MS)
		b.WriteString(renderTable(title, "defl%", r.DeflationPct,
			[]series{p.SLO, p.Utility, p.SLOCores, p.UtilityCores}))
		b.WriteString(fmt.Sprintf("frontier (deepest violation-free request): %s %s, %s %s\n\n",
			policySLO, frontierLabel(p.SLOFrontierPct),
			policyUtility, frontierLabel(p.UtilityFrontierPct)))
	}
	m := r.Mixed
	b.WriteString(fmt.Sprintf(
		"# fig-slo mixed fleet: %d guarded web + %d batch VMs, %g rps/replica, %.3g%% deflation request\n",
		m.WebReplicas, m.BatchVMs, m.RPSPerReplica, m.DeflationPct))
	b.WriteString(fmt.Sprintf(
		"web p99 %.3f ms (violated=%v), reclaimed %.3f cores/web replica vs %.3f cores/batch VM\n",
		m.Cell.P99MS, m.Cell.SLOViolated, m.Cell.WebReclaimedCores, m.Cell.BatchReclaimedCores))
	return b.String()
}

func frontierLabel(pct float64) string {
	if pct < 0 {
		return "none"
	}
	return fmt.Sprintf("%.3g%%", pct)
}

// frontierPct returns the deepest requested deflation percentage reached
// before the first violating cell, scanning fractions in ascending order;
// -1 when the very first cell violates.
func frontierPct(pct []float64, violated func(i int) bool) float64 {
	deepest := -1.0
	for i := range pct {
		if violated(i) {
			break
		}
		deepest = pct[i]
	}
	return deepest
}

// figSLO runs the sweep.
func figSLO(o Options) (Result, error) {
	rates, replicas, fractions := []float64{400, 800}, []int{2, 4}, []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75}
	base := sloCell{
		Profile:      interactive.Steady.String(),
		WarmupTicks:  40,
		MeasureTicks: 240,
		SLOP99MS:     50,
		Seed:         42,
	}
	if o.Quick {
		rates, replicas, fractions = []float64{800}, []int{2}, []float64{0, 0.25, 0.5, 0.625}
		base.WarmupTicks, base.MeasureTicks = 20, 80
	}
	res := sloResult{SLOP99MS: base.SLOP99MS}
	for _, f := range fractions {
		res.DeflationPct = append(res.DeflationPct, f*100)
	}

	var cells []sweep.Cell[sloCellResult]
	for _, rps := range rates {
		for _, n := range replicas {
			for _, policy := range []string{policySLO, policyUtility} {
				for _, f := range fractions {
					c := base
					c.Policy, c.RPSPerReplica, c.Replicas, c.DeflateFrac = policy, rps, n, f
					cells = append(cells, sloSweepCell(c))
				}
			}
		}
	}
	// The mixed-fleet cell: smallest fleet under a deep (75%) request — the
	// guard holds the web tier at its headroom while the co-located batch
	// VMs give up the full target.
	mixed := base
	mixed.Policy = policySLO
	mixed.RPSPerReplica = rates[0]
	mixed.Replicas = replicas[0]
	mixed.DeflateFrac = 0.75
	mixed.BatchVMs = replicas[0]
	cells = append(cells, sloSweepCell(mixed))

	vals, err := runCells(o, "fig-slo", cells)
	if err != nil {
		return nil, err
	}

	nf := len(fractions)
	i := 0
	for _, rps := range rates {
		for _, n := range replicas {
			p := sloPanel{
				RPSPerReplica: rps, Replicas: n,
				SLO:          series{Name: "slo p99"},
				Utility:      series{Name: "util p99"},
				SLOCores:     series{Name: "slo cores"},
				UtilityCores: series{Name: "util cores"},
			}
			p.slo = vals[i : i+nf]
			p.utility = vals[i+nf : i+2*nf]
			i += 2 * nf
			for k := 0; k < nf; k++ {
				p.SLO.Values = append(p.SLO.Values, p.slo[k].P99MS)
				p.Utility.Values = append(p.Utility.Values, p.utility[k].P99MS)
				p.SLOCores.Values = append(p.SLOCores.Values, p.slo[k].WebReclaimedCores)
				p.UtilityCores.Values = append(p.UtilityCores.Values, p.utility[k].WebReclaimedCores)
			}
			p.SLOFrontierPct = frontierPct(res.DeflationPct, func(i int) bool { return p.slo[i].SLOViolated })
			p.UtilityFrontierPct = frontierPct(res.DeflationPct, func(i int) bool { return p.utility[i].SLOViolated })
			res.Panels = append(res.Panels, p)
		}
	}
	res.Mixed = sloMixed{
		WebReplicas: mixed.Replicas, BatchVMs: mixed.BatchVMs,
		RPSPerReplica: mixed.RPSPerReplica, DeflationPct: mixed.DeflateFrac * 100,
		Cell: vals[i],
	}
	return res, nil
}

package experiments

import (
	"context"
	"fmt"
	"time"

	"deflation/internal/apps/curveapp"
	"deflation/internal/cascade"
	"deflation/internal/cluster"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/spark"
	"deflation/internal/stats"
	"deflation/internal/sweep"
	"deflation/internal/trace"
	"deflation/internal/vm"
)

// Fig8aResult reproduces Figure 8a: cluster throughput over time while a
// high-priority memcached cluster arrives on a server running Spark CNN
// training on deflatable VMs, deflating them by ~50%. Each application's
// throughput is normalized to its own full-resource level; the total peaks
// near 1.8×.
type Fig8aResult struct {
	Spark, Memcached, Total *stats.TimeSeries
}

// Table renders the three timelines.
func (r Fig8aResult) Table() string {
	return r.Spark.Table() + r.Memcached.Table() + r.Total.Table()
}

// Fig8a runs the co-location timeline.
func Fig8a() (Fig8aResult, error) {
	res := Fig8aResult{
		Spark:     stats.NewTimeSeries("spark (normalized)"),
		Memcached: stats.NewTimeSeries("memcached (normalized)"),
		Total:     stats.NewTimeSeries("total cluster throughput"),
	}
	host, err := hypervisor.NewHost(hypervisor.Config{
		Name:     "fig8a",
		Capacity: restypes.V(48, 196608, 4800, 15000),
	})
	if err != nil {
		return res, err
	}
	ctrl := cluster.NewLocalController(host, cascade.AllLevels(), cluster.ModeDeflation)

	// 8 deflatable Spark worker VMs running CNN training.
	sparkSize := restypes.V(4, 16384, 400, 1250)
	for i := 0; i < 8; i++ {
		_, _, err := ctrl.LaunchVM(cluster.LaunchSpec{
			Name: fmt.Sprintf("spark-%d", i), Size: sparkSize,
			Priority: vm.LowPriority, Warm: true,
			NewApp: func(size restypes.Vector) vm.Application {
				// Elastic in memory: the executor heap shrinks under
				// deflation (the Spark worker's agent policy), so the
				// throughput cost is the training curve alone.
				return curveapp.New(curveapp.Config{
					Name: "spark-cnn", Curve: spark.CurveCNNTraining, Size: size,
					Elastic: true, RSSFraction: 0.5, MinRSSFraction: 0.15,
				})
			},
		})
		if err != nil {
			return res, err
		}
	}

	sparkNorm := func() float64 {
		var sum float64
		n := 0
		for _, v := range ctrl.VMs() {
			if v.Priority() == vm.LowPriority {
				sum += v.Throughput()
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	memNorm := func() float64 {
		var sum float64
		n := 0
		for _, v := range ctrl.VMs() {
			if v.Priority() == vm.HighPriority {
				sum += v.Throughput()
				n++
			}
		}
		if n == 0 {
			return 0
		}
		// Normalize to the full 8-VM memcached cluster.
		return sum / 8
	}

	const (
		window   = 120 * time.Minute
		arrive   = 30 * time.Minute
		depart   = 90 * time.Minute
		tickStep = time.Minute
	)
	for tick := time.Duration(0); tick <= window; tick += tickStep {
		if tick == arrive {
			// 8 high-priority memcached VMs: 32 cores of demand against 16
			// free, deflating the Spark VMs by ≈50%.
			for i := 0; i < 8; i++ {
				_, _, err := ctrl.LaunchVM(cluster.LaunchSpec{
					Name: fmt.Sprintf("memcached-%d", i), Size: sparkSize,
					Priority: vm.HighPriority, AppKind: "memcached",
				})
				if err != nil {
					return res, err
				}
			}
		}
		if tick == depart {
			for i := 0; i < 8; i++ {
				if err := ctrl.Release(fmt.Sprintf("memcached-%d", i)); err != nil {
					return res, err
				}
			}
		}
		sp, mc := sparkNorm(), memNorm()
		if err := res.Spark.Add(tick, sp); err != nil {
			return res, err
		}
		if err := res.Memcached.Add(tick, mc); err != nil {
			return res, err
		}
		if err := res.Total.Add(tick, sp+mc); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Fig8bResult reproduces Figure 8b: worst-case deflation latency of a giant
// VM (48 vCPUs, 100 GB) at increasing deflation levels, for hypervisor-only
// reclamation, hypervisor+OS, and the full cascade (with application
// deflation).
type Fig8bResult struct {
	DeflationPct []float64
	Series       []series // latency in seconds
}

// Table renders the figure.
func (r Fig8bResult) Table() string {
	return renderTable("Figure 8b: giant-VM (48 vCPU, 100 GB) deflation latency (s)",
		"defl%", r.DeflationPct, r.Series)
}

// Fig8b measures reclamation latency per level configuration. Each
// (configuration, deflation) point is one independent sweep cell: it builds
// its own host and VM, so cells parallelize freely.
func Fig8b() (Fig8bResult, error) {
	res := Fig8bResult{}
	for d := 10.0; d <= 55; d += 5 {
		res.DeflationPct = append(res.DeflationPct, d)
	}
	configs := []struct {
		name    string
		levels  cascade.Levels
		elastic bool
	}{
		{"Hypervisor", cascade.HypervisorOnly(), false},
		{"Hypervisor+OS", cascade.VMLevel(), false},
		{"Cascade", cascade.AllLevels(), true},
	}
	giant := restypes.V(48, 102400, 2000, 5000)
	var cells []sweep.Cell[float64]
	for _, cfg := range configs {
		cfg := cfg
		for _, d := range res.DeflationPct {
			d := d
			cells = append(cells, sweep.Cell[float64]{
				Run: func(context.Context) (float64, error) {
					host, err := hypervisor.NewHost(hypervisor.Config{
						Name: "giant", Capacity: giant.Scale(1.2),
					})
					if err != nil {
						return 0, err
					}
					dom, err := host.CreateDomain("giant-vm", giant, guestos.Config{CPUs: 48, MemoryMB: giant.MemoryMB})
					if err != nil {
						return 0, err
					}
					dom.MarkWarm()
					app := curveapp.New(curveapp.Config{
						Name: "giant-memcached", Size: giant,
						RSSFraction: 0.6, CacheFraction: 0.2,
						Elastic: cfg.elastic, MinRSSFraction: 0.1,
					})
					v, err := vm.New(dom, app, vm.Config{})
					if err != nil {
						return 0, err
					}
					rep, err := cascade.New(cfg.levels).Deflate(v, giant.Scale(d/100))
					if err != nil {
						return 0, err
					}
					return rep.TotalLatency.Seconds(), nil
				},
			})
		}
	}
	vals, err := runCells("fig8b", cells)
	if err != nil {
		return res, err
	}
	for ci, cfg := range configs {
		res.Series = append(res.Series, series{
			Name:   cfg.name,
			Values: vals[ci*len(res.DeflationPct) : (ci+1)*len(res.DeflationPct)],
		})
	}
	return res, nil
}

// Fig8cConfig sizes the Figure 8c sweep; the zero value is the full
// experiment.
type Fig8cConfig struct {
	// OvercommitLevels are the x-axis points (default 1.1–2.1).
	OvercommitLevels []float64
	// TraceCount is the trace length per point (default 4000).
	TraceCount int
	// MeanInterarrival and LifetimeMedian control offered load (defaults
	// 2s and 1h; the quick mode shortens lifetimes to keep pressure high
	// with a short trace).
	MeanInterarrival time.Duration
	LifetimeMedian   time.Duration
	// Servers overrides the cluster size (default 100; quick mode shrinks
	// the cluster so a short trace still saturates it).
	Servers int
	Seed    int64
}

// QuickFig8cConfig returns a reduced sweep that still saturates the
// cluster: fewer points, a shorter trace with faster churn.
func QuickFig8cConfig() Fig8cConfig {
	return Fig8cConfig{
		OvercommitLevels: []float64{1.5, 1.8},
		TraceCount:       2500,
		MeanInterarrival: 2 * time.Second,
		LifetimeMedian:   10 * time.Minute,
		Servers:          25,
	}
}

// Fig8cResult reproduces Figure 8c: probability of low-priority VM
// preemption versus cluster overcommitment, for deflation and the
// preemption-only baseline, on the trace-driven 100-node simulation.
type Fig8cResult struct {
	OvercommitPct []float64 // (ratio-1)×100, the paper's x-axis
	Deflation     series
	PreemptOnly   series
}

// Table renders the figure.
func (r Fig8cResult) Table() string {
	return renderTable("Figure 8c: preemption probability vs overcommitment (50% low-priority)",
		"overcommit%", r.OvercommitPct, []series{r.Deflation, r.PreemptOnly})
}

// Fig8c runs the sweep.
func Fig8c(cfg Fig8cConfig) (Fig8cResult, error) {
	if len(cfg.OvercommitLevels) == 0 {
		cfg.OvercommitLevels = []float64{1.1, 1.3, 1.5, 1.6, 1.7, 1.9, 2.1}
	}
	if cfg.TraceCount == 0 {
		cfg.TraceCount = 4000
	}
	if cfg.MeanInterarrival == 0 {
		cfg.MeanInterarrival = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	res := Fig8cResult{
		Deflation:   series{Name: "Deflation"},
		PreemptOnly: series{Name: "Preemption-only"},
	}
	modes := []cluster.Mode{cluster.ModeDeflation, cluster.ModePreemptionOnly}
	var cells []sweep.Cell[cluster.SimResult]
	for _, oc := range cfg.OvercommitLevels {
		res.OvercommitPct = append(res.OvercommitPct, (oc-1)*100)
		for _, mode := range modes {
			cells = append(cells, simCell("fig8c", cluster.SimConfig{
				Mode:             mode,
				TargetOvercommit: oc,
				Seed:             cfg.Seed,
				Servers:          cfg.Servers,
				Trace: trace.Config{
					Count:            cfg.TraceCount,
					MeanInterarrival: cfg.MeanInterarrival,
					LifetimeMedian:   cfg.LifetimeMedian,
				},
			}))
		}
	}
	sims, err := runCells("fig8c", cells)
	if err != nil {
		return res, err
	}
	for i := range cfg.OvercommitLevels {
		res.Deflation.Values = append(res.Deflation.Values, sims[i*len(modes)].PreemptionProbability)
		res.PreemptOnly.Values = append(res.PreemptOnly.Values, sims[i*len(modes)+1].PreemptionProbability)
	}
	return res, nil
}

// Fig8cXLConfig sizes the Figure 8c-xl scale sweep; the zero value is the
// full 100/1k/10k-node experiment (the ROADMAP's million-VM-arrival cell).
type Fig8cXLConfig struct {
	// FleetSizes are the x-axis points (default 100, 1000, 10000 servers).
	FleetSizes []int
	// TraceCount is the number of VM arrivals per 100 servers (default
	// 10000). Each cell's trace scales linearly with its fleet — the
	// 10k-node cell of the full sweep runs 1M arrivals, the ROADMAP's
	// million-VM-arrival target — so per-server offered load is identical
	// across the sweep.
	TraceCount int
	// MeanInterarrival is the arrival spacing at the 100-server reference
	// point (default 2s), scaled inversely with fleet size so larger fleets
	// see proportionally faster arrivals at the same per-server rate.
	MeanInterarrival time.Duration
	// LifetimeMedian is the VM lifetime median (default 1h, matching
	// Fig. 8c's offered load of ~18 concurrent VMs per server).
	LifetimeMedian time.Duration
	// SampleEvery thins the O(servers·VMs) state sampling at the
	// 100-server reference point (default 25); each cell's stride scales
	// with its fleet so every cell records the same number of samples —
	// without that, sampling alone is quadratic in fleet size and
	// dominates the 10k-node cell many times over.
	SampleEvery int
	Seed        int64
}

// QuickFig8cXLConfig returns a reduced sweep — 100- and 1k-node cells with
// a shorter trace — sized so the 1k-node cell finishes in seconds.
func QuickFig8cXLConfig() Fig8cXLConfig {
	return Fig8cXLConfig{
		FleetSizes:       []int{100, 1000},
		TraceCount:       4000,
		MeanInterarrival: 500 * time.Millisecond,
		LifetimeMedian:   10 * time.Minute,
		SampleEvery:      50,
	}
}

// Fig8cXLResult extends Figure 8c along the fleet-size axis: preemption
// probability for deflation vs the preemption-only baseline at 1.6× target
// overcommit, plus the achieved overcommit under deflation, on fleets from
// 100 to 10k nodes. Constant per-server offered load means the y-values
// should be roughly scale-invariant; the figure's real payload is that the
// calendar-queue engine and indexed placement keep wall-clock near-linear
// in trace length (see EXPERIMENTS.md for the recorded scaling table).
type Fig8cXLResult struct {
	FleetSizes  []float64
	Deflation   series // preemption probability, deflation mode
	PreemptOnly series // preemption probability, preemption-only baseline
	AchievedOC  series // achieved overcommit, deflation mode
}

// Table renders the figure.
func (r Fig8cXLResult) Table() string {
	return renderTable("Figure 8c-xl: preemption probability vs fleet size (target overcommit 1.6)",
		"nodes", r.FleetSizes, []series{r.Deflation, r.PreemptOnly, r.AchievedOC})
}

// Fig8cXL runs the scale sweep.
func Fig8cXL(cfg Fig8cXLConfig) (Fig8cXLResult, error) {
	if len(cfg.FleetSizes) == 0 {
		cfg.FleetSizes = []int{100, 1000, 10000}
	}
	if cfg.TraceCount == 0 {
		cfg.TraceCount = 10000
	}
	if cfg.MeanInterarrival == 0 {
		cfg.MeanInterarrival = 2 * time.Second
	}
	if cfg.LifetimeMedian == 0 {
		cfg.LifetimeMedian = time.Hour
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 25
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	res := Fig8cXLResult{
		Deflation:   series{Name: "Deflation"},
		PreemptOnly: series{Name: "Preemption-only"},
		AchievedOC:  series{Name: "Achieved OC"},
	}
	modes := []cluster.Mode{cluster.ModeDeflation, cluster.ModePreemptionOnly}
	var cells []sweep.Cell[cluster.SimResult]
	for _, n := range cfg.FleetSizes {
		res.FleetSizes = append(res.FleetSizes, float64(n))
		scale := float64(n) / 100
		for _, mode := range modes {
			cells = append(cells, simCell("fig8c-xl", cluster.SimConfig{
				Mode:             mode,
				TargetOvercommit: 1.6,
				Seed:             cfg.Seed,
				Servers:          n,
				SampleEvery:      int(float64(cfg.SampleEvery) * scale),
				Trace: trace.Config{
					Count:            int(float64(cfg.TraceCount) * scale),
					MeanInterarrival: time.Duration(float64(cfg.MeanInterarrival) / scale),
					LifetimeMedian:   cfg.LifetimeMedian,
				},
			}))
		}
	}
	sims, err := runCells("fig8c-xl", cells)
	if err != nil {
		return res, err
	}
	for i := range cfg.FleetSizes {
		defl, pre := sims[i*len(modes)], sims[i*len(modes)+1]
		res.Deflation.Values = append(res.Deflation.Values, defl.PreemptionProbability)
		res.PreemptOnly.Values = append(res.PreemptOnly.Values, pre.PreemptionProbability)
		res.AchievedOC.Values = append(res.AchievedOC.Values, defl.AchievedOvercommit)
	}
	return res, nil
}

// Fig8dResult reproduces Figure 8d: per-server overcommitment under the
// three placement policies; deflation masks the differences between them.
type Fig8dResult struct {
	Policies []string
	Mean     []float64
	P95      []float64
}

// Table renders the figure.
func (r Fig8dResult) Table() string {
	xs := make([]float64, len(r.Policies))
	for i := range xs {
		xs[i] = float64(i)
	}
	out := "# Figure 8d: server overcommitment by placement policy\n"
	out += fmt.Sprintf("%-12s %12s %12s\n", "policy", "mean", "p95")
	for i, p := range r.Policies {
		out += fmt.Sprintf("%-12s %12.3f %12.3f\n", p, r.Mean[i], r.P95[i])
	}
	return out
}

// Fig8d runs the placement-policy comparison at 1.6× target overcommit.
// quick shortens the trace while keeping the cluster saturated.
func Fig8d(quick bool, seed int64) (Fig8dResult, error) {
	if seed == 0 {
		seed = 42
	}
	tr := trace.Config{Count: 4000, MeanInterarrival: 2 * time.Second}
	servers := 0
	if quick {
		tr = trace.Config{Count: 2500, MeanInterarrival: 2 * time.Second, LifetimeMedian: 10 * time.Minute}
		servers = 25
	}
	var res Fig8dResult
	policies := []cluster.PlacementPolicy{cluster.BestFit, cluster.FirstFit, cluster.TwoChoices}
	var cells []sweep.Cell[cluster.SimResult]
	for _, p := range policies {
		cells = append(cells, simCell("fig8d", cluster.SimConfig{
			Policy:           p,
			Mode:             cluster.ModeDeflation,
			TargetOvercommit: 1.6,
			Seed:             seed,
			Servers:          servers,
			Trace:            tr,
		}))
	}
	sims, err := runCells("fig8d", cells)
	if err != nil {
		return res, err
	}
	for i, p := range policies {
		res.Policies = append(res.Policies, p.String())
		res.Mean = append(res.Mean, sims[i].ServerOvercommitMean)
		res.P95 = append(res.P95, sims[i].ServerOvercommitP95)
	}
	return res, nil
}

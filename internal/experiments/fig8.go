package experiments

import (
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
	"deflation/internal/vm"
)

// fig8a reproduces Figure 8a: cluster throughput over time while a
// high-priority memcached cluster arrives on a server running Spark CNN
// training on deflatable VMs, deflating them by ~50%. Each application's
// throughput is normalized to its own full-resource level (spark,
// memcached, then their total); the total peaks near 1.8×.
func fig8a(Options) (Result, error) {
	sparkTS := stats.NewTimeSeries("spark (normalized)")
	memTS := stats.NewTimeSeries("memcached (normalized)")
	total := stats.NewTimeSeries("total cluster throughput")
	host, err := hypervisor.NewHost(hypervisor.Config{
		Name:     "fig8a",
		Capacity: restypes.V(48, 196608, 4800, 15000),
	})
	if err != nil {
		return nil, err
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
			return nil, err
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
					return nil, err
				}
			}
		}
		if tick == depart {
			for i := 0; i < 8; i++ {
				if err := ctrl.Release(fmt.Sprintf("memcached-%d", i)); err != nil {
					return nil, err
				}
			}
		}
		sp, mc := sparkNorm(), memNorm()
		if err := sparkTS.Add(tick, sp); err != nil {
			return nil, err
		}
		if err := memTS.Add(tick, mc); err != nil {
			return nil, err
		}
		if err := total.Add(tick, sp+mc); err != nil {
			return nil, err
		}
	}
	return timelines{sparkTS, memTS, total}, nil
}

// fig8b reproduces Figure 8b: worst-case deflation latency (s) of a giant
// VM (48 vCPUs, 100 GB) at increasing deflation levels, for
// hypervisor-only reclamation, hypervisor+OS, and the full cascade (with
// application deflation). Each (configuration, deflation) point is one
// sweep cell that builds its own host and VM.
func fig8b(o Options) (Result, error) {
	xs := pcts(10, 55, 5)
	giant := restypes.V(48, 102400, 2000, 5000)
	row := func(name string, levels cascade.Levels, elastic bool) gridRow {
		return gridRow{name, func(d float64) (float64, error) {
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
				Elastic: elastic, MinRSSFraction: 0.1,
			})
			v, err := vm.New(dom, app, vm.Config{})
			if err != nil {
				return 0, err
			}
			var rep cascade.Report
			if err := cascade.New(levels).Deflate(v, giant.Scale(d/100), &rep); err != nil {
				return 0, err
			}
			return rep.TotalLatency.Seconds(), nil
		}}
	}
	ss, err := grid(o, "fig8b", xs, []gridRow{
		row("Hypervisor", cascade.HypervisorOnly(), false),
		row("Hypervisor+OS", cascade.VMLevel(), false),
		row("Cascade", cascade.AllLevels(), true),
	})
	if err != nil {
		return nil, err
	}
	return curves{{"Figure 8b: giant-VM (48 vCPU, 100 GB) deflation latency (s)", "defl%", xs, ss}}, nil
}

// fig8c reproduces Figure 8c: probability of low-priority VM preemption
// versus cluster overcommitment, for deflation and the preemption-only
// baseline, on the trace-driven 100-node simulation.
func fig8c(o Options) (Result, error) {
	return simSweep(o, "fig8c", simBase(o.Quick), overcommits(o, 1.1, 1.3, 1.5, 1.6, 1.7, 1.9, 2.1),
		[]simRow{
			{"Deflation", func(c *cluster.SimConfig) { c.Mode = cluster.ModeDeflation }},
			{"Preemption-only", func(c *cluster.SimConfig) { c.Mode = cluster.ModePreemptionOnly }},
		},
		[]simPanel{{"Figure 8c: preemption probability vs overcommitment (50% low-priority)", preemption}})
}

// fig8cXL extends Figure 8c along the fleet-size axis: preemption
// probability for deflation vs the preemption-only baseline at 1.6× target
// overcommit, plus the achieved overcommit under deflation, on fleets of
// 100, 1k and 10k nodes (Quick: 100 and 1k, on a shorter trace). Every
// cell keeps the per-server offered load of the 100-server reference, so
// the y-values should be roughly scale-invariant; the figure's real
// payload is that the calendar-queue engine and indexed placement keep
// wall-clock near-linear in trace length (see EXPERIMENTS.md). The full
// 10k-node cell runs 1M arrivals.
func fig8cXL(o Options) (Result, error) {
	// Arrivals, their spacing and the state-sampling stride at the
	// 100-server reference, scaled with each cell's fleet. Scaling the
	// stride keeps the number of samples constant: sampling is
	// O(servers·VMs), so an unscaled stride alone would be quadratic in
	// fleet size.
	fleets, arrivals, gap, stride := []int{100, 1000, 10000}, 10000, 2*time.Second, 25
	base := simBase(false)
	if o.Quick {
		fleets, arrivals, gap, stride = []int{100, 1000}, 4000, 500*time.Millisecond, 50
		base.Trace.LifetimeMedian = 10 * time.Minute
	}
	base.TargetOvercommit = 1.6
	xs := make([]float64, len(fleets))
	var cells []sweep.Cell[cluster.SimResult]
	for i, n := range fleets {
		xs[i] = float64(n)
		scale := float64(n) / 100
		cfg := base
		cfg.Servers = n
		cfg.SampleEvery = int(float64(stride) * scale)
		cfg.Trace.Count = int(float64(arrivals) * scale)
		cfg.Trace.MeanInterarrival = time.Duration(float64(gap) / scale)
		for _, mode := range []cluster.Mode{cluster.ModeDeflation, cluster.ModePreemptionOnly} {
			cfg.Mode = mode
			cells = append(cells, simCell(cfg))
		}
	}
	sims, err := runCells(o, "fig8c-xl", cells)
	if err != nil {
		return nil, err
	}
	defl, pre, oc := series{Name: "Deflation"}, series{Name: "Preemption-only"}, series{Name: "Achieved OC"}
	for i := range fleets {
		defl.Values = append(defl.Values, sims[2*i].PreemptionProbability)
		pre.Values = append(pre.Values, sims[2*i+1].PreemptionProbability)
		oc.Values = append(oc.Values, sims[2*i].AchievedOvercommit)
	}
	return curves{{"Figure 8c-xl: preemption probability vs fleet size (target overcommit 1.6)",
		"nodes", xs, []series{defl, pre, oc}}}, nil
}

// fig8dResult reproduces Figure 8d: per-server overcommitment under the
// three placement policies; deflation masks the differences between them.
type fig8dResult struct {
	policies  []string
	mean, p95 []float64
}

// Table renders the figure.
func (r fig8dResult) Table() string {
	out := "# Figure 8d: server overcommitment by placement policy\n"
	out += fmt.Sprintf("%-12s %12s %12s\n", "policy", "mean", "p95")
	for i, p := range r.policies {
		out += fmt.Sprintf("%-12s %12.3f %12.3f\n", p, r.mean[i], r.p95[i])
	}
	return out
}

// fig8d runs the placement-policy comparison at 1.6× target overcommit.
func fig8d(o Options) (Result, error) {
	policies := []cluster.PlacementPolicy{cluster.BestFit, cluster.FirstFit, cluster.TwoChoices}
	var cells []sweep.Cell[cluster.SimResult]
	for _, p := range policies {
		cfg := simBase(o.Quick)
		cfg.Policy, cfg.Mode, cfg.TargetOvercommit = p, cluster.ModeDeflation, 1.6
		cells = append(cells, simCell(cfg))
	}
	sims, err := runCells(o, "fig8d", cells)
	if err != nil {
		return nil, err
	}
	var res fig8dResult
	for i, p := range policies {
		res.policies = append(res.policies, p.String())
		res.mean = append(res.mean, sims[i].ServerOvercommitMean)
		res.p95 = append(res.p95, sims[i].ServerOvercommitP95)
	}
	return res, nil
}

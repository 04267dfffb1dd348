// Benchmark harness: one sub-benchmark per table and figure of the paper's
// evaluation (§6), plus the ablation benchmarks DESIGN.md calls out and
// micro-benchmarks of the core mechanisms. The ablations publish their
// measured quantities through b.ReportMetric.
package deflation_test

import (
	"fmt"
	"testing"
	"time"

	"deflation/internal/apps/apptest"
	"deflation/internal/apps/memcache"
	"deflation/internal/cascade"
	"deflation/internal/cluster"
	"deflation/internal/experiments"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/spark"
	"deflation/internal/spark/workloads"
	"deflation/internal/substrate"
	"deflation/internal/trace"
	"deflation/internal/vm"
)

// --- Figure benchmarks -------------------------------------------------

// BenchmarkFigures regenerates every registered figure at quick settings,
// one sub-benchmark per figure.
func BenchmarkFigures(b *testing.B) {
	for _, f := range experiments.Figures() {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(experiments.Options{Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benchmarks (DESIGN.md §3) ---------------------------------

// BenchmarkAblationCascadeOrder compares reclamation latency with and
// without the upper cascade levels for an identical memory target.
func BenchmarkAblationCascadeOrder(b *testing.B) {
	configs := []struct {
		name   string
		levels cascade.Levels
	}{
		{"app-first", cascade.AllLevels()},
		{"os+hypervisor", cascade.VMLevel()},
		{"hypervisor-only", cascade.HypervisorOnly()},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var lastSecs float64
			for i := 0; i < b.N; i++ {
				h, err := hypervisor.NewHost(hypervisor.Config{Name: "h", Capacity: restypes.V(16, 65536, 1000, 1000)})
				if err != nil {
					b.Fatal(err)
				}
				dom, err := h.CreateDomain("v", restypes.V(4, 16384, 100, 100), guestos.Config{})
				if err != nil {
					b.Fatal(err)
				}
				dom.MarkWarm()
				v, err := vm.New(dom, apptest.NewElastic("a", 12000, 2000), vm.Config{})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := cascade.New(cfg.levels).Deflate(v, restypes.V(0, 8192, 0, 0))
				if err != nil {
					b.Fatal(err)
				}
				lastSecs = rep.TotalLatency.Seconds()
			}
			b.ReportMetric(lastSecs, "reclaim-secs")
		})
	}
}

// BenchmarkAblationRecomputeEstimator compares the policy's three r
// estimators on the two batch workloads, reporting the normalized runtime
// the estimator's choice achieves.
func BenchmarkAblationRecomputeEstimator(b *testing.B) {
	for _, est := range []spark.Estimator{spark.EstimatorHeuristic, spark.EstimatorWorstCase, spark.EstimatorDAG} {
		for _, wname := range []string{"als", "kmeans"} {
			b.Run(fmt.Sprintf("%s/%s", est, wname), func(b *testing.B) {
				build := workloads.ALS
				if wname == "kmeans" {
					build = workloads.KMeans
				}
				var norm float64
				for i := 0; i < b.N; i++ {
					p := workloads.Params{}
					clBase, _ := p.Cluster()
					jobBase, _ := build(p)
					base, err := spark.RunBatchScenario(clBase, jobBase, nil)
					if err != nil {
						b.Fatal(err)
					}
					cl, _ := p.Cluster()
					job, _ := build(p)
					res, err := spark.RunBatchScenario(cl, job, &spark.PressureSpec{
						AtProgress: 0.5,
						Deflation:  []float64{0.55, 0.45, 0.55, 0.45, 0.55, 0.45, 0.55, 0.45},
						Mechanism:  spark.PressurePolicy,
						Estimator:  est,
					})
					if err != nil {
						b.Fatal(err)
					}
					norm = res.DurationSecs / base.DurationSecs
				}
				b.ReportMetric(norm, "norm-runtime")
			})
		}
	}
}

// BenchmarkAblationDeflatableFitness compares Eq. 4's free+deflatable
// placement fitness against a free-only score on the cluster simulation.
func BenchmarkAblationDeflatableFitness(b *testing.B) {
	for _, freeOnly := range []bool{false, true} {
		name := "availability-fitness"
		if freeOnly {
			name = "free-only-fitness"
		}
		b.Run(name, func(b *testing.B) {
			var rejected float64
			for i := 0; i < b.N; i++ {
				servers := make([]cluster.Node, 8)
				for j := range servers {
					h, err := hypervisor.NewHost(hypervisor.Config{
						Name: fmt.Sprintf("s%d", j), Capacity: restypes.V(16, 65536, 1000, 1000),
					})
					if err != nil {
						b.Fatal(err)
					}
					servers[j] = cluster.NewLocalController(h, cascade.AllLevels(), cluster.ModeDeflation)
				}
				mgr, err := cluster.NewManager(servers, cluster.BestFit, 7)
				if err != nil {
					b.Fatal(err)
				}
				mgr.SetFreeOnlyFitness(freeOnly)
				for k := 0; k < 48; k++ {
					size := restypes.V(4, 16384, 100, 100)
					mgr.Launch(cluster.LaunchSpec{
						Name: fmt.Sprintf("v%d", k), Size: size, MinSize: size.Scale(0.25),
						Priority: vm.LowPriority, AppKind: "elastic",
					})
				}
				rejected = float64(mgr.Rejected())
			}
			b.ReportMetric(rejected, "rejections")
		})
	}
}

// BenchmarkAblationDeflationSplit compares the proportional split against
// equal-share and largest-first splits, reporting the worst-deflated VM's
// remaining throughput (proportional should balance the pain).
func BenchmarkAblationDeflationSplit(b *testing.B) {
	for _, split := range []cluster.SplitPolicy{cluster.SplitProportional, cluster.SplitEqual, cluster.SplitLargestFirst} {
		b.Run(split.String(), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				h, err := hypervisor.NewHost(hypervisor.Config{Name: "h", Capacity: restypes.V(16, 65536, 1000, 1000)})
				if err != nil {
					b.Fatal(err)
				}
				ctrl := cluster.NewLocalController(h, cascade.AllLevels(), cluster.ModeDeflation)
				ctrl.SetSplitPolicy(split)
				// Two big, two small residents; then a demanding arrival.
				for j, size := range []restypes.Vector{
					restypes.V(6, 24576, 200, 200), restypes.V(6, 24576, 200, 200),
					restypes.V(2, 8192, 100, 100), restypes.V(2, 8192, 100, 100),
				} {
					if _, _, err := ctrl.LaunchVM(cluster.LaunchSpec{
						Name: fmt.Sprintf("v%d", j), Size: size,
						Priority: vm.LowPriority, AppKind: "elastic",
					}); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := ctrl.LaunchVM(cluster.LaunchSpec{
					Name: "new", Size: restypes.V(8, 32768, 200, 200),
					Priority: vm.LowPriority, AppKind: "elastic",
				}); err != nil {
					b.Fatal(err)
				}
				worst = 1.0
				for _, v := range ctrl.VMs() {
					if v.Name() == "new" {
						continue
					}
					if tp := v.Throughput(); tp < worst {
						worst = tp
					}
				}
			}
			b.ReportMetric(worst, "worst-vm-throughput")
		})
	}
}

// BenchmarkAblationBalloonVsHotplug compares the two guest-level memory
// mechanisms (§7): ballooning reclaims faster but leaves fragmentation;
// hot-unplug is slower but clean.
func BenchmarkAblationBalloonVsHotplug(b *testing.B) {
	for _, mech := range []cascade.MemMechanism{cascade.MemHotUnplug, cascade.MemBalloon} {
		b.Run(mech.String(), func(b *testing.B) {
			var reclaimSecs, effCores float64
			for i := 0; i < b.N; i++ {
				h, err := hypervisor.NewHost(hypervisor.Config{Name: "h", Capacity: restypes.V(16, 65536, 1000, 1000)})
				if err != nil {
					b.Fatal(err)
				}
				dom, err := h.CreateDomain("v", restypes.V(4, 16384, 100, 100), guestos.Config{})
				if err != nil {
					b.Fatal(err)
				}
				dom.MarkWarm()
				app := apptest.New("idle")
				app.RSSMB = 2000
				v, err := vm.New(dom, app, vm.Config{})
				if err != nil {
					b.Fatal(err)
				}
				c := cascade.New(cascade.VMLevel())
				c.SetMemMechanism(mech)
				rep, err := c.Deflate(v, restypes.V(0, 8192, 0, 0))
				if err != nil {
					b.Fatal(err)
				}
				reclaimSecs = rep.TotalLatency.Seconds()
				effCores = v.Env().EffectiveCores
			}
			b.ReportMetric(reclaimSecs, "reclaim-secs")
			b.ReportMetric(effCores, "steady-eff-cores")
		})
	}
}

// BenchmarkAblationMinSizeGuard compares minimum-size settings (§5's m_i):
// near-zero minimums avoid preemptions entirely but deflate low-priority
// VMs into the ground; larger minimums keep a performance floor at the cost
// of some preemptions.
func BenchmarkAblationMinSizeGuard(b *testing.B) {
	for _, minFrac := range []float64{0.02, 0.10, 0.25} {
		b.Run(fmt.Sprintf("min=%.0f%%", minFrac*100), func(b *testing.B) {
			var res cluster.SimResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cluster.RunSim(cluster.SimConfig{
					Servers:          20,
					Mode:             cluster.ModeDeflation,
					TargetOvercommit: 1.8,
					MinSizeFraction:  minFrac,
					Seed:             42,
					Trace: trace.Config{
						Count:            800,
						MeanInterarrival: 2 * time.Second,
						LifetimeMedian:   20 * time.Minute,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.PreemptionProbability, "preempt-p")
			b.ReportMetric(res.MeanLowThroughput, "low-throughput")
		})
	}
}

// --- Micro-benchmarks of core mechanisms --------------------------------

// BenchmarkCascadeDeflate measures one full cascade deflation round trip.
func BenchmarkCascadeDeflate(b *testing.B) {
	h, err := hypervisor.NewHost(hypervisor.Config{Name: "h", Capacity: restypes.V(64, 262144, 4000, 4000)})
	if err != nil {
		b.Fatal(err)
	}
	dom, err := h.CreateDomain("v", restypes.V(4, 16384, 100, 100), guestos.Config{})
	if err != nil {
		b.Fatal(err)
	}
	v, err := vm.New(dom, apptest.NewElastic("a", 8000, 2000), vm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	c := cascade.New(cascade.AllLevels())
	target := restypes.V(2, 8192, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Deflate(v, target); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Reinflate(v, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrateResize compares the modeled end-to-end resize latency
// of the two substrates for the same 2-core / 8 GB reclamation: the
// hypervisor path balloons pages and unplugs vCPUs, the container path is
// a single cgroup limit write.
func BenchmarkSubstrateResize(b *testing.B) {
	size := restypes.V(4, 16384, 100, 100)
	shrunk := size.Sub(restypes.V(2, 8192, 0, 0))
	newInstance := func(b *testing.B, container bool) substrate.Instance {
		b.Helper()
		if container {
			h, err := simcg.NewHost(simcg.Config{Name: "cg", Capacity: restypes.V(64, 262144, 4000, 4000)})
			if err != nil {
				b.Fatal(err)
			}
			inst, err := h.Spawn("c", size, guestos.Config{})
			if err != nil {
				b.Fatal(err)
			}
			return inst
		}
		h, err := hypervisor.NewHost(hypervisor.Config{Name: "kvm", Capacity: restypes.V(64, 262144, 4000, 4000)})
		if err != nil {
			b.Fatal(err)
		}
		dom, err := h.CreateDomain("v", size, guestos.Config{})
		if err != nil {
			b.Fatal(err)
		}
		dom.MarkWarm()
		return dom
	}
	for _, sub := range []struct {
		name      string
		container bool
	}{{"balloon", false}, {"cgroup-write", true}} {
		b.Run(sub.name, func(b *testing.B) {
			inst := newInstance(b, sub.container)
			var modeled time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lat, err := inst.SetAllocation(shrunk)
				if err != nil {
					b.Fatal(err)
				}
				modeled = lat
				if _, err := inst.SetAllocation(size); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(modeled.Seconds()*1000, "modeled-resize-ms")
		})
	}
}

// BenchmarkStoreOps measures the real LRU store under zipfian load.
func BenchmarkStoreOps(b *testing.B) {
	s, err := memcache.NewStore(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	w, err := memcache.NewWorkload(50000, 512, 1.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Warm(s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := w.Run(s, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineALS measures the mini-Spark engine scheduling a full ALS
// job.
func BenchmarkEngineALS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := workloads.Params{}
		cl, err := p.Cluster()
		if err != nil {
			b.Fatal(err)
		}
		job, err := workloads.ALS(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spark.RunBatchScenario(cl, job, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacement measures manager placement throughput on a 100-node
// cluster.
func BenchmarkPlacement(b *testing.B) {
	servers := make([]cluster.Node, 100)
	for j := range servers {
		h, err := hypervisor.NewHost(hypervisor.Config{
			Name: fmt.Sprintf("s%d", j), Capacity: restypes.V(32, 131072, 4000, 4000),
		})
		if err != nil {
			b.Fatal(err)
		}
		servers[j] = cluster.NewLocalController(h, cascade.AllLevels(), cluster.ModeDeflation)
	}
	mgr, err := cluster.NewManager(servers, cluster.BestFit, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("vm-%d", i)
		size := restypes.V(2, 4096, 50, 50)
		if _, _, err := mgr.Launch(cluster.LaunchSpec{
			Name: name, Size: size, MinSize: size.Scale(0.25),
			Priority: vm.LowPriority, AppKind: "elastic",
		}); err != nil {
			b.StopTimer()
			// Cluster saturated: recycle by releasing an old VM.
			_ = mgr.Release(fmt.Sprintf("vm-%d", i-3000))
			b.StartTimer()
		}
	}
}

// BenchmarkTraceGeneration measures the synthetic trace generator.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(trace.Config{Count: 1000, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

package cluster_test

import (
	"fmt"
	"log"
	"time"

	"deflation/internal/apps/webapp"
	"deflation/internal/cascade"
	"deflation/internal/cluster"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/trace"
	"deflation/internal/vm"
)

// ExampleRunSim drives a 50-server deflation-managed cluster with a
// synthetic Eucalyptus-style trace at rising overcommitment targets, and
// compares low-priority preemption probability against the preemption-only
// baseline of today's clouds: the Fig. 8c experiment at reduced scale.
func ExampleRunSim() {
	tr := trace.Config{Count: 2500, Seed: 7, MeanInterarrival: time.Second, LifetimeMedian: 15 * time.Minute}
	events, err := trace.Generate(tr)
	if err != nil {
		log.Fatal(err)
	}
	high := 0
	for _, e := range events {
		if e.HighPriority {
			high++
		}
	}
	fmt.Printf("trace: %d VMs (%d high-priority)\n", len(events), high)
	fmt.Printf("%-12s %-16s %-10s %-12s %s\n", "overcommit%", "mode", "preempt-p", "achieved-oc", "rejections")
	for _, oc := range []float64{1.4, 1.6, 1.8} {
		for _, mode := range []cluster.Mode{cluster.ModeDeflation, cluster.ModePreemptionOnly} {
			res, err := cluster.RunSim(cluster.SimConfig{
				Servers:          50,
				Mode:             mode,
				Policy:           cluster.BestFit,
				TargetOvercommit: oc,
				Seed:             7,
				Trace:            tr,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12.0f %-16s %-10.3f %-12.2f %d\n",
				(oc-1)*100, mode, res.PreemptionProbability, res.AchievedOvercommit, res.Rejections)
		}
	}
	// Output:
	// trace: 2500 VMs (1276 high-priority)
	// overcommit%  mode             preempt-p  achieved-oc  rejections
	// 40           deflation        0.000      1.24         0
	// 40           preemption-only  0.226      0.95         212
	// 60           deflation        0.053      1.34         28
	// 60           preemption-only  0.338      0.96         237
	// 80           deflation        0.140      1.32         58
	// 80           preemption-only  0.440      0.96         267
}

// ExampleLocalController runs a web tier under deflation: three web-server
// VMs behind a deflation-aware load balancer (the paper's footnote 2). A
// high-priority VM arrives on the shared host; the local controller
// deflates the web servers proportionally, their agents shrink their thread
// pools, and the balancer keeps serving with bounded latency instead of
// losing a VM. Its departure reinflates them.
func ExampleLocalController() {
	host, err := hypervisor.NewHost(hypervisor.Config{
		Name:     "edge-0",
		Capacity: restypes.V(16, 65536, 1600, 5000),
	})
	if err != nil {
		log.Fatal(err)
	}
	ctrl := cluster.NewLocalController(host, cascade.AllLevels(), cluster.ModeDeflation)

	size := restypes.V(4, 16384, 400, 1250)
	var apps []*webapp.App
	var vms []*vm.VM
	for i := 0; i < 3; i++ {
		app := webapp.NewApp(webapp.Config{Cores: size.CPU, DeflationAware: true})
		apps = append(apps, app)
		v, _, err := ctrl.LaunchVM(cluster.LaunchSpec{
			Name: fmt.Sprintf("web-%d", i), Size: size,
			MinSize: size.Scale(0.25), Priority: vm.LowPriority, Warm: true,
			NewApp: func(restypes.Vector) vm.Application { return app },
		})
		if err != nil {
			log.Fatal(err)
		}
		vms = append(vms, v)
	}
	lb, err := webapp.NewLoadBalancer(apps)
	if err != nil {
		log.Fatal(err)
	}

	const offered = 3600.0 // RPS against 3×1600 capacity
	report := func(when string) {
		envs := make([]hypervisor.Env, len(vms))
		for i, v := range vms {
			envs[i] = v.Env()
		}
		res, err := lb.Serve(envs, offered)
		if err != nil {
			log.Fatal(err)
		}
		perServer := make([]int, len(apps))
		threads := make([]int, len(apps))
		for i, a := range apps {
			perServer[i] = int(res.PerServerRPS[i] + 0.5)
			threads[i] = a.Threads()
		}
		fmt.Printf("%-18s served %4.0f/%4.0f RPS, mean latency %4.1f ms, per-server %v threads %v\n",
			when, res.ServedRPS, offered, res.MeanLatencyMS, perServer, threads)
	}

	report("steady state:")

	// A high-priority database VM arrives: 8 cores against 4 free.
	_, rep, err := ctrl.LaunchVM(cluster.LaunchSpec{
		Name: "prod-db", Size: restypes.V(8, 32768, 400, 1250),
		Priority: vm.HighPriority, AppKind: "inelastic",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("high-priority arrival: deflated %d VMs, preempted %d, reclaim latency %v\n",
		rep.Deflations, len(rep.Preempted), rep.ReclaimLatency)
	report("under deflation:")

	if err := ctrl.Release("prod-db"); err != nil {
		log.Fatal(err)
	}
	report("after reinflation:")
	// Output:
	// steady state:      served 3600/3600 RPS, mean latency 16.0 ms, per-server [1200 1200 1200] threads [64 64 64]
	// high-priority arrival: deflated 3 VMs, preempted 0, reclaim latency 4.761111111s
	// under deflation:   served 2906/3600 RPS, mean latency 80.0 ms, per-server [969 969 969] threads [42 42 42]
	// after reinflation: served 3600/3600 RPS, mean latency 16.0 ms, per-server [1200 1200 1200] threads [64 64 64]
}

package cluster_test

import (
	"fmt"
	"log"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/trace"
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
	st := trace.Summarize(events)
	fmt.Printf("trace: %d VMs (%d high-priority), lifetime median %v\n",
		st.Count, st.HighPriority, st.MedianLifetime.Round(time.Second))
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
	// trace: 2500 VMs (1276 high-priority), lifetime median 14m39s
	// overcommit%  mode             preempt-p  achieved-oc  rejections
	// 40           deflation        0.000      1.24         0
	// 40           preemption-only  0.226      0.95         212
	// 60           deflation        0.053      1.34         28
	// 60           preemption-only  0.338      0.96         237
	// 80           deflation        0.140      1.32         58
	// 80           preemption-only  0.440      0.96         267
}

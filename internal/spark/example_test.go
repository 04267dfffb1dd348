package spark_test

import (
	"fmt"
	"log"

	"deflation/internal/spark"
	"deflation/internal/spark/workloads"
)

// ExampleDecide shows the §4.1 running-time-minimizing policy choosing
// between self-deflation and VM-level deflation.
func ExampleDecide() {
	// Halfway through a job, workers are deflated unevenly (max 0.7,
	// mean 0.4), and recomputation would be cheap (r = 0.05): killing
	// tasks on the most-deflated VMs beats straggling behind them.
	dec, err := spark.Decide(spark.PolicyInputs{
		Progress:        0.5,
		Deflation:       []float64{0.7, 0.1},
		ShuffleFraction: 0.05,
	}, spark.EstimatorHeuristic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("T_vm = %.2f, T_self = %.2f -> %s\n", dec.TVM, dec.TSelf, dec.Mechanism)

	// With a shuffle pending, the worst case (r = 1) applies and VM-level
	// deflation wins.
	dec, err = spark.Decide(spark.PolicyInputs{
		Progress:           0.5,
		Deflation:          []float64{0.7, 0.1},
		ShuffleFraction:    0.05,
		NextStageIsShuffle: true,
	}, spark.EstimatorHeuristic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("T_vm = %.2f, T_self = %.2f -> %s\n", dec.TVM, dec.TSelf, dec.Mechanism)
	// Output:
	// T_vm = 2.17, T_self = 1.37 -> self
	// T_vm = 2.17, T_self = 2.17 -> vm-level
}

// ExampleRunBatchScenario runs K-means through 50% mid-job deflation with
// the cascade policy choosing the mechanism.
func ExampleRunBatchScenario() {
	p := workloads.Params{}
	cluster, err := p.Cluster()
	if err != nil {
		log.Fatal(err)
	}
	job, err := workloads.KMeans(p)
	if err != nil {
		log.Fatal(err)
	}
	res, err := spark.RunBatchScenario(cluster, job, &spark.PressureSpec{
		AtProgress: 0.5,
		Deflation:  []float64{0.55, 0.45, 0.55, 0.45, 0.55, 0.45, 0.55, 0.45},
		Mechanism:  spark.PressurePolicy,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy chose %s; job finished with %.0fs of recomputation\n",
		res.Chosen, res.RecomputeSecs)
	// Output:
	// policy chose Self; job finished with 14s of recomputation
}

// Example_mechanisms runs the ALS and K-means jobs and a CNN training run
// through 50% mid-job deflation under each pressure mechanism: the §4.1
// policy picks VM-level deflation for the shuffle-heavy ALS and
// self-deflation for the map-heavy K-means, and the synchronous training
// job deflates instead of stopping.
func Example_mechanisms() {
	batch := func(title string, build func(workloads.Params) (*spark.BatchJob, error)) {
		p := workloads.Params{}
		fmt.Printf("=== %s on %d workers ===\n", title, 8)
		cluster, err := p.Cluster()
		if err != nil {
			log.Fatal(err)
		}
		job, err := build(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("DAG: %d stages\n", len(job.Stages()))
		base, err := spark.RunBatchScenario(cluster, job, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline: %.0fs (%d tasks)\n", base.DurationSecs, base.TasksRun)

		deflation := []float64{0.55, 0.45, 0.55, 0.45, 0.55, 0.45, 0.55, 0.45}
		for _, mech := range []spark.PressureMechanism{
			spark.PressurePolicy, spark.PressureSelf, spark.PressureVMLevel, spark.PressurePreempt,
		} {
			cluster, err := p.Cluster()
			if err != nil {
				log.Fatal(err)
			}
			job, err := build(p)
			if err != nil {
				log.Fatal(err)
			}
			res, err := spark.RunBatchScenario(cluster, job, &spark.PressureSpec{
				AtProgress: 0.5, Deflation: deflation,
				Mechanism: mech, Estimator: spark.EstimatorHeuristic,
			})
			if err != nil {
				log.Fatal(err)
			}
			line := fmt.Sprintf("%-11s: %.2fx baseline (recompute %.0fs)",
				mech, res.DurationSecs/base.DurationSecs, res.RecomputeSecs)
			if mech == spark.PressurePolicy {
				line += fmt.Sprintf("  [policy chose %s: T_vm=%.2f T_self=%.2f r=%.2f]",
					res.Chosen, res.Decision.TVM, res.Decision.TSelf, res.Decision.R)
			}
			fmt.Println(line)
		}
	}
	batch("ALS (shuffle-heavy)", workloads.ALS)
	batch("K-means (map-heavy, cached input)", workloads.KMeans)

	fmt.Println("=== CNN training (synchronous, inelastic) ===")
	base, err := spark.NewTrainingRun(workloads.CNN(false))
	if err != nil {
		log.Fatal(err)
	}
	baseSecs, err := base.Run(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %.0fs for 80 iterations (%.0f records/s)\n", baseSecs, base.Throughput())
	half := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	elapsed, chosen, err := spark.RunTrainingScenario(workloads.CNN(false), &spark.PressureSpec{
		AtProgress: 0.5, Deflation: half, Mechanism: spark.PressurePolicy,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("50%% deflation mid-job via %s: %.2fx baseline\n", chosen, elapsed/baseSecs)
	preempt, _, err := spark.RunTrainingScenario(workloads.CNN(true), &spark.PressureSpec{
		AtProgress: 0.5, Deflation: half, Mechanism: spark.PressurePreempt,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preemption (checkpoint + restart): %.2fx baseline\n", preempt/baseSecs)
	// Output:
	// === ALS (shuffle-heavy) on 8 workers ===
	// DAG: 14 stages
	// baseline: 158s (840 tasks)
	// Cascade    : 1.54x baseline (recompute 0s)  [policy chose VM: T_vm=1.54 T_self=2.56 r=1.00]
	// Self       : 1.72x baseline (recompute 75s)
	// VM         : 1.54x baseline (recompute 0s)
	// Preemption : 1.91x baseline (recompute 75s)
	// === K-means (map-heavy, cached input) on 8 workers ===
	// DAG: 13 stages
	// baseline: 65s (496 tasks)
	// Cascade    : 1.42x baseline (recompute 14s)  [policy chose Self: T_vm=1.52 T_self=1.43 r=0.00]
	// Self       : 1.42x baseline (recompute 14s)
	// VM         : 1.46x baseline (recompute 0s)
	// Preemption : 1.88x baseline (recompute 14s)
	// === CNN training (synchronous, inelastic) ===
	// baseline: 2400s for 80 iterations (720 records/s)
	// 50% deflation mid-job via VM: 1.21x baseline
	// preemption (checkpoint + restart): 2.24x baseline
}

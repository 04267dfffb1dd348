package experiments

import (
	"context"
	"fmt"
	"strings"

	"deflation/internal/apps/jvm"
	"deflation/internal/apps/webapp"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/spark"
	"deflation/internal/spark/workloads"
	"deflation/internal/sweep"
)

// table1Row is one mechanism demonstration.
type table1Row struct {
	Application string
	Resource    string
	Mechanism   string
	Effect      string
}

// table1Result reproduces Table 1 (application-level deflation
// mechanisms) as a live demonstration: each mechanism is exercised once and
// its effect reported.
type table1Result []table1Row

// Table renders the table.
func (r table1Result) Table() string {
	var b strings.Builder
	b.WriteString("# Table 1: application-level deflation mechanisms (live)\n")
	fmt.Fprintf(&b, "%-12s %-8s %-38s %s\n", "application", "resource", "mechanism", "measured effect")
	for _, row := range r {
		fmt.Fprintf(&b, "%-12s %-8s %-38s %s\n", row.Application, row.Resource, row.Mechanism, row.Effect)
	}
	return b.String()
}

// table1 exercises every Table 1 mechanism.
func table1(Options) (Result, error) {
	var r table1Result

	// Memcached: LRU object eviction.
	mc, err := memcacheAppFig5a(true)
	if err != nil {
		return nil, err
	}
	before := mc.CacheMB()
	mc.SelfDeflate(restypes.V(0, 12000, 0, 0))
	r = append(r, table1Row{
		Application: "memcached", Resource: "memory",
		Mechanism: "LRU object eviction to reduce footprint",
		Effect: fmt.Sprintf("cache %4.0f→%4.0f MB, hit rate %.3f",
			before, mc.CacheMB(), mc.HitRate()),
	})

	// JVM: trigger GC and reduce max heap.
	jv, err := jvm.NewApp(jvm.AppConfig{MaxHeapMB: 12000, LiveMB: 3000, DeflationAware: true})
	if err != nil {
		return nil, err
	}
	hBefore := jv.HeapMB()
	_, gcPause := jv.SelfDeflate(restypes.V(0, 8192, 0, 0))
	r = append(r, table1Row{
		Application: "JVM", Resource: "memory",
		Mechanism: "trigger GC and reduce maximum heap size",
		Effect: fmt.Sprintf("heap %5.0f→%5.0f MB, GC pause %v",
			hBefore, jv.HeapMB(), gcPause),
	})

	// Web servers: reduce thread pool.
	web := webapp.NewApp(webapp.Config{DeflationAware: true})
	tBefore := web.Threads()
	web.SelfDeflate(restypes.V(2, 0, 0, 0))
	r = append(r, table1Row{
		Application: "web servers", Resource: "CPU",
		Mechanism: "reduce size of thread pool",
		Effect:    fmt.Sprintf("threads %d→%d", tBefore, web.Threads()),
	})

	// Spark: reduce the number of tasks (blacklist executors).
	p := workloads.Params{Workers: 4, Slots: 2, Partitions: 16, Iterations: 2}
	cl, err := p.Cluster()
	if err != nil {
		return nil, err
	}
	job, err := workloads.KMeans(p)
	if err != nil {
		return nil, err
	}
	res, err := spark.RunBatchScenario(cl, job, &spark.PressureSpec{
		AtProgress: 0.4, Deflation: []float64{0.5, 0.5, 0.5, 0.5}, Mechanism: spark.PressureSelf,
	})
	if err != nil {
		return nil, err
	}
	r = append(r, table1Row{
		Application: "Spark", Resource: "all",
		Mechanism: "reduce number of tasks (blacklist executors)",
		Effect: fmt.Sprintf("executors 4→%d, recompute %.0fs via lineage",
			len(cl.Alive()), res.RecomputeSecs),
	})
	return r, nil
}

// table2Row describes one workload and its measured baseline.
type table2Row struct {
	Workload, Description, Baseline string
}

// table2Result reproduces Table 2 (evaluation workloads) with each
// workload's baseline run.
type table2Result []table2Row

// Table renders the table.
func (r table2Result) Table() string {
	var b strings.Builder
	b.WriteString("# Table 2: evaluation workloads (live baselines)\n")
	fmt.Fprintf(&b, "%-10s %-52s %s\n", "workload", "description", "measured baseline")
	for _, row := range r {
		fmt.Fprintf(&b, "%-10s %-52s %s\n", row.Workload, row.Description, row.Baseline)
	}
	return b.String()
}

// table2 runs each workload's baseline.
func table2(o Options) (Result, error) {
	var r table2Result

	mc, err := memcacheAppFig5a(false)
	if err != nil {
		return nil, err
	}
	env := hypervisor.Env{VCPUs: 4, PhysCores: 4, EffectiveCores: 4,
		GuestMemMB: 16384, ResidentMB: 16384, EverTouchedMB: 16384,
		KernelMemMB: 256, LocalityFactor: 1, DiskMBps: 400, NetMBps: 1250}
	r = append(r, table2Row{"Memcached",
		"in-memory KV store, zipfian GET/SET load",
		fmt.Sprintf("%.0f kGETS/s", mc.KGETS(env))})

	r = append(r, table2Row{"Kcompile",
		"Linux kernel compile (parallel batch)", "normalized throughput 1.00"})

	jv, err := jvm.NewApp(jvm.AppConfig{MaxHeapMB: 12000, LiveMB: 3000})
	if err != nil {
		return nil, err
	}
	r = append(r, table2Row{"SpecJBB",
		"SpecJBB 2015, fixed-IR mode",
		fmt.Sprintf("%.0f µs response time", jv.ResponseTimeUS(env))})

	// The four Spark baselines dominate Table 2's wall-clock; each is one
	// independent sweep cell (own cluster, own job) merged in row order.
	p := workloads.Params{}
	batchCell := func(name, desc string, build func(workloads.Params) (*spark.BatchJob, error)) sweep.Cell[table2Row] {
		return sweep.Cell[table2Row]{Run: func(context.Context) (table2Row, error) {
			cl, err := p.Cluster()
			if err != nil {
				return table2Row{}, err
			}
			job, err := build(p)
			if err != nil {
				return table2Row{}, err
			}
			res, err := spark.RunBatchScenario(cl, job, nil)
			if err != nil {
				return table2Row{}, err
			}
			return table2Row{name, desc,
				fmt.Sprintf("%.0f s on 8 workers", res.DurationSecs)}, nil
		}}
	}
	trainingCell := func(name, desc string, job *spark.TrainingJob) sweep.Cell[table2Row] {
		return sweep.Cell[table2Row]{Run: func(context.Context) (table2Row, error) {
			run, err := spark.NewTrainingRun(job)
			if err != nil {
				return table2Row{}, err
			}
			secs, err := run.Run(nil)
			if err != nil {
				return table2Row{}, err
			}
			return table2Row{name, desc,
				fmt.Sprintf("%.0f s / %.0f records/s", secs, run.Throughput())}, nil
		}}
	}
	rows, err := runCells(o, "table2", []sweep.Cell[table2Row]{
		batchCell("ALS", "Spark mllib alternating least squares, 100 GB", workloads.ALS),
		batchCell("K-means", "Spark mllib dense clustering, 50 GB, cached input", workloads.KMeans),
		trainingCell("CNN", "ResNet on CIFAR-10 via BigDL-style sync training", workloads.CNN(false)),
		trainingCell("RNN", "recurrent network on the Shakespeare corpus", workloads.RNN(false)),
	})
	if err != nil {
		return nil, err
	}
	return append(r, rows...), nil
}

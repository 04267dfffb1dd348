package experiments

import (
	"deflation/internal/apps/jvm"
	"deflation/internal/apps/kcompile"
	"deflation/internal/cascade"
	"deflation/internal/restypes"
	"deflation/internal/spark"
	"deflation/internal/spark/workloads"
	"deflation/internal/vm"
)

// fig1DeflatedThroughput builds a fresh VM around app, deflates it
// uniformly by d percent through the full cascade, and returns throughput.
func fig1DeflatedThroughput(app vm.Application, d float64) (float64, error) {
	v, err := newHostAndVM(app)
	if err != nil {
		return 0, err
	}
	if err := deflateBy(v, cascade.AllLevels(), restypes.Uniform(d/100)); err != nil {
		return 0, err
	}
	return v.Throughput(), nil
}

// fig1 reproduces Figure 1: normalized application performance as a whole
// VM (CPU, memory, and I/O together) is deflated from 0 to 90%, for the
// four motivating workloads. Each workload runs the full cascade with its
// own deflation policy — the deployment the paper motivates — and every
// (workload, deflation) point is one sweep cell with its own host, VM, and
// application.
func fig1(o Options) (Result, error) {
	xs := pcts(0, 90, 10)
	ss, err := grid(o, "fig1", xs, []gridRow{
		{"SpecJBB", func(d float64) (float64, error) {
			app, err := jvm.NewApp(jvm.AppConfig{
				MaxHeapMB: 12000, LiveMB: 1200, DeflationAware: true, Cores: 4,
			})
			if err != nil {
				return 0, err
			}
			return fig1DeflatedThroughput(app, d)
		}},
		{"Kcompile", func(d float64) (float64, error) {
			return fig1DeflatedThroughput(kcompile.NewApp(kcompile.AppConfig{}), d)
		}},
		{"Memcached", func(d float64) (float64, error) {
			app, err := memcacheAppFig5a(true)
			if err != nil {
				return 0, err
			}
			return fig1DeflatedThroughput(app, d)
		}},
		{"Spark-Kmeans", func(d float64) (float64, error) {
			norm, err := kmeansNormalizedRuntime(d / 100)
			if err != nil {
				return 0, err
			}
			return 1 / norm, nil
		}},
	})
	if err != nil {
		return nil, err
	}
	return curves{{"Figure 1: normalized performance vs deflation %", "deflation%", xs, ss}}, nil
}

// kmeansNormalizedRuntime runs the real K-means job on the mini-Spark
// engine with all worker VMs deflated by d from (nearly) the start, under
// the cascade policy, and returns runtime normalized to no deflation.
func kmeansNormalizedRuntime(d float64) (float64, error) {
	base, err := runBatch(workloads.KMeans, nil)
	if err != nil {
		return 0, err
	}
	if d == 0 {
		return 1, nil
	}
	deflation := make([]float64, 8)
	for i := range deflation {
		deflation[i] = d
	}
	pressured, err := runBatch(workloads.KMeans, &spark.PressureSpec{
		AtProgress: 0.01, Deflation: deflation, Mechanism: spark.PressurePolicy,
		Estimator: spark.EstimatorHeuristic,
	})
	if err != nil {
		return 0, err
	}
	return pressured / base, nil
}

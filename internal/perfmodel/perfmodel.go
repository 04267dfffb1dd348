// Package perfmodel provides the shared performance-degradation models used
// by the simulated substrates. The paper measures these effects on a real
// testbed; this reproduction encodes them as explicit, documented functions
// so that every mechanism's relative cost — the quantity all the figures
// compare — is preserved:
//
//   - hypervisor CPU overcommitment suffers lock-holder preemption (§3.1),
//   - a JVM's self-deflation trades GC overhead for the absence of
//     swapping (§4),
//   - and each workload's performance follows its Figure 1 utility curve.
package perfmodel

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// LockHolderPenalty returns the multiplicative throughput penalty (in [0,1],
// 1 = no penalty) that a guest suffers when its vCPUs are multiplexed onto
// fewer physical cores by the hypervisor scheduler. overcommit is the ratio
// vCPUs/effective-cores, ≥ 1.
//
// The model: preempted vCPUs hold spinlocks for a scheduling quantum, so
// lock acquisitions stall with probability growing in the multiplexing
// ratio. Calibrated so that at 4 vCPUs on 1 core (75% CPU deflation,
// overcommit 4×) the penalty is ≈22% — the hypervisor-vs-OS gap the paper
// reports for kernel compile (Fig. 5b).
func LockHolderPenalty(overcommit float64) float64 {
	if overcommit <= 1 {
		return 1
	}
	// Fraction of lock acquisitions that hit a preempted holder rises with
	// (1 - 1/overcommit); each stall wastes ~a quantum of useful work.
	stall := lhpIntensity * (1 - 1/overcommit)
	return 1 / (1 + stall)
}

// lhpIntensity calibrates LockHolderPenalty: 0.38 puts the 4×-overcommit
// penalty at ≈22%, matching the paper's measured hypervisor-vs-OS gap.
const lhpIntensity = 0.38

// GCOverhead returns the fraction of CPU time a tracing garbage collector
// consumes when liveMB of data is live inside a heapMB heap. This is the
// classical GC cost model: collection work is proportional to live data and
// frequency is inversely proportional to heap headroom, so overhead ∝
// live/(heap-live). Returns +Inf when heap ≤ live (the JVM thrashes).
func GCOverhead(liveMB, heapMB float64) float64 {
	if liveMB <= 0 {
		return 0
	}
	if heapMB <= liveMB {
		return math.Inf(1)
	}
	const gcCostFactor = 0.04 // calibrated: 2× headroom → ~4% GC time
	return gcCostFactor * liveMB / (heapMB - liveMB)
}

// UtilityCurve maps a resource-allocation fraction a∈[0,1] (1 = full,
// undeflated allocation) to normalized application performance ∈[0,1].
// These are the application "utility curves" of Figure 1. The curve is
// monotone piecewise-linear between calibration points.
type UtilityCurve struct {
	name string
	xs   []float64 // allocation fractions, ascending, first 0, last 1
	ys   []float64 // normalized performance at xs
}

// NewUtilityCurve builds a curve from (allocation, performance) calibration
// points. Points are sorted by allocation; the curve must start at
// allocation 0 and end at allocation 1, and performance must be
// non-decreasing in allocation.
func NewUtilityCurve(name string, points map[float64]float64) (*UtilityCurve, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("perfmodel: utility curve %q needs ≥2 points", name)
	}
	xs := make([]float64, 0, len(points))
	for x := range points {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	if xs[0] != 0 || xs[len(xs)-1] != 1 {
		return nil, fmt.Errorf("perfmodel: utility curve %q must span allocations [0,1]", name)
	}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = points[x]
		if ys[i] < 0 || ys[i] > 1 {
			return nil, fmt.Errorf("perfmodel: utility curve %q performance %g out of [0,1]", name, ys[i])
		}
		if i > 0 && ys[i] < ys[i-1] {
			return nil, fmt.Errorf("perfmodel: utility curve %q not monotone at allocation %g", name, x)
		}
	}
	return &UtilityCurve{name: name, xs: xs, ys: ys}, nil
}

// MustUtilityCurve is NewUtilityCurve but panics on error; for package-level
// calibration tables.
func MustUtilityCurve(name string, points map[float64]float64) *UtilityCurve {
	c, err := NewUtilityCurve(name, points)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the workload name the curve was calibrated for.
func (c *UtilityCurve) Name() string { return c.name }

// At returns the normalized performance at allocation fraction a, clamped to
// [0,1] and linearly interpolated between calibration points.
func (c *UtilityCurve) At(a float64) float64 {
	if a <= 0 {
		return c.ys[0]
	}
	if a >= 1 {
		return c.ys[len(c.ys)-1]
	}
	// The smallest i with c.xs[i] ≥ a, as sort.SearchFloat64s, without its
	// closure: c.xs[i-1] < a ≤ c.xs[i] (a is strictly inside (0,1) here).
	i, _ := slices.BinarySearch(c.xs, a)
	x0, x1 := c.xs[i-1], c.xs[i]
	y0, y1 := c.ys[i-1], c.ys[i]
	return y0 + (y1-y0)*(a-x0)/(x1-x0)
}

// Calibrated utility curves for the four Figure-1 workloads. Calibration
// points follow the measured shapes in the paper: most workloads lose <30%
// performance at 50% deflation; memcached and SpecJBB have wide headroom
// plateaus; Spark K-means degrades closest to linearly.
var (
	// CurveSpecJBB: SpecJBB 2015, fixed-IR mode — JIT+heap headroom gives a
	// plateau, then throughput falls off as the heap and cores tighten.
	CurveSpecJBB = MustUtilityCurve("SpecJBB", map[float64]float64{
		0: 0, 0.2: 0.35, 0.4: 0.62, 0.5: 0.75, 0.6: 0.85, 0.8: 0.96, 1: 1,
	})
	// CurveKcompile: Linux kernel compile — highly parallel with I/O overlap,
	// so it tolerates deep CPU deflation (70% performance at 25% allocation).
	CurveKcompile = MustUtilityCurve("Kcompile", map[float64]float64{
		0: 0, 0.125: 0.48, 0.25: 0.70, 0.5: 0.82, 0.75: 0.93, 1: 1,
	})
	// CurveMemcached: deflation-aware memcached — flat while the hot set
	// fits, then hit rate erodes.
	CurveMemcached = MustUtilityCurve("Memcached", map[float64]float64{
		0: 0, 0.25: 0.55, 0.5: 0.80, 0.6: 0.92, 0.75: 1, 1: 1,
	})
	// CurveSparkKmeans: Spark K-means — compute-bound BSP stages degrade the
	// closest to proportionally of the four.
	CurveSparkKmeans = MustUtilityCurve("Spark-Kmeans", map[float64]float64{
		0: 0, 0.25: 0.42, 0.5: 0.68, 0.75: 0.87, 1: 1,
	})
)

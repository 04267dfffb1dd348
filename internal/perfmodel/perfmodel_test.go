package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLockHolderPenalty(t *testing.T) {
	if got := LockHolderPenalty(1); got != 1 {
		t.Errorf("no overcommit penalty = %g, want 1", got)
	}
	if got := LockHolderPenalty(0.5); got != 1 {
		t.Errorf("undercommit penalty = %g, want 1", got)
	}
	// Calibration: 4 vCPUs on 1 core should cost ≈22% (paper Fig. 5b).
	got := LockHolderPenalty(4)
	if got < 0.75 || got > 0.81 {
		t.Errorf("4x overcommit penalty factor = %g, want ≈0.78 (22%% loss)", got)
	}
	// Monotone: more overcommit, more penalty.
	prev := 1.0
	for oc := 1.0; oc <= 8; oc += 0.5 {
		p := LockHolderPenalty(oc)
		if p > prev+1e-12 {
			t.Errorf("penalty not monotone at overcommit %g: %g > %g", oc, p, prev)
		}
		prev = p
	}
}

func TestGCOverhead(t *testing.T) {
	if got := GCOverhead(0, 100); got != 0 {
		t.Errorf("no live data overhead = %g, want 0", got)
	}
	if got := GCOverhead(100, 100); !math.IsInf(got, 1) {
		t.Errorf("heap==live overhead = %g, want +Inf", got)
	}
	if got := GCOverhead(100, 50); !math.IsInf(got, 1) {
		t.Errorf("heap<live overhead = %g, want +Inf", got)
	}
	// Shrinking the heap raises GC overhead.
	if GCOverhead(100, 150) <= GCOverhead(100, 400) {
		t.Error("GC overhead not decreasing in heap size")
	}
	// Calibration: 2x headroom ≈ 4%.
	if got := GCOverhead(100, 200); math.Abs(got-0.04) > 1e-9 {
		t.Errorf("2x headroom overhead = %g, want 0.04", got)
	}
}

func TestUtilityCurveValidation(t *testing.T) {
	if _, err := NewUtilityCurve("x", map[float64]float64{0: 0}); err == nil {
		t.Error("single-point curve accepted")
	}
	if _, err := NewUtilityCurve("x", map[float64]float64{0.1: 0, 1: 1}); err == nil {
		t.Error("curve not starting at 0 accepted")
	}
	if _, err := NewUtilityCurve("x", map[float64]float64{0: 0, 0.9: 1}); err == nil {
		t.Error("curve not ending at 1 accepted")
	}
	if _, err := NewUtilityCurve("x", map[float64]float64{0: 0.5, 0.5: 0.2, 1: 1}); err == nil {
		t.Error("non-monotone curve accepted")
	}
	if _, err := NewUtilityCurve("x", map[float64]float64{0: 0, 1: 1.5}); err == nil {
		t.Error("performance > 1 accepted")
	}
}

func TestUtilityCurveInterpolation(t *testing.T) {
	c := MustUtilityCurve("lin", map[float64]float64{0: 0, 0.5: 0.5, 1: 1})
	for _, a := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := c.At(a); math.Abs(got-a) > 1e-12 {
			t.Errorf("linear curve At(%g) = %g", a, got)
		}
	}
	if got := c.At(-1); got != 0 {
		t.Errorf("At(-1) = %g, want 0 (clamp)", got)
	}
	if got := c.At(2); got != 1 {
		t.Errorf("At(2) = %g, want 1 (clamp)", got)
	}
}

// figure1Curves are the four calibrated workload curves in the order the
// paper plots them.
var figure1Curves = []*UtilityCurve{CurveSpecJBB, CurveKcompile, CurveMemcached, CurveSparkKmeans}

func TestFigure1CurvesMatchPaperShape(t *testing.T) {
	// The headline claim: at 50% deflation most workloads lose <30%.
	for _, c := range figure1Curves {
		p := c.At(0.5)
		if c.Name() == "Spark-Kmeans" {
			continue // the one near-linear workload
		}
		if p < 0.70 {
			t.Errorf("%s at 50%% deflation = %g, want ≥0.70 (paper: <30%% loss)", c.Name(), p)
		}
	}
	// Memcached has full headroom to 25% deflation.
	if got := CurveMemcached.At(0.75); got != 1 {
		t.Errorf("memcached at 25%% deflation = %g, want 1 (headroom)", got)
	}
	// K-means degrades most steeply of the four at 50%.
	km := CurveSparkKmeans.At(0.5)
	for _, c := range []*UtilityCurve{CurveSpecJBB, CurveKcompile, CurveMemcached} {
		if c.At(0.5) < km {
			t.Errorf("%s degrades more than K-means at 50%%", c.Name())
		}
	}
}

func TestQuickUtilityCurveMonotone(t *testing.T) {
	for _, c := range figure1Curves {
		c := c
		f := func(a, b float64) bool {
			a, b = math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)
			if a > b {
				a, b = b, a
			}
			return c.At(a) <= c.At(b)+1e-12
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

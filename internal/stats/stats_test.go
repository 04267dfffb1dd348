package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("Mean = %g, want 3", got)
	}
}

func TestQuantileClamps(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.5, 3}, {1, 5},
		{-3, 1},   // below range clamps to minimum
		{7.5, 5},  // above range clamps to maximum
		{0.99, 4}, // nearest rank
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %g", got)
	}
}

func TestExpBuckets(t *testing.T) {
	bs := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", bs, want)
		}
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewStream(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewStream([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN bound accepted")
	}
	if _, err := NewStream([]float64{1, math.Inf(1)}); err == nil {
		t.Error("+Inf bound accepted")
	}
}

func TestStreamBasics(t *testing.T) {
	s, err := NewStream([]float64{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
	s.Add(0.5)
	s.AddWeighted(3, 2)
	s.AddWeighted(100, 1) // +Inf tail
	s.AddWeighted(1, -5)  // ignored
	s.AddWeighted(math.NaN(), 1)
	if got := s.Count(); got != 4 {
		t.Errorf("count = %g, want 4", got)
	}
	if want := 0.5 + 3*2 + 100; s.Sum() != want {
		t.Errorf("sum = %g, want %g", s.Sum(), want)
	}
	if got := s.counts[len(s.counts)-1]; got != 1 {
		t.Errorf("tail weight = %g, want 1", got)
	}
}

// TestStreamQuantileInterpolation checks the interpolated quantile against
// a uniform distribution spread over one bucket: the q-quantile of weight
// uniformly inside (2, 4] is 2 + 2q.
func TestStreamQuantileInterpolation(t *testing.T) {
	s, err := NewStream([]float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	s.AddWeighted(3, 10) // all weight in the (2, 4] bucket
	for _, q := range []float64{0.1, 0.5, 0.9} {
		want := 2 + 2*q
		if got := s.Quantile(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", q, got, want)
		}
	}
	// Clamped q.
	if got := s.Quantile(-1); got != 2 {
		t.Errorf("Quantile(-1) = %g, want 2", got)
	}
	if got := s.Quantile(2); got != 4 {
		t.Errorf("Quantile(2) = %g, want 4", got)
	}
}

// TestStreamExponentialQuantiles spreads an exponential distribution's CDF
// mass across fine buckets — the interactive latency model's exact usage —
// and checks the recovered p50/p99 against the closed form.
func TestStreamExponentialQuantiles(t *testing.T) {
	mean := 10.0 // ms
	s, err := NewStream(ExpBuckets(0.25, 1.15, 80))
	if err != nil {
		t.Fatal(err)
	}
	cdf := func(x float64) float64 { return 1 - math.Exp(-x/mean) }
	lo := 0.0
	for _, b := range ExpBuckets(0.25, 1.15, 80) {
		s.AddWeighted((lo+b)/2, 1e6*(cdf(b)-cdf(lo)))
		lo = b
	}
	if tail := s.counts[len(s.counts)-1]; tail != 0 {
		// spread only placed mass at finite midpoints
		t.Fatalf("tail weight %g", tail)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, mean * math.Ln2},
		{0.99, mean * math.Log(100)},
	} {
		got := s.Quantile(c.q)
		if math.Abs(got-c.want)/c.want > 0.08 {
			t.Errorf("Quantile(%g) = %g, want ≈%g", c.q, got, c.want)
		}
	}
}

func TestStreamDedupsBounds(t *testing.T) {
	s, err := NewStream([]float64{4, 1, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.bounds) != 3 {
		t.Errorf("bounds = %v, want deduped sorted 3", s.bounds)
	}
}

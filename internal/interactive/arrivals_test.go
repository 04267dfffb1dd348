package interactive

import (
	"math"
	"sync"
	"testing"
)

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(ArrivalConfig{}); err == nil {
		t.Error("zero BaseRPS accepted")
	}
}

func TestProfileRoundTrip(t *testing.T) {
	for _, p := range []Profile{Steady, Diurnal, Bursty} {
		got, err := ProfileFromString(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v → %q → %v, err %v", p, p.String(), got, err)
		}
	}
	if _, err := ProfileFromString("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestRateProfiles(t *testing.T) {
	// A 240-tick diurnal period of amplitude 0.4, and a 6-tick burst of
	// 3× every 60 ticks.
	diurnal, err := NewGenerator(ArrivalConfig{BaseRPS: 1000, Profile: Diurnal})
	if err != nil {
		t.Fatal(err)
	}
	if got := diurnal.Rate(60); math.Abs(got-1400) > 1 {
		t.Errorf("diurnal peak rate = %g, want ≈1400", got)
	}
	if got := diurnal.Rate(180); math.Abs(got-600) > 1 {
		t.Errorf("diurnal trough rate = %g, want ≈600", got)
	}
	if got := diurnal.PeakRPS(); got != 1400 {
		t.Errorf("diurnal peak = %g", got)
	}

	bursty, err := NewGenerator(ArrivalConfig{BaseRPS: 1000, Profile: Bursty})
	if err != nil {
		t.Fatal(err)
	}
	if got := bursty.Rate(2); got != 3000 {
		t.Errorf("burst rate = %g, want 3000", got)
	}
	if got := bursty.Rate(10); got != 1000 {
		t.Errorf("base rate = %g, want 1000", got)
	}
}

// drawStream collects the full arrival stream for a config.
func drawStream(t *testing.T, cfg ArrivalConfig, ticks int) []int {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, ticks)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// TestGeneratorDeterminism: same seed ⇒ bit-identical arrival stream,
// different seed ⇒ a different one.
func TestGeneratorDeterminism(t *testing.T) {
	for _, profile := range []Profile{Steady, Diurnal, Bursty} {
		cfg := ArrivalConfig{Seed: 42, BaseRPS: 2000, Profile: profile}
		a := drawStream(t, cfg, 500)
		b := drawStream(t, cfg, 500)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: streams diverge at tick %d: %d vs %d", profile, i, a[i], b[i])
			}
		}
		cfg.Seed = 43
		c := drawStream(t, cfg, 500)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%v: different seeds produced identical streams", profile)
		}
	}
}

// TestGeneratorDeterminismUnderParallelism draws the same seeded stream
// from 8 concurrent goroutines, each with its own generator (the sweep
// engine's cell-ownership model), and requires all to be bit-identical to
// the serial stream.
func TestGeneratorDeterminismUnderParallelism(t *testing.T) {
	cfg := ArrivalConfig{Seed: 7, BaseRPS: 5000, Profile: Bursty}
	want := drawStream(t, cfg, 300)
	var wg sync.WaitGroup
	streams := make([][]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, err := NewGenerator(cfg)
			if err != nil {
				return
			}
			s := make([]int, 300)
			for i := range s {
				s[i] = g.Next()
			}
			streams[w] = s
		}(w)
	}
	wg.Wait()
	for w, s := range streams {
		if len(s) != len(want) {
			t.Fatalf("worker %d stream missing", w)
		}
		for i := range want {
			if s[i] != want[i] {
				t.Fatalf("worker %d diverges at tick %d: %d vs %d", w, i, s[i], want[i])
			}
		}
	}
}

// TestGeneratorMeanRate: over many ticks the thinned stream's mean tracks
// the profile's long-run average (law of large numbers; 2% tolerance).
func TestGeneratorMeanRate(t *testing.T) {
	cases := []struct {
		cfg  ArrivalConfig
		want float64
	}{
		{ArrivalConfig{Seed: 3, BaseRPS: 2000}, 2000},
		{ArrivalConfig{Seed: 3, BaseRPS: 2000, Profile: Diurnal}, 2000},
		// Bursty long-run mean: base×(1 + (factor−1)×duty cycle).
		{ArrivalConfig{Seed: 3, BaseRPS: 2000, Profile: Bursty}, 2000 * 1.2},
	}
	for _, c := range cases {
		const ticks = 4000
		var total int
		for _, n := range drawStream(t, c.cfg, ticks) {
			total += n
		}
		got := float64(total) / ticks
		if math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("%v: mean rate %g, want ≈%g", c.cfg.Profile, got, c.want)
		}
	}
}

// TestPoissonSampler checks both sampler regimes (Knuth and normal
// approximation) for mean and variance ≈ λ.
func TestPoissonSampler(t *testing.T) {
	g, _ := NewGenerator(ArrivalConfig{Seed: 9, BaseRPS: 1})
	for _, mean := range []float64{4, 200} {
		const n = 20000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := float64(poisson(g.rng, mean))
			sum += x
			sum2 += x * x
		}
		m := sum / n
		v := sum2/n - m*m
		if math.Abs(m-mean)/mean > 0.05 {
			t.Errorf("poisson(%g): mean %g", mean, m)
		}
		if math.Abs(v-mean)/mean > 0.10 {
			t.Errorf("poisson(%g): variance %g, want ≈%g", mean, v, mean)
		}
	}
	if got := poisson(g.rng, 0); got != 0 {
		t.Errorf("poisson(0) = %d", got)
	}
}

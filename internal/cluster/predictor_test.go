package cluster

import (
	"testing"
	"time"

	"deflation/internal/restypes"
)

func TestForecasterValidation(t *testing.T) {
	if _, err := NewForecaster(0); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewForecaster(1.5); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestForecasterConvergesToRate(t *testing.T) {
	f, err := NewForecaster(0.3)
	if err != nil {
		t.Fatal(err)
	}
	// One 4-core VM every 10 seconds → 0.4 cores/s.
	size := restypes.V(4, 16384, 100, 100)
	for i := 1; i <= 100; i++ {
		f.Observe(time.Duration(i)*10*time.Second, size)
	}
	rate := f.Rate()
	if rate.CPU < 0.35 || rate.CPU > 0.45 {
		t.Errorf("rate = %g cores/s, want ≈0.4", rate.CPU)
	}
	// Forecast over a minute: ≈24 cores.
	fc := f.Forecast(time.Minute)
	if fc.CPU < 20 || fc.CPU > 28 {
		t.Errorf("forecast = %g cores, want ≈24", fc.CPU)
	}
}

func TestForecasterBurstHandling(t *testing.T) {
	f, err := NewForecaster(0.5)
	if err != nil {
		t.Fatal(err)
	}
	size := restypes.V(2, 4096, 50, 50)
	// Simultaneous arrivals must raise, not break, the rate.
	f.Observe(time.Minute, size)
	f.Observe(time.Minute, size)
	f.Observe(time.Minute, size)
	if f.Rate().CPU <= 0 {
		t.Errorf("burst rate = %g", f.Rate().CPU)
	}
}

func TestProactiveReclaimFreesForecastDemand(t *testing.T) {
	c := newServer(t, ModeDeflation)
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, _, err := c.LaunchVM(spec(n, 0, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Free().IsZero() {
		t.Fatal("server not full")
	}
	want := restypes.V(4, 16384, 100, 100)
	touched := proactiveReclaim([]*LocalController{c}, want)
	if touched != 1 {
		t.Errorf("touched = %d servers", touched)
	}
	if !want.Fits(c.Free()) {
		t.Errorf("free after proactive reclaim = %v, want ≥ %v", c.Free(), want)
	}
	// A subsequent high-priority launch pays no reclamation latency.
	_, rep, err := c.LaunchVM(spec("hi", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReclaimLatency != 0 || rep.Deflations != 0 {
		t.Errorf("reactive work remained: %+v", rep)
	}
}

func TestProactiveReclaimNoopWhenFree(t *testing.T) {
	c := newServer(t, ModeDeflation)
	if touched := proactiveReclaim([]*LocalController{c}, restypes.V(4, 16384, 100, 100)); touched != 0 {
		t.Errorf("touched = %d on an empty server", touched)
	}
}

func TestSimProactiveReducesPlacementLatency(t *testing.T) {
	reactive, err := RunSim(smallSim(ModeDeflation, 1.8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallSim(ModeDeflation, 1.8)
	cfg.ProactiveHorizon = 2 * time.Minute
	proactive, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if proactive.ProactiveReclaims == 0 {
		t.Fatal("proactive mode never pre-deflated")
	}
	if proactive.LatentPlacements >= reactive.LatentPlacements {
		t.Errorf("latent placements %d not below reactive %d",
			proactive.LatentPlacements, reactive.LatentPlacements)
	}
}

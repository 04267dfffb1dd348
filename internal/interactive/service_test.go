package interactive

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"deflation/internal/apps/webapp"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/telemetry"
)

// replicaEnv is a webapp replica's full envelope (4 cores, 16 GB — the
// paper's standard VM).
func replicaEnv(cores float64) hypervisor.Env {
	return hypervisor.Env{
		VCPUs: 4, PhysCores: cores, EffectiveCores: cores,
		GuestMemMB: 16384, ResidentMB: 16384, EverTouchedMB: 16384,
		KernelMemMB: 256, LocalityFactor: 1, DiskMBps: 100, NetMBps: 1250,
	}
}

func steadyService(t *testing.T, replicas int, rps float64) *Service {
	t.Helper()
	apps := make([]*webapp.App, replicas)
	for i := range apps {
		apps[i] = webapp.NewApp(webapp.Config{DeflationAware: true})
	}
	s, err := NewServiceWith(ServiceConfig{
		Arrivals: ArrivalConfig{Seed: 11, BaseRPS: rps},
		SLOP99MS: 50,
	}, apps)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServiceValidation(t *testing.T) {
	if _, err := NewServiceWith(ServiceConfig{Arrivals: ArrivalConfig{BaseRPS: 1}}, nil); err == nil {
		t.Error("zero replicas accepted")
	}
	app := webapp.NewApp(webapp.Config{})
	if _, err := NewServiceWith(ServiceConfig{Replicas: 1}, []*webapp.App{app}); err == nil {
		t.Error("zero arrival rate accepted")
	}
	if _, err := NewServiceWith(ServiceConfig{Replicas: 2, Arrivals: ArrivalConfig{BaseRPS: 1}},
		[]*webapp.App{nil}); err == nil || !strings.Contains(err.Error(), "2 configured") {
		t.Errorf("replica/app mismatch accepted: %v", err)
	}
}

func TestServiceStepEnvMismatch(t *testing.T) {
	s := steadyService(t, 2, 1000)
	if err := s.Step([]hypervisor.Env{replicaEnv(4)}); err == nil {
		t.Error("env count mismatch accepted")
	}
}

// TestUndeflatedMatchesWebapp: at zero deflation the service's mean
// latency must match the webapp queueing model at the same per-replica
// load, and essentially everything offered must be served.
func TestUndeflatedMatchesWebapp(t *testing.T) {
	const replicas, rps = 4, 3200.0 // 800 rps per replica on 1600-capacity servers
	s := steadyService(t, replicas, rps)
	envs := []hypervisor.Env{replicaEnv(4), replicaEnv(4), replicaEnv(4), replicaEnv(4)}
	for tick := 0; tick < 400; tick++ {
		if err := s.Step(envs); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Result()
	if r.Dropped != 0 {
		t.Errorf("undeflated service dropped %g of %g", r.Dropped, r.Requests)
	}
	if r.SLOViolated {
		t.Errorf("undeflated service violated SLO: p99 %g ms, violations %g", r.P99MS, r.Violations)
	}
	// The service's measured per-replica load → webapp's own latency model.
	app := s.apps[0]
	perReplica := s.OfferedRPS(0)
	want := app.LatencyMS(replicaEnv(4), perReplica)
	// Requests arrive Poisson, so realized ρ fluctuates around nominal;
	// mean-of-means lands within a few percent of the fixed-rate model.
	if math.Abs(r.MeanMS-want)/want > 0.05 {
		t.Errorf("service mean %g ms, webapp model %g ms at %g rps", r.MeanMS, want, perReplica)
	}
	// Throughput consistency: served rate ≈ offered base rate.
	if served := r.Served / (400 * 1); math.Abs(served-rps)/rps > 0.02 {
		t.Errorf("served rate %g, want ≈%g", served, rps)
	}
}

// TestDeflationShiftsTrafficAndRaisesTail: deflating one replica moves
// load away from it and the pooled p99 rises but stays finite.
func TestDeflationShiftsTraffic(t *testing.T) {
	s := steadyService(t, 2, 2000)
	full := replicaEnv(4)
	envs := []hypervisor.Env{full, full}
	for tick := 0; tick < 50; tick++ {
		if err := s.Step(envs); err != nil {
			t.Fatal(err)
		}
	}
	even := s.OfferedRPS(0) / s.OfferedRPS(1)
	if math.Abs(even-1) > 0.1 {
		t.Fatalf("balanced split ratio %g", even)
	}
	// Deflate replica 1 to 1 core; the aware pool shrinks via SelfDeflate.
	s.apps[1].SelfDeflate(restypes.V(3, 0, 0, 0))
	envs[1] = replicaEnv(1)
	for tick := 0; tick < 200; tick++ {
		if err := s.Step(envs); err != nil {
			t.Fatal(err)
		}
	}
	if s.OfferedRPS(1) >= s.OfferedRPS(0)*0.5 {
		t.Errorf("deflated replica still serving %g vs %g", s.OfferedRPS(1), s.OfferedRPS(0))
	}
	if r := s.Result(); r.OverloadTicks != 0 {
		t.Errorf("overload ticks %d with one full replica", r.OverloadTicks)
	}
}

// TestServiceOverloadExplicit: a fleet with zero live capacity drops the
// whole offered load explicitly.
func TestServiceOverloadExplicit(t *testing.T) {
	s := steadyService(t, 2, 1000)
	dead := replicaEnv(4)
	dead.OOMKilled = true
	for tick := 0; tick < 10; tick++ {
		if err := s.Step([]hypervisor.Env{dead, dead}); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Result()
	if r.OverloadTicks != 10 {
		t.Errorf("overload ticks %d, want 10", r.OverloadTicks)
	}
	if r.Served != 0 || r.Dropped != r.Requests || r.Requests == 0 {
		t.Errorf("overload accounting: served %g dropped %g of %g", r.Served, r.Dropped, r.Requests)
	}
	if !r.SLOViolated {
		t.Error("total overload not an SLO violation")
	}
	if s.TotalOfferedRPS() != 0 {
		t.Errorf("offered rps %g under total overload", s.TotalOfferedRPS())
	}
}

// TestServiceRunDeterminism: two identical service runs produce exactly
// the same Result struct.
func TestServiceRunDeterminism(t *testing.T) {
	run := func() Result {
		s := steadyService(t, 3, 3000)
		envs := []hypervisor.Env{replicaEnv(4), replicaEnv(2), replicaEnv(4)}
		for tick := 0; tick < 150; tick++ {
			if err := s.Step(envs); err != nil {
				t.Fatal(err)
			}
		}
		return s.Result()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("service runs diverge:\n%#v\n%#v", a, b)
	}
}

func TestServiceTelemetry(t *testing.T) {
	sink := telemetry.NewSink()
	s := steadyService(t, 2, 1000)
	s.AttachTelemetry(sink, telemetry.Labels{"service": "web"})
	envs := []hypervisor.Env{replicaEnv(4), replicaEnv(4)}
	for tick := 0; tick < 20; tick++ {
		if err := s.Step(envs); err != nil {
			t.Fatal(err)
		}
	}
	text := sink.Registry.Text()
	for _, want := range []string{
		"deflation_interactive_requests_total",
		"deflation_interactive_served_total",
		"deflation_interactive_p99_ms",
		"deflation_interactive_tick_latency_ms",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing metric %s", want)
		}
	}
	// Nil sink stays inert.
	s2 := steadyService(t, 2, 1000)
	s2.AttachTelemetry(nil, nil)
	if s2.tel != nil {
		t.Error("nil sink attached telemetry")
	}
}

func TestOfferedRPSOutOfRange(t *testing.T) {
	s := steadyService(t, 1, 100)
	if got := s.OfferedRPS(-1); got != 0 {
		t.Errorf("OfferedRPS(-1) = %g", got)
	}
	if got := s.OfferedRPS(5); got != 0 {
		t.Errorf("OfferedRPS(5) = %g", got)
	}
}

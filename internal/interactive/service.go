package interactive

import (
	"fmt"

	"deflation/internal/apps/webapp"
	"deflation/internal/hypervisor"
)

// ServiceConfig describes one replicated interactive service.
type ServiceConfig struct {
	// Replicas is the replica count (required, ≥ 1).
	Replicas int
	// Arrivals drives the open-loop offered load; Arrivals.TickSeconds is
	// the service's simulation step.
	Arrivals ArrivalConfig
	// SLOP99MS is the service's p99 latency SLO in milliseconds
	// (default 50).
	SLOP99MS float64
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.SLOP99MS == 0 {
		c.SLOP99MS = 50
	}
	return c
}

// Service is a replicated interactive application under open-loop load:
// one webapp server per replica, a deflation-aware balancer splitting each
// tick's arrivals by live capacity, and a pooled PS latency model tracking
// the response-time distribution against the SLO.
//
// The Service does not own VMs; each Step reads the replicas' current
// hypervisor envelopes, so deflation and reinflation between ticks are
// reflected immediately. Not safe for concurrent use.
type Service struct {
	cfg  ServiceConfig
	apps []*webapp.App
	lb   *webapp.LoadBalancer
	gen  *Generator
	ps   *PSModel

	// offered tracks each replica's admitted request rate over the last
	// tick — the measured load the SLO guard deflates against.
	offered []float64

	overloadTicks int
	tel           *serviceTelemetry
}

// NewServiceWith wraps existing replica servers (already attached to VMs):
// the webapp.App instances must be the ones the cascade deflates.
func NewServiceWith(cfg ServiceConfig, apps []*webapp.App) (*Service, error) {
	cfg = cfg.withDefaults()
	if len(apps) == 0 {
		return nil, fmt.Errorf("interactive: need at least 1 replica")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = len(apps)
	}
	if cfg.Replicas != len(apps) {
		return nil, fmt.Errorf("interactive: %d apps for %d configured replicas", len(apps), cfg.Replicas)
	}
	gen, err := NewGenerator(cfg.Arrivals)
	if err != nil {
		return nil, err
	}
	ps, err := NewPSModel(cfg.SLOP99MS)
	if err != nil {
		return nil, err
	}
	lb, err := webapp.NewLoadBalancer(apps)
	if err != nil {
		return nil, err
	}
	return &Service{
		cfg: cfg, apps: apps, lb: lb, gen: gen, ps: ps,
		offered: make([]float64, len(apps)),
	}, nil
}

// OfferedRPS returns replica i's admitted request rate over the last tick
// — the measured load the SLO-targeting deflation policy budgets against.
func (s *Service) OfferedRPS(i int) float64 {
	if i < 0 || i >= len(s.offered) {
		return 0
	}
	return s.offered[i]
}

// TotalOfferedRPS returns the sum of per-replica admitted rates from the
// last tick.
func (s *Service) TotalOfferedRPS() float64 {
	var t float64
	for _, o := range s.offered {
		t += o
	}
	return t
}

// ResetStats discards the accumulated latency distribution and SLO
// accounting, keeping the arrival stream, replica pool, and last-tick
// offered-load measurements intact. Sweeps call it after a warmup window
// so Result() covers only the measurement period.
func (s *Service) ResetStats() {
	ps, err := NewPSModel(s.cfg.SLOP99MS)
	if err != nil {
		// cfg was validated at construction; an invalid SLO cannot appear here.
		panic(err)
	}
	s.ps = ps
	s.overloadTicks = 0
	if s.tel != nil {
		s.tel.lastViolations = 0
		s.tel.lastServedSum = 0
		s.tel.lastSumMS = 0
	}
}

// Step advances one tick: draw the tick's arrivals, split them across
// replicas in proportion to live capacity in envs, and feed each replica's
// share through the PS model. A tick with zero live capacity is an
// explicit overload — every arrival is dropped and counted against the
// SLO.
func (s *Service) Step(envs []hypervisor.Env) error {
	if len(envs) != len(s.apps) {
		return fmt.Errorf("interactive: %d envs for %d replicas", len(envs), len(s.apps))
	}
	n := s.gen.Next()
	tickSec := s.gen.TickSeconds()
	weights, err := s.lb.Weights(envs)
	if err != nil {
		return err
	}
	var live float64
	for _, w := range weights {
		live += w
	}
	if live == 0 {
		// All replicas fully deflated or OOM-killed: nothing can serve.
		s.overloadTicks++
		for i := range s.offered {
			s.offered[i] = 0
		}
		s.ps.Observe(float64(n), webapp.BaseLatencyMS, 0, tickSec)
		s.tel.observeTick(s, float64(n), 0, float64(n))
		return nil
	}
	var served, dropped float64
	for i, a := range s.apps {
		share := float64(n) * weights[i]
		sv, dr := s.ps.Observe(share, webapp.BaseLatencyMS, a.CapacityRPS(envs[i]), tickSec)
		s.offered[i] = sv / tickSec
		served += sv
		dropped += dr
	}
	s.tel.observeTick(s, float64(n), served, dropped)
	return nil
}

// Result summarizes a service run.
type Result struct {
	Requests, Served, Dropped float64
	// Violations counts requests past the p99 SLO (analytic tail mass)
	// plus every dropped request.
	Violations        float64
	ViolationFraction float64
	MeanMS            float64
	P50MS, P95MS      float64
	P99MS             float64
	// SLOViolated is the figure-of-merit: measured p99 above the SLO, or
	// more than 1% of requests past it (equivalent statements when the
	// histogram is exact; both are reported for robustness), or any
	// whole-service overload tick.
	SLOViolated   bool
	OverloadTicks int
}

// Result computes the run summary so far.
func (s *Service) Result() Result {
	r := Result{
		Requests:          s.ps.Requests(),
		Served:            s.ps.Served(),
		Dropped:           s.ps.Dropped(),
		Violations:        s.ps.Violations(),
		ViolationFraction: s.ps.ViolationFraction(),
		MeanMS:            s.ps.MeanMS(),
		P50MS:             s.ps.Quantile(0.50),
		P95MS:             s.ps.Quantile(0.95),
		P99MS:             s.ps.Quantile(0.99),
		OverloadTicks:     s.overloadTicks,
	}
	r.SLOViolated = r.P99MS > s.ps.SLOMS() || r.ViolationFraction > 0.01 || s.overloadTicks > 0
	return r
}

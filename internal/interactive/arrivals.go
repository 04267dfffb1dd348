// Package interactive models the open-loop, SLO-driven workload class the
// deflation paper's batch-shaped applications leave out: replicated
// request-serving services under heavy user traffic (Fuerst & Shenoy,
// "Cloud-scale VM Deflation for Running Interactive Applications on
// Transient Servers").
//
// The package has three layers:
//
//   - an open-loop arrival generator (this file): seeded Poisson thinning
//     against diurnal/bursty rate profiles, producing per-tick arrival
//     counts — millions of simulated user requests per sweep cell with no
//     per-request allocation;
//   - a processor-sharing latency model (ps.go): each replica is an
//     M/G/1-PS queue whose service capacity is derived from its live
//     deflated CPU/memory envelope, spreading every tick's requests across
//     a streaming latency histogram analytically;
//   - a replicated Service (service.go) with a deflation-aware balancer
//     and tracked p50/p95/p99 against a latency SLO, plus an SLOGuard
//     (slo.go) that plugs into cascade deflation so latency-sensitive VMs
//     are deflated only down to measured p99 headroom.
package interactive

import (
	"fmt"
	"math"
	"math/rand"
)

// Profile selects the shape of the offered arrival rate over time.
type Profile int

const (
	// Steady offers BaseRPS at every tick.
	Steady Profile = iota
	// Diurnal modulates BaseRPS sinusoidally with the configured period
	// and amplitude — the day/night cycle of a user-facing service.
	Diurnal
	// Bursty offers BaseRPS with periodic multiplicative bursts — flash
	// crowds on top of the base load.
	Bursty
)

// String names the profile for tables and telemetry labels.
func (p Profile) String() string {
	switch p {
	case Diurnal:
		return "diurnal"
	case Bursty:
		return "bursty"
	default:
		return "steady"
	}
}

// ProfileFromString parses a profile name (the inverse of String).
func ProfileFromString(s string) (Profile, error) {
	switch s {
	case "steady", "":
		return Steady, nil
	case "diurnal":
		return Diurnal, nil
	case "bursty":
		return Bursty, nil
	}
	return Steady, fmt.Errorf("interactive: unknown arrival profile %q", s)
}

// ArrivalConfig parameterizes the open-loop generator. The zero value of
// every field has a sensible default; only BaseRPS is required.
type ArrivalConfig struct {
	// Seed makes the arrival stream reproducible; same seed, same
	// bit-identical stream (default 1).
	Seed int64
	// BaseRPS is the long-run mean offered request rate.
	BaseRPS float64
	// Profile shapes the instantaneous rate (default Steady).
	Profile Profile
	// TickSeconds is the generator's interval length (default 1s).
	TickSeconds float64
}

const (
	// periodTicks is the diurnal period.
	periodTicks = 240
	// amplitude is the diurnal modulation depth in (0, 1): rate swings
	// between Base×(1−A) and Base×(1+A).
	amplitude float64 = 0.4
	// burstEveryTicks and burstTicks place a burst of burstTicks length
	// every burstEveryTicks.
	burstEveryTicks, burstTicks = 60, 6
	// burstFactor multiplies the base rate during bursts.
	burstFactor float64 = 3
)

func (c ArrivalConfig) withDefaults() ArrivalConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TickSeconds == 0 {
		c.TickSeconds = 1
	}
	return c
}

// Generator produces per-tick arrival counts for a non-homogeneous Poisson
// process by thinning: each tick draws the homogeneous count at the
// profile's peak rate, then accepts each arrival with probability
// rate(t)/peak. The generator is deterministic per seed and allocates
// nothing per request. Not safe for concurrent use — each sweep cell owns
// its own generator.
type Generator struct {
	cfg  ArrivalConfig
	rng  *rand.Rand
	tick int
}

// NewGenerator validates cfg and seeds the stream.
func NewGenerator(cfg ArrivalConfig) (*Generator, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseRPS <= 0 {
		return nil, fmt.Errorf("interactive: BaseRPS must be positive, got %g", cfg.BaseRPS)
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Rate returns the instantaneous offered rate Λ(t) at the given tick.
func (g *Generator) Rate(tick int) float64 {
	c := g.cfg
	switch c.Profile {
	case Diurnal:
		phase := 2 * math.Pi * float64(tick%periodTicks) / float64(periodTicks)
		return c.BaseRPS * (1 + amplitude*math.Sin(phase))
	case Bursty:
		if tick%burstEveryTicks < burstTicks {
			return c.BaseRPS * burstFactor
		}
		return c.BaseRPS
	default:
		return c.BaseRPS
	}
}

// PeakRPS returns the profile's maximum instantaneous rate — the
// homogeneous rate the thinning draws against.
func (g *Generator) PeakRPS() float64 {
	c := g.cfg
	switch c.Profile {
	case Diurnal:
		return c.BaseRPS * (1 + amplitude)
	case Bursty:
		return c.BaseRPS * burstFactor
	default:
		return c.BaseRPS
	}
}

// TickSeconds returns the configured interval length.
func (g *Generator) TickSeconds() float64 { return g.cfg.TickSeconds }

// Next returns the arrival count for the current tick and advances the
// clock: a Poisson draw at the peak rate, thinned to the instantaneous
// rate by per-arrival acceptance.
func (g *Generator) Next() int {
	peakMean := g.PeakRPS() * g.cfg.TickSeconds
	n := poisson(g.rng, peakMean)
	p := g.Rate(g.tick) / g.PeakRPS()
	g.tick++
	if p >= 1 {
		return n
	}
	// Thin: accept each arrival of the peak-rate process independently
	// with probability Λ(t)/Λpeak. One uniform per candidate arrival, no
	// allocation.
	kept := 0
	for i := 0; i < n; i++ {
		if g.rng.Float64() < p {
			kept++
		}
	}
	return kept
}

// poisson draws from Poisson(mean). Small means use Knuth's product
// method (exact); large means use the normal approximation with continuity
// correction, which is standard for rate-level simulation and keeps the
// draw O(1) instead of O(mean). Both paths are deterministic for a seeded
// rng.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 64 {
		l := math.Exp(-mean)
		k, p := 0, 1.0
		for p > l {
			k++
			p *= rng.Float64()
		}
		return k - 1
	}
	n := math.Round(mean + math.Sqrt(mean)*rng.NormFloat64())
	if n < 0 {
		return 0
	}
	return int(n)
}

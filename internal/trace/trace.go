// Package trace generates synthetic cloud workload traces for the cluster
// experiments (§6.3). The paper drives its 100-node simulation with the
// Eucalyptus private-cloud traces ("VM arrivals, lifetimes, and VM sizes");
// those traces are not redistributable, so this package synthesizes
// workloads with the same documented statistical character: Poisson
// arrivals, heavy-tailed (log-normal) lifetimes, and a discrete instance-
// size mix dominated by small VMs.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"deflation/internal/restypes"
)

// Event is one VM request in a trace.
type Event struct {
	ID      string
	Arrival time.Duration
	// Lifetime is how long the VM runs once started; Departure = Arrival +
	// Lifetime when the VM is admitted immediately.
	Lifetime time.Duration
	Size     restypes.Vector
	// HighPriority marks the VM non-deflatable/non-preemptible.
	HighPriority bool
}

// SizeClass is one instance type in the mix.
type SizeClass struct {
	Size   restypes.Vector
	Weight float64
}

// DefaultSizeMix mirrors a small-instance-dominated private cloud: mostly
// 1- and 2-core VMs, a tail of 4- and 8-core ones (the Eucalyptus traces'
// documented shape).
func DefaultSizeMix() []SizeClass {
	return []SizeClass{
		{Size: restypes.V(1, 2048, 25, 25), Weight: 0.40},
		{Size: restypes.V(2, 4096, 50, 50), Weight: 0.30},
		{Size: restypes.V(4, 8192, 100, 100), Weight: 0.20},
		{Size: restypes.V(8, 16384, 200, 200), Weight: 0.10},
	}
}

// Config parameterizes trace generation.
type Config struct {
	Seed  int64
	Count int
	// MeanInterarrival is the exponential inter-arrival mean (default 30s).
	MeanInterarrival time.Duration
	// LifetimeMedian and LifetimeSigma parameterize the log-normal
	// lifetime distribution (defaults: 1h median, σ=1.2 — heavy-tailed,
	// most VMs short-lived with a long tail, as in the Eucalyptus traces).
	LifetimeMedian time.Duration
	LifetimeSigma  float64
	// HighPriorityFraction is the share of high-priority VMs (default 0.5,
	// the Fig. 8c setting: "50.0% VMs are low-priority").
	HighPriorityFraction float64
	// SizeMix defaults to DefaultSizeMix.
	SizeMix []SizeClass
}

func (c Config) withDefaults() Config {
	if c.MeanInterarrival == 0 {
		c.MeanInterarrival = 30 * time.Second
	}
	if c.LifetimeMedian == 0 {
		c.LifetimeMedian = time.Hour
	}
	if c.LifetimeSigma == 0 {
		c.LifetimeSigma = 1.2
	}
	if c.HighPriorityFraction == 0 {
		c.HighPriorityFraction = 0.5
	}
	if c.SizeMix == nil {
		c.SizeMix = DefaultSizeMix()
	}
	return c
}

// Generate produces a deterministic trace of Count events sorted by
// arrival time.
func Generate(cfg Config) ([]Event, error) {
	cfg = cfg.withDefaults()
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("trace: count must be positive, got %d", cfg.Count)
	}
	if cfg.HighPriorityFraction < 0 || cfg.HighPriorityFraction > 1 {
		return nil, fmt.Errorf("trace: high-priority fraction %g out of [0,1]", cfg.HighPriorityFraction)
	}
	var totalW float64
	for _, sc := range cfg.SizeMix {
		if sc.Weight < 0 || !sc.Size.Positive() {
			return nil, fmt.Errorf("trace: bad size class %+v", sc)
		}
		totalW += sc.Weight
	}
	if totalW == 0 {
		return nil, fmt.Errorf("trace: size mix has zero total weight")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	events := make([]Event, 0, cfg.Count)
	now := time.Duration(0)
	for i := 0; i < cfg.Count; i++ {
		now += time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		life := time.Duration(float64(cfg.LifetimeMedian) * math.Exp(cfg.LifetimeSigma*rng.NormFloat64()))
		if life < time.Minute {
			life = time.Minute
		}
		events = append(events, Event{
			ID:           fmt.Sprintf("vm-%05d", i),
			Arrival:      now,
			Lifetime:     life,
			Size:         pickSize(rng, cfg.SizeMix, totalW),
			HighPriority: rng.Float64() < cfg.HighPriorityFraction,
		})
	}
	return events, nil
}

func pickSize(rng *rand.Rand, mix []SizeClass, totalW float64) restypes.Vector {
	x := rng.Float64() * totalW
	for _, sc := range mix {
		if x < sc.Weight {
			return sc.Size
		}
		x -= sc.Weight
	}
	return mix[len(mix)-1].Size
}

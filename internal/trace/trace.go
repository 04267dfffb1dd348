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

// sizeClass is one instance type in the mix.
type sizeClass struct {
	size   restypes.Vector
	weight float64
}

// sizeMix mirrors a small-instance-dominated private cloud: mostly 1- and
// 2-core VMs, a tail of 4- and 8-core ones (the Eucalyptus traces'
// documented shape). Nothing assigns it.
var sizeMix = []sizeClass{
	{size: restypes.V(1, 2048, 25, 25), weight: 0.40},
	{size: restypes.V(2, 4096, 50, 50), weight: 0.30},
	{size: restypes.V(4, 8192, 100, 100), weight: 0.20},
	{size: restypes.V(8, 16384, 200, 200), weight: 0.10},
}

// Config parameterizes trace generation.
type Config struct {
	Seed  int64
	Count int
	// MeanInterarrival is the exponential inter-arrival mean (default 30s).
	MeanInterarrival time.Duration
	// LifetimeMedian is the median of the log-normal lifetime distribution
	// (default 1h).
	LifetimeMedian time.Duration
}

const (
	// lifetimeSigma is the log-normal lifetime distribution's σ:
	// heavy-tailed, most VMs short-lived with a long tail, as in the
	// Eucalyptus traces.
	lifetimeSigma float64 = 1.2
	// highPriorityFraction is the share of high-priority VMs (the Fig. 8c
	// setting: "50.0% VMs are low-priority").
	highPriorityFraction float64 = 0.5
)

func (c Config) withDefaults() Config {
	if c.MeanInterarrival == 0 {
		c.MeanInterarrival = 30 * time.Second
	}
	if c.LifetimeMedian == 0 {
		c.LifetimeMedian = time.Hour
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
	var totalW float64
	for _, sc := range sizeMix {
		totalW += sc.weight
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	events := make([]Event, 0, cfg.Count)
	now := time.Duration(0)
	for i := 0; i < cfg.Count; i++ {
		now += time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		life := time.Duration(float64(cfg.LifetimeMedian) * math.Exp(lifetimeSigma*rng.NormFloat64()))
		if life < time.Minute {
			life = time.Minute
		}
		events = append(events, Event{
			ID:           fmt.Sprintf("vm-%05d", i),
			Arrival:      now,
			Lifetime:     life,
			Size:         pickSize(rng, totalW),
			HighPriority: rng.Float64() < highPriorityFraction,
		})
	}
	return events, nil
}

func pickSize(rng *rand.Rand, totalW float64) restypes.Vector {
	x := rng.Float64() * totalW
	for _, sc := range sizeMix {
		if x < sc.weight {
			return sc.size
		}
		x -= sc.weight
	}
	return sizeMix[len(sizeMix)-1].size
}

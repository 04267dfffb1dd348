// Package pricing implements the deflatable-VM pricing models the paper
// discusses in §8: flat discounted prices (today's spot/preemptible
// offerings) and the resource-as-a-service model, where "providers can
// dynamically charge VMs based on the amount of resources allocated". A
// Meter integrates per-VM allocations over (virtual) time so cluster
// experiments can compare provider revenue under the different models.
package pricing

import (
	"fmt"
	"time"

	"deflation/internal/restypes"
)

// Rates prices the two primary resource dimensions per hour. The defaults
// approximate on-demand cloud pricing: $0.05 per core-hour and $0.007 per
// GB-hour.
type Rates struct {
	PerCoreHour float64
	PerGBHour   float64
}

// DefaultRates returns the baseline on-demand rates.
func DefaultRates() Rates { return Rates{PerCoreHour: 0.05, PerGBHour: 0.007} }

// hourly returns the price of holding v for one hour.
func (r Rates) hourly(v restypes.Vector) float64 {
	return v.CPU*r.PerCoreHour + v.MemoryMB/1024*r.PerGBHour
}

// Model prices one interval of a VM's existence.
type Model interface {
	// Name identifies the model.
	Name() string
	// Charge prices dt of a VM whose nominal size is nominal and whose
	// physical allocation during the interval was allocated.
	Charge(nominal, allocated restypes.Vector, dt time.Duration) float64
}

// OnDemand charges the full nominal price, allocation-independent — the
// non-revocable baseline (high-priority VMs).
type OnDemand struct{ Rates Rates }

// Name implements Model.
func (OnDemand) Name() string { return "on-demand" }

// Charge implements Model.
func (m OnDemand) Charge(nominal, _ restypes.Vector, dt time.Duration) float64 {
	return m.Rates.hourly(nominal) * dt.Hours()
}

// FlatDiscount charges a discounted nominal price regardless of how far the
// VM is deflated — today's spot/preemptible pricing ("providers could
// continue to offer flat discounted prices").
type FlatDiscount struct {
	Rates Rates
	// Discount is the price multiplier (default-worthy value 0.3: the
	// paper's "7-10x cheaper" spot pricing corresponds to 0.1-0.15; the
	// higher utility of deflatable VMs supports a smaller discount).
	Discount float64
}

// Name implements Model.
func (m FlatDiscount) Name() string { return fmt.Sprintf("flat-%.0f%%", m.Discount*100) }

// Charge implements Model.
func (m FlatDiscount) Charge(nominal, _ restypes.Vector, dt time.Duration) float64 {
	return m.Rates.hourly(nominal) * m.Discount * dt.Hours()
}

// ResourceAsAService charges for the resources actually allocated, at a
// discounted rate — the RaaS model the paper cites as the natural fit for
// deflatable VMs.
type ResourceAsAService struct {
	Rates    Rates
	Discount float64
}

// Name implements Model.
func (m ResourceAsAService) Name() string { return fmt.Sprintf("raas-%.0f%%", m.Discount*100) }

// Charge implements Model.
func (m ResourceAsAService) Charge(_, allocated restypes.Vector, dt time.Duration) float64 {
	return m.Rates.hourly(allocated) * m.Discount * dt.Hours()
}

// Usage is one VM's state during a metering interval.
type Usage struct {
	Nominal      restypes.Vector
	Allocated    restypes.Vector
	HighPriority bool
}

// Meter integrates revenue over time: high-priority VMs are charged
// on-demand, low-priority (deflatable) VMs under the configured transient
// model.
type Meter struct {
	onDemand  Model
	transient Model

	last    time.Duration
	started bool

	HighRevenue float64
	LowRevenue  float64
	// CoreHoursSold integrates allocated core-hours (utilization revenue
	// is made of).
	CoreHoursSold float64
}

// NewMeter builds a meter with on-demand pricing for high-priority VMs and
// the given model for low-priority ones.
func NewMeter(transient Model) (*Meter, error) {
	if transient == nil {
		return nil, fmt.Errorf("pricing: nil transient model")
	}
	return &Meter{onDemand: OnDemand{Rates: DefaultRates()}, transient: transient}, nil
}

// Sample accrues revenue for the interval since the previous sample, during
// which the given usages were in effect. The first call only establishes
// the time origin.
func (m *Meter) Sample(now time.Duration, usages []Usage) {
	if !m.started {
		m.started = true
		m.last = now
		return
	}
	dt := now - m.last
	m.last = now
	if dt <= 0 {
		return
	}
	for _, u := range usages {
		if u.HighPriority {
			m.HighRevenue += m.onDemand.Charge(u.Nominal, u.Allocated, dt)
		} else {
			m.LowRevenue += m.transient.Charge(u.Nominal, u.Allocated, dt)
		}
		m.CoreHoursSold += u.Allocated.CPU * dt.Hours()
	}
}

// Total returns accrued revenue across both classes.
func (m *Meter) Total() float64 { return m.HighRevenue + m.LowRevenue }

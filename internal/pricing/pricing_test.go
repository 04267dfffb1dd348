package pricing

import (
	"math"
	"testing"
	"time"

	"deflation/internal/restypes"
)

func v4() restypes.Vector { return restypes.V(4, 16384, 100, 100) }
func v2() restypes.Vector { return restypes.V(2, 8192, 50, 50) }

func TestOnDemandCharge(t *testing.T) {
	m := OnDemand{Rates: DefaultRates()}
	// 4 cores × $0.05 + 16 GB × $0.007 = $0.312/hour.
	got := m.Charge(v4(), v2(), time.Hour)
	if math.Abs(got-0.312) > 1e-9 {
		t.Errorf("charge = %g, want 0.312 (allocation-independent)", got)
	}
	if m.Name() != "on-demand" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestFlatDiscountIgnoresDeflation(t *testing.T) {
	m := FlatDiscount{Rates: DefaultRates(), Discount: 0.3}
	full := m.Charge(v4(), v4(), time.Hour)
	deflated := m.Charge(v4(), v2(), time.Hour)
	if full != deflated {
		t.Errorf("flat pricing varied with allocation: %g vs %g", full, deflated)
	}
	if math.Abs(full-0.312*0.3) > 1e-9 {
		t.Errorf("charge = %g, want 30%% of on-demand", full)
	}
}

func TestRaaSFollowsAllocation(t *testing.T) {
	m := ResourceAsAService{Rates: DefaultRates(), Discount: 0.5}
	full := m.Charge(v4(), v4(), time.Hour)
	deflated := m.Charge(v4(), v2(), time.Hour)
	if math.Abs(deflated-full/2) > 1e-9 {
		t.Errorf("half allocation not half price: %g vs %g", deflated, full)
	}
}

func TestMeterIntegration(t *testing.T) {
	if _, err := NewMeter(nil); err == nil {
		t.Error("nil model accepted")
	}
	m, err := NewMeter(ResourceAsAService{Rates: DefaultRates(), Discount: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	usage := []Usage{
		{Nominal: v4(), Allocated: v4(), HighPriority: true},
		{Nominal: v4(), Allocated: v2(), HighPriority: false},
	}
	m.Sample(0, usage) // origin only
	m.Sample(time.Hour, usage)
	// High: on-demand $0.312; low: RaaS on 2c/8GB at 50% = $0.078.
	if math.Abs(m.HighRevenue-0.312) > 1e-9 {
		t.Errorf("high revenue = %g", m.HighRevenue)
	}
	if math.Abs(m.LowRevenue-0.078) > 1e-9 {
		t.Errorf("low revenue = %g", m.LowRevenue)
	}
	if math.Abs(m.Total()-(m.HighRevenue+m.LowRevenue)) > 1e-12 {
		t.Error("total inconsistent")
	}
	if math.Abs(m.CoreHoursSold-6) > 1e-9 {
		t.Errorf("core-hours = %g, want 6", m.CoreHoursSold)
	}

	// Zero and negative intervals accrue nothing.
	before := m.Total()
	m.Sample(time.Hour, usage)
	m.Sample(time.Minute, usage)
	if m.Total() != before {
		t.Error("non-positive interval accrued revenue")
	}
}

func TestModelNames(t *testing.T) {
	if (FlatDiscount{Discount: 0.3}).Name() != "flat-30%" {
		t.Error("flat name wrong")
	}
	if (ResourceAsAService{Discount: 0.5}).Name() != "raas-50%" {
		t.Error("raas name wrong")
	}
}

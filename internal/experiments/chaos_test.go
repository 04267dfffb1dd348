package experiments

import (
	"strings"
	"testing"
)

func TestChaosZeroRateReproducesFig8cBaseline(t *testing.T) {
	// The acceptance bar: the chaos sweep's zero-fault row must equal the
	// Fig. 8c deflation curve for the same simulation parameters, exactly.
	chaos := quick(t, "chaos").(curves)
	fig8c := quick(t, "8c").(curves)
	for i, oc := range chaos[0].x {
		if got, want := chaos[0].series[0].Values[i], fig8c[0].series[0].Values[i]; got != want {
			t.Errorf("oc=%g%%: zero-fault preemption %.6f != Fig 8c deflation %.6f", oc, got, want)
		}
	}
}

func TestChaosFaultsDegradeTheCluster(t *testing.T) {
	chaos := quick(t, "chaos").(curves)
	preemption, goodput, crashes := chaos[0].series, chaos[1].series, chaos[2].series
	if n := len(preemption); n != 3 {
		t.Fatalf("series count = %d", n)
	}
	if crashes[0].Values[0] != 0 {
		t.Errorf("zero-fault cell injected %v crashes", crashes[0].Values[0])
	}
	for si := 1; si < len(preemption); si++ {
		name := preemption[si].Name
		if base, faulty := preemption[0].Values[0], preemption[si].Values[0]; faulty <= base {
			t.Errorf("%s: preemption probability %.4f not above baseline %.4f", name, faulty, base)
		}
		if crashes[si].Values[0] == 0 {
			t.Errorf("%s: no crashes injected", name)
		}
		if gp := goodput[si].Values[0]; gp <= 0 {
			t.Errorf("%s: goodput = %v", name, gp)
		}
	}

	table := chaos.Table()
	for _, want := range []string{"preemption probability", "goodput", "no faults", "32/node/day"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

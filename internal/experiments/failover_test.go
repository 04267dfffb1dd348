package experiments

import (
	"strings"
	"testing"
)

func TestFailoverZeroFaultRowReproducesFig8cBaseline(t *testing.T) {
	// The acceptance bar: arming the hot standby must cost nothing when no
	// faults fire — the zero-fault row equals the Fig. 8c deflation curve
	// for the same simulation parameters, exactly.
	fo := quick(t, "failover").(curves)
	fig8c := quick(t, "8c").(curves)
	for i, oc := range fo[0].x {
		if got, want := fo[0].series[0].Values[i], fig8c[0].series[0].Values[i]; got != want {
			t.Errorf("oc=%g%%: zero-fault preemption %.6f != Fig 8c deflation %.6f", oc, got, want)
		}
		if n := fo[2].series[0].Values[i]; n != 0 {
			t.Errorf("oc=%g%%: zero-fault cell failed over %v times", oc, n)
		}
	}
}

func TestFailoverNeverEvictsHealthyVMs(t *testing.T) {
	// The paper-level availability claim: across every fault regime —
	// leader crashes, partitions, disk faults, all at once — standby
	// takeovers never evict a VM that is alive on a reachable node, and
	// every deposed leader is provably fenced off.
	fo := quick(t, "failover").(curves)
	goodput, failovers, evictions, stale := fo[1].series, fo[2].series, fo[3].series, fo[4].series
	if n := len(failovers); n != 5 {
		t.Fatalf("series count = %d", n)
	}
	for si := range failovers {
		name := failovers[si].Name
		for oi, ev := range evictions[si].Values {
			if ev != 0 {
				t.Errorf("%s oc[%d]: takeovers evicted %v healthy VMs", name, oi, ev)
			}
		}
		if si > 0 && failovers[si].Values[0] == 0 {
			t.Errorf("%s: no takeovers under injected faults", name)
		}
		if gp := goodput[si].Values[0]; gp <= 0 {
			t.Errorf("%s: goodput = %v", name, gp)
		}
	}
	// Partition regimes heal with the deposed leader still alive; its
	// post-heal command must have been rejected somewhere in the sweep.
	staleSeen := 0.0
	for si := range stale {
		staleSeen += stale[si].Values[0]
	}
	if staleSeen == 0 {
		t.Error("no stale-epoch command was ever fenced off")
	}

	table := fo.Table()
	for _, want := range []string{"healthy VMs evicted", "standby takeovers", "no faults", "full chaos", "stale-epoch"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

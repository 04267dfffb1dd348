package experiments

import (
	"strings"
	"testing"
)

func quickMixed(t *testing.T) mixedResult {
	t.Helper()
	return quick(t, "mixed").(mixedResult)
}

// TestFigMixedZeroDeflationIdenticalAcrossSubstrates: with no deflation the
// substrate never enters the model — the same seeded arrival stream on the
// same webapp fleet must produce byte-identical measurements whether the
// replicas are KVM domains, containers, or an alternating mix.
func TestFigMixedZeroDeflationIdenticalAcrossSubstrates(t *testing.T) {
	r := quickMixed(t)
	for _, p := range r.Panels {
		if p.vm[0] != p.container[0] || p.vm[0] != p.mixed[0] {
			t.Errorf("mix %s: zero-deflation rows differ across substrates:\nvm  %+v\nctr %+v\nmix %+v",
				p.Mix, p.vm[0], p.container[0], p.mixed[0])
		}
		if p.vm[0].SLOViolated {
			t.Errorf("mix %s: zero-deflation row violates the SLO", p.Mix)
		}
	}
}

// TestFigMixedContainerFrontierStrictlyDeeper is the headline acceptance:
// the container fleet sustains strictly deeper violation-free deflation
// than the VM fleet, because the cgroup write applies the exact fractional
// quota while the hypervisor path quantizes to whole vCPUs and pays LHP.
func TestFigMixedContainerFrontierStrictlyDeeper(t *testing.T) {
	r := quickMixed(t)
	for _, p := range r.Panels {
		if !(p.ContainerFrontierPct > p.VMFrontierPct) {
			t.Errorf("mix %s: container frontier %g%% not strictly deeper than vm %g%%",
				p.Mix, p.ContainerFrontierPct, p.VMFrontierPct)
		}
		// The mixed fleet is never better than the pure container fleet
		// and never worse than the pure VM fleet.
		if p.MixedFrontierPct > p.ContainerFrontierPct || p.MixedFrontierPct < p.VMFrontierPct {
			t.Errorf("mix %s: mixed frontier %g%% outside [vm %g%%, container %g%%]",
				p.Mix, p.MixedFrontierPct, p.VMFrontierPct, p.ContainerFrontierPct)
		}
		// At every fraction the container p99 is no worse than the VM p99
		// (equal exactly at whole-vCPU fractions), and the cascade path
		// never OOM-kills anything — the resize floor clamps the target.
		for k := range p.vm {
			if p.container[k].P99MS > p.vm[k].P99MS {
				t.Errorf("mix %s, defl %g%%: container p99 %g above vm %g",
					p.Mix, r.DeflationPct[k], p.container[k].P99MS, p.vm[k].P99MS)
			}
			for _, c := range []mixedCellResult{p.vm[k], p.container[k], p.mixed[k]} {
				if c.OOMKills != 0 {
					t.Errorf("mix %s, defl %g%%: cascade path OOM-killed %d instances",
						p.Mix, r.DeflationPct[k], c.OOMKills)
				}
			}
		}
	}
}

// TestFigMixedResizeLatency: the container resize is a constant-time cgroup
// write regardless of depth; the VM resize grows with the reclaimed amount
// (balloon pages + vCPU unplug) and is orders of magnitude slower.
func TestFigMixedResizeLatency(t *testing.T) {
	r := quickMixed(t)
	for _, p := range r.Panels {
		for k := range p.vm {
			if r.DeflationPct[k] == 0 {
				continue
			}
			ctr, vmLat := p.ContainerResize.Values[k], p.VMResize.Values[k]
			if ctr != 2 {
				t.Errorf("mix %s, defl %g%%: container resize %g ms, want the 2 ms cgroup write",
					p.Mix, r.DeflationPct[k], ctr)
			}
			if vmLat < 100*ctr {
				t.Errorf("mix %s, defl %g%%: vm resize %g ms not ≫ container %g ms",
					p.Mix, r.DeflationPct[k], vmLat, ctr)
			}
		}
	}
}

// TestFigMixedAggressiveOOMAsymmetry: the blind resize past the substrate
// floor OOM-kills containers but never VMs — the hypervisor absorbs the
// memory overcommit in swap.
func TestFigMixedAggressiveOOMAsymmetry(t *testing.T) {
	r := quickMixed(t)
	byFleet := map[string]mixedAggressive{}
	for _, a := range r.Aggressive {
		byFleet[a.Fleet] = a
	}
	if got := byFleet[fleetVM].Cell.OOMKills; got != 0 {
		t.Errorf("aggressive vm fleet OOM-killed %d instances, want 0 (swap absorbs)", got)
	}
	if got := byFleet[fleetContainer].Cell.OOMKills; got == 0 {
		t.Error("aggressive container fleet shows zero OOM kills, want every replica killed")
	}
	if got := byFleet[fleetMixed].Cell.OOMKills; got == 0 {
		t.Error("aggressive mixed fleet shows zero OOM kills, want the container half killed")
	}
	if byFleet[fleetMixed].Cell.OOMKills >= byFleet[fleetContainer].Cell.OOMKills {
		t.Errorf("mixed fleet OOM kills %d not below container fleet %d",
			byFleet[fleetMixed].Cell.OOMKills, byFleet[fleetContainer].Cell.OOMKills)
	}
}

func TestFigMixedTable(t *testing.T) {
	r := quickMixed(t)
	table := r.Table()
	for _, want := range []string{
		"fig-mixed", "vm p99", "ctr p99", "mix p99", "frontier",
		"aggressive", "oom-kills",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

package experiments

import (
	"math"
	"strings"
	"testing"

	"deflation/internal/apps/webapp"
	"deflation/internal/hypervisor"
)

func quickSLO(t *testing.T) sloResult {
	t.Helper()
	return quick(t, "slo").(sloResult)
}

// TestFigSLOZeroDeflationMatchesWebapp: the sweep's zero-deflation row must
// reproduce the undeflated webapp model — same latency as the thread-pool
// server's own closed form at the measured per-replica load, and
// essentially all offered traffic served.
func TestFigSLOZeroDeflationMatchesWebapp(t *testing.T) {
	r := quickSLO(t)
	p := r.Panels[0]
	app := webapp.NewApp(webapp.Config{DeflationAware: true})
	env := hypervisor.Env{
		VCPUs: 4, PhysCores: 4, EffectiveCores: 4,
		GuestMemMB: 16384, ResidentMB: 16384, EverTouchedMB: 16384,
		KernelMemMB: 256, LocalityFactor: 1, DiskMBps: 100, NetMBps: 1250,
	}
	for _, cells := range [][]sloCellResult{p.slo, p.utility} {
		zero := cells[0]
		perReplica := zero.ServedRPS / float64(p.Replicas)
		wantMean := app.LatencyMS(env, perReplica)
		if math.Abs(zero.MeanMS-wantMean)/wantMean > 0.05 {
			t.Errorf("zero-deflation mean %g ms, webapp model %g ms at %g rps",
				zero.MeanMS, wantMean, perReplica)
		}
		wantP99 := wantMean * math.Log(100)
		if math.Abs(zero.P99MS-wantP99)/wantP99 > 0.08 {
			t.Errorf("zero-deflation p99 %g ms, webapp closed form %g ms", zero.P99MS, wantP99)
		}
		offered := p.RPSPerReplica * float64(p.Replicas)
		if math.Abs(zero.ServedRPS-offered)/offered > 0.02 {
			t.Errorf("zero-deflation served %g rps, offered %g", zero.ServedRPS, offered)
		}
		if zero.DroppedRPS != 0 || zero.SLOViolated {
			t.Errorf("zero-deflation row dropped %g rps, violated=%v", zero.DroppedRPS, zero.SLOViolated)
		}
	}
	// The two policies are byte-identical fleets at zero deflation: the
	// same seeded arrival stream must produce the same distribution.
	if p.slo[0] != p.utility[0] {
		t.Errorf("zero-deflation rows differ across policies:\n%+v\n%+v", p.slo[0], p.utility[0])
	}
}

// TestFigSLOFrontierStrictlyDeeper is the headline acceptance: in every
// panel the SLO-targeting policy sustains strictly deeper deflation than
// the utility-curve cascade before its first p99 violation.
func TestFigSLOFrontierStrictlyDeeper(t *testing.T) {
	r := quickSLO(t)
	for _, p := range r.Panels {
		if !(p.SLOFrontierPct > p.UtilityFrontierPct) {
			t.Errorf("panel %g rps × %d: slo frontier %g%% not strictly deeper than utility %g%%",
				p.RPSPerReplica, p.Replicas, p.SLOFrontierPct, p.UtilityFrontierPct)
		}
		// Every non-violating SLO cell keeps p99 under the SLO, and the
		// guard actually reclaimed something at the deepest request.
		for k, c := range p.slo {
			if !c.SLOViolated && c.P99MS > r.SLOP99MS {
				t.Errorf("panel %g rps × %d, defl %g%%: p99 %g above SLO but not flagged",
					p.RPSPerReplica, p.Replicas, r.DeflationPct[k], c.P99MS)
			}
		}
		if deepest := p.slo[len(p.slo)-1]; deepest.WebReclaimedCores <= 0 {
			t.Errorf("panel %g rps × %d: guard reclaimed nothing at the deepest request",
				p.RPSPerReplica, p.Replicas)
		}
	}
}

// TestFigSLOMixedFleet: on the shared host the unguarded batch VMs give up
// the full deep target while the guarded web tier is clamped at its
// headroom and keeps its SLO.
func TestFigSLOMixedFleet(t *testing.T) {
	r := quickSLO(t)
	m := r.Mixed
	if m.BatchVMs == 0 {
		t.Fatal("mixed cell has no batch VMs")
	}
	if m.Cell.SLOViolated {
		t.Errorf("mixed-fleet web tier violated its SLO: p99 %g ms", m.Cell.P99MS)
	}
	if m.Cell.BatchReclaimedCores <= m.Cell.WebReclaimedCores {
		t.Errorf("batch reclaimed %g cores/VM, web %g — batch should give strictly more under a deep request",
			m.Cell.BatchReclaimedCores, m.Cell.WebReclaimedCores)
	}
	wantBatch := stdVMSize().CPU * m.DeflationPct / 100
	if math.Abs(m.Cell.BatchReclaimedCores-wantBatch) > 1e-9 {
		t.Errorf("batch reclaimed %g cores/VM, want the full %g-core target", m.Cell.BatchReclaimedCores, wantBatch)
	}
}

func TestFigSLOTable(t *testing.T) {
	r := quickSLO(t)
	table := r.Table()
	for _, want := range []string{
		"fig-slo", "slo p99", "util p99", "frontier", "mixed fleet",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

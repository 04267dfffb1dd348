package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"deflation/internal/apps/curveapp"
	"deflation/internal/apps/webapp"
	"deflation/internal/cascade"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/interactive"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/spark"
	"deflation/internal/substrate"
	"deflation/internal/sweep"
	"deflation/internal/vm"
)

// figMixed compares the deflation mechanism across substrates: VM-only
// fleets (KVM domains with hotplug and host-swap reclamation), container-only
// fleets (cgroup limit writes), and a mixed fleet alternating between the
// two, swept across deflation fraction × workload mix.
//
// Two effects separate the substrates:
//
//   - resize granularity and latency: the hypervisor path quantizes CPU
//     reclamation to whole vCPUs and pays lock-holder preemption when
//     vCPUs outnumber physical cores, so an interactive tier violates its
//     p99 SLO at a shallower requested deflation than the same tier on
//     containers, where a cgroup write applies the exact fractional quota
//     in ~2 ms;
//   - the memory failure mode: VMs absorb memory overcommitment in swap,
//     while a container whose memory.max undershoots its live resident
//     set is OOM-killed. The aggressive panel drives a blind resize past
//     the substrate floor to surface exactly this asymmetry.
//
// The full sweep offers 500 rps to each of 2 web replicas (against the
// webapp's 1600-rps replicas — enough headroom that the frontier lands
// where vCPU quantization and LHP separate the substrates), on the web mix
// and on web+batch (as many batch VMs again), and requests 0–62.5% of each
// VM's CPU in fine steps around the hypervisor quantization boundaries.
// The aggressive panel resizes every instance straight to 6.25% of its
// size, far below the container resize floor. p99 is measured against a
// 50 ms SLO over 240 ticks after a 40-tick warm-up. Quick keeps the web
// mix, four fractions and 20/80-tick windows.

// Fleet kinds for the substrate axis.
const (
	fleetVM        = "vm"
	fleetContainer = "container"
	fleetMixed     = "mixed"
)

// Workload mixes for the mix axis.
const (
	mixWeb      = "web"
	mixWebBatch = "web+batch"
)

// mixedCell identifies one figMixed sweep cell. It is JSON-serialized into
// the memoization key, so it must fully determine the run.
type mixedCell struct {
	Fleet         string // fleetVM | fleetContainer | fleetMixed
	Mix           string // mixWeb | mixWebBatch
	RPSPerReplica float64
	Replicas      int
	DeflateFrac   float64
	// Aggressive skips the cascade and blindly resizes every instance to
	// size×(1−DeflateFrac) — no floor check, no clamp.
	Aggressive   bool
	WarmupTicks  int
	MeasureTicks int
	SLOP99MS     float64
	Seed         int64
}

// mixedCellResult is one cell's measurement window summary.
type mixedCellResult struct {
	P99MS       float64
	SLOViolated bool
	// ReclaimedCores is the CPU actually reclaimed per instance (web and
	// batch alike — the whole fleet sees the same request).
	ReclaimedCores float64
	// MeanResizeMS is the mean end-to-end reclamation latency per
	// instance: full cascade latency in the frontier panel (hotplug and
	// host swap on VMs, one cgroup write on containers), raw
	// Substrate.SetAllocation latency in the aggressive panel.
	MeanResizeMS float64
	// OOMKills counts instances whose post-resize limit undershot their
	// live resident set. Structurally zero on the hypervisor substrate
	// (swap absorbs the overcommit) and in the cascade path (the resize
	// floor clamps the target).
	OOMKills int
}

// onContainer reports whether instance i of the fleet runs on the cgroup
// substrate. The mixed fleet alternates, starting with a VM.
func (c mixedCell) onContainer(i int) bool {
	switch c.Fleet {
	case fleetContainer:
		return true
	case fleetMixed:
		return i%2 == 1
	default:
		return false
	}
}

// runMixedCell builds one self-owned fleet spanning up to two hosts (one
// per substrate), warms the service up, applies a single deflation event,
// and measures the service over the post-deflation window.
func runMixedCell(c mixedCell) (mixedCellResult, error) {
	var res mixedCellResult
	size := stdVMSize()
	total := c.Replicas
	if c.Mix == mixWebBatch {
		total += c.Replicas
	}
	capacity := size.Scale(float64(total) * 1.25)
	hypHost, err := hypervisor.NewHost(hypervisor.Config{Name: "mixed-kvm", Capacity: capacity})
	if err != nil {
		return res, err
	}
	cgHost, err := simcg.NewHost(simcg.Config{Name: "mixed-cg", Capacity: capacity})
	if err != nil {
		return res, err
	}
	newVM := func(i int, name string, app vm.Application) (*vm.VM, error) {
		if c.onContainer(i) {
			inst, err := cgHost.Spawn(name, size, guestos.Config{})
			if err != nil {
				return nil, err
			}
			return vm.NewOn(inst, app, vm.Config{})
		}
		dom, err := hypHost.CreateDomain(name, size, guestos.Config{})
		if err != nil {
			return nil, err
		}
		dom.MarkWarm()
		return vm.New(dom, app, vm.Config{})
	}

	apps := make([]*webapp.App, c.Replicas)
	fleet := make([]*vm.VM, 0, total)
	webVMs := make([]*vm.VM, c.Replicas)
	for i := range apps {
		a := webapp.NewApp(webapp.Config{})
		v, err := newVM(i, fmt.Sprintf("web-%d", i), a)
		if err != nil {
			return res, err
		}
		apps[i], webVMs[i] = a, v
		fleet = append(fleet, v)
	}
	if c.Mix == mixWebBatch {
		for i := 0; i < c.Replicas; i++ {
			app := curveapp.New(curveapp.Config{
				Name: "spark-cnn", Curve: spark.CurveCNNTraining, Size: size,
				Elastic: true, RSSFraction: 0.5, MinRSSFraction: 0.15,
			})
			// Keep the substrate interleave phase-aligned with the web tier.
			v, err := newVM(c.Replicas+i, fmt.Sprintf("batch-%d", i), app)
			if err != nil {
				return res, err
			}
			fleet = append(fleet, v)
		}
	}

	svc, err := interactive.NewServiceWith(interactive.ServiceConfig{
		Arrivals: interactive.ArrivalConfig{
			Seed:    c.Seed,
			BaseRPS: c.RPSPerReplica * float64(c.Replicas),
		},
		SLOP99MS: c.SLOP99MS,
	}, apps)
	if err != nil {
		return res, err
	}
	envs := func() []substrate.Env {
		out := make([]substrate.Env, len(webVMs))
		for i, v := range webVMs {
			out[i] = v.Env()
		}
		return out
	}
	for tick := 0; tick < c.WarmupTicks; tick++ {
		if err := svc.Step(envs()); err != nil {
			return res, err
		}
	}

	if c.DeflateFrac > 0 {
		var totalLat time.Duration
		if c.Aggressive {
			// The blind path: an external reclaimer writes the new limits
			// straight through the mechanism, ignoring the substrate's
			// reported resize floor. VMs swap; containers OOM.
			blind := size.Scale(1 - c.DeflateFrac)
			for _, v := range fleet {
				before := v.Allocation().CPU
				lat, err := v.SetAllocation(blind)
				if err != nil {
					return res, err
				}
				totalLat += lat
				res.ReclaimedCores += before - v.Allocation().CPU
			}
		} else {
			// The cascade path: same single deflation event FigSLO uses —
			// reclaim the fraction of each instance's CPU and half that
			// fraction of its memory, floor-clamped per substrate.
			ctrl := cascade.New(cascade.AllLevels())
			target := restypes.V(size.CPU*c.DeflateFrac, size.MemoryMB*c.DeflateFrac*0.5, 0, 0)
			for _, v := range fleet {
				before := v.Allocation().CPU
				var rep cascade.Report
				if err := ctrl.Deflate(v, target, &rep); err != nil {
					return res, err
				}
				totalLat += rep.TotalLatency
				res.ReclaimedCores += before - v.Allocation().CPU
			}
		}
		res.ReclaimedCores /= float64(len(fleet))
		res.MeanResizeMS = float64(totalLat.Microseconds()) / 1000 / float64(len(fleet))
	}
	for _, v := range fleet {
		if v.Env().OOMKilled {
			res.OOMKills++
		}
	}

	svc.ResetStats()
	for tick := 0; tick < c.MeasureTicks; tick++ {
		if err := svc.Step(envs()); err != nil {
			return res, err
		}
	}
	r := svc.Result()
	res.P99MS = r.P99MS
	res.SLOViolated = r.SLOViolated
	return res, nil
}

// mixedSweepCell wraps a cell for the engine; cells are pure functions of
// their config, so they memoize across sweeps.
func mixedSweepCell(c mixedCell) sweep.Cell[mixedCellResult] {
	return sweep.Cell[mixedCellResult]{
		Key: sweep.Key("experiments.mixedCell", c),
		Run: func(context.Context) (mixedCellResult, error) {
			return runMixedCell(c)
		},
	}
}

// mixedPanel is one workload-mix slice of the sweep: measured p99,
// reclaimed cores, and mean resize latency per deflation fraction for all
// three fleets, plus each fleet's frontier — the deepest requested
// deflation before its first p99 violation.
type mixedPanel struct {
	Mix string

	VM, Container, Mixed                series // p99 ms per deflation fraction
	VMCores, ContainerCores, MixedCores series // reclaimed cores per instance
	VMResize, ContainerResize           series // mean resize latency ms

	VMFrontierPct, ContainerFrontierPct, MixedFrontierPct float64
	vm, container, mixed                                  []mixedCellResult
}

// mixedAggressive is one fleet's blind-resize result.
type mixedAggressive struct {
	Fleet        string
	DeflationPct float64
	Cell         mixedCellResult
}

// mixedResult holds the sweep output.
type mixedResult struct {
	SLOP99MS     float64
	DeflationPct []float64
	Panels       []mixedPanel
	Aggressive   []mixedAggressive
}

// Table renders every panel plus the frontier and aggressive summaries.
func (r mixedResult) Table() string {
	var b strings.Builder
	for _, p := range r.Panels {
		title := fmt.Sprintf("fig-mixed [%s]: p99 (ms), reclaimed cores/instance, resize latency (ms) by substrate (SLO %g ms)",
			p.Mix, r.SLOP99MS)
		b.WriteString(renderTable(title, "defl%", r.DeflationPct,
			[]series{p.VM, p.Container, p.Mixed,
				p.VMCores, p.ContainerCores, p.MixedCores,
				p.VMResize, p.ContainerResize}))
		b.WriteString(fmt.Sprintf("frontier (deepest violation-free request): %s %s, %s %s, %s %s\n\n",
			fleetVM, frontierLabel(p.VMFrontierPct),
			fleetContainer, frontierLabel(p.ContainerFrontierPct),
			fleetMixed, frontierLabel(p.MixedFrontierPct)))
	}
	b.WriteString(fmt.Sprintf("# fig-mixed aggressive: blind resize to size×%.3g%%, no cascade, no floor check\n",
		100-r.Aggressive[0].DeflationPct))
	for _, a := range r.Aggressive {
		b.WriteString(fmt.Sprintf(
			"%-9s: oom-kills %d, resize %.3f ms/instance, p99 %.3f ms (violated=%v)\n",
			a.Fleet, a.Cell.OOMKills, a.Cell.MeanResizeMS, a.Cell.P99MS, a.Cell.SLOViolated))
	}
	return b.String()
}

// figMixed runs the sweep.
func figMixed(o Options) (Result, error) {
	mixes, fractions := []string{mixWeb, mixWebBatch}, []float64{0, 0.125, 0.25, 0.3125, 0.375, 0.4375, 0.5, 0.5625, 0.625}
	base := mixedCell{RPSPerReplica: 500, Replicas: 2, WarmupTicks: 40, MeasureTicks: 240, SLOP99MS: 50, Seed: 42}
	if o.Quick {
		mixes, fractions = []string{mixWeb}, []float64{0, 0.25, 0.375, 0.4375}
		base.WarmupTicks, base.MeasureTicks = 20, 80
	}
	const aggressive = 0.9375
	res := mixedResult{SLOP99MS: base.SLOP99MS}
	for _, f := range fractions {
		res.DeflationPct = append(res.DeflationPct, f*100)
	}

	fleets := []string{fleetVM, fleetContainer, fleetMixed}
	var cells []sweep.Cell[mixedCellResult]
	for _, mix := range mixes {
		for _, fleet := range fleets {
			for _, f := range fractions {
				c := base
				c.Mix, c.Fleet, c.DeflateFrac = mix, fleet, f
				cells = append(cells, mixedSweepCell(c))
			}
		}
	}
	// The aggressive panel: one blind-resize cell per fleet on the web mix.
	for _, fleet := range fleets {
		c := base
		c.Mix, c.Fleet, c.DeflateFrac, c.Aggressive = mixWeb, fleet, aggressive, true
		cells = append(cells, mixedSweepCell(c))
	}

	vals, err := runCells(o, "fig-mixed", cells)
	if err != nil {
		return nil, err
	}

	nf := len(fractions)
	i := 0
	for _, mix := range mixes {
		p := mixedPanel{
			Mix:             mix,
			VM:              series{Name: "vm p99"},
			Container:       series{Name: "ctr p99"},
			Mixed:           series{Name: "mix p99"},
			VMCores:         series{Name: "vm cores"},
			ContainerCores:  series{Name: "ctr cores"},
			MixedCores:      series{Name: "mix cores"},
			VMResize:        series{Name: "vm rsz ms"},
			ContainerResize: series{Name: "ctr rsz ms"},
		}
		p.vm = vals[i : i+nf]
		p.container = vals[i+nf : i+2*nf]
		p.mixed = vals[i+2*nf : i+3*nf]
		i += 3 * nf
		for k := 0; k < nf; k++ {
			p.VM.Values = append(p.VM.Values, p.vm[k].P99MS)
			p.Container.Values = append(p.Container.Values, p.container[k].P99MS)
			p.Mixed.Values = append(p.Mixed.Values, p.mixed[k].P99MS)
			p.VMCores.Values = append(p.VMCores.Values, p.vm[k].ReclaimedCores)
			p.ContainerCores.Values = append(p.ContainerCores.Values, p.container[k].ReclaimedCores)
			p.MixedCores.Values = append(p.MixedCores.Values, p.mixed[k].ReclaimedCores)
			p.VMResize.Values = append(p.VMResize.Values, p.vm[k].MeanResizeMS)
			p.ContainerResize.Values = append(p.ContainerResize.Values, p.container[k].MeanResizeMS)
		}
		p.VMFrontierPct = frontierPct(res.DeflationPct, func(i int) bool { return p.vm[i].SLOViolated })
		p.ContainerFrontierPct = frontierPct(res.DeflationPct, func(i int) bool { return p.container[i].SLOViolated })
		p.MixedFrontierPct = frontierPct(res.DeflationPct, func(i int) bool { return p.mixed[i].SLOViolated })
		res.Panels = append(res.Panels, p)
	}
	for k, fleet := range fleets {
		res.Aggressive = append(res.Aggressive, mixedAggressive{
			Fleet:        fleet,
			DeflationPct: aggressive * 100,
			Cell:         vals[i+k],
		})
	}
	return res, nil
}

// Package curveapp provides a generic deflatable application driven by a
// calibrated utility curve — the workhorse for cluster-scale experiments
// (Fig. 8), where hundreds of VMs run workloads whose individual deflation
// behaviour is already captured by the Figure-1 curves.
package curveapp

import (
	"time"

	"deflation/internal/hypervisor"
	"deflation/internal/perfmodel"
	"deflation/internal/restypes"
)

// Config describes a curve-driven application.
type Config struct {
	Name string
	// Curve maps allocation fraction to normalized performance. Defaults
	// to the SpecJBB curve.
	Curve *perfmodel.UtilityCurve
	// Size is the VM's nominal allocation, used to normalize fractions.
	Size restypes.Vector
	// RSSFraction and CacheFraction set the memory footprint as fractions
	// of nominal memory (defaults 0.5 and 0.2).
	RSSFraction, CacheFraction float64
	// Elastic lets the app relinquish memory (shrink its RSS) down to
	// MinRSSFraction of nominal memory (default 0.25) when asked.
	Elastic        bool
	MinRSSFraction float64
}

// swapPenaltyRatio inflates slowdown per unit of hot-swapped RSS fraction.
const swapPenaltyRatio float64 = 5

func (c Config) withDefaults() Config {
	if c.Curve == nil {
		c.Curve = perfmodel.CurveSpecJBB
	}
	if c.RSSFraction == 0 {
		c.RSSFraction = 0.5
	}
	if c.CacheFraction == 0 {
		c.CacheFraction = 0.2
	}
	if c.MinRSSFraction == 0 {
		c.MinRSSFraction = 0.25
	}
	return c
}

// App implements vm.Application from a Config.
type App struct {
	cfg     Config
	rssMB   float64
	availMB float64 // believed memory availability inside the VM
}

// New builds a curve-driven application sized for cfg.Size.
func New(cfg Config) *App {
	cfg = cfg.withDefaults()
	return &App{cfg: cfg, rssMB: cfg.RSSFraction * cfg.Size.MemoryMB, availMB: cfg.Size.MemoryMB}
}

// memHeadroomMB is the guest memory left free by the sizing policy.
const memHeadroomMB = 256 + 128

// Name implements vm.Application.
func (a *App) Name() string {
	if a.cfg.Name != "" {
		return a.cfg.Name
	}
	return "curveapp:" + a.cfg.Curve.Name()
}

// Footprint implements vm.Application.
func (a *App) Footprint() (float64, float64) {
	return a.rssMB, a.cfg.CacheFraction * a.cfg.Size.MemoryMB
}

// SelfDeflate implements vm.Application: elastic apps shrink their RSS to
// fit the post-deflation memory availability; inelastic ones ignore the
// request.
func (a *App) SelfDeflate(target restypes.Vector) (restypes.Vector, time.Duration) {
	if !a.cfg.Elastic || target.MemoryMB <= 0 {
		return restypes.Vector{}, 0
	}
	a.availMB -= target.MemoryMB
	if a.availMB < 0 {
		a.availMB = 0
	}
	newRSS := a.availMB - memHeadroomMB - a.cfg.CacheFraction*a.cfg.Size.MemoryMB
	if floor := a.cfg.MinRSSFraction * a.cfg.Size.MemoryMB; newRSS < floor {
		newRSS = floor
	}
	if want := a.cfg.RSSFraction * a.cfg.Size.MemoryMB; newRSS > want {
		newRSS = want
	}
	if newRSS >= a.rssMB {
		return restypes.Vector{}, 0
	}
	freed := a.rssMB - newRSS
	a.rssMB = newRSS
	if freed > target.MemoryMB {
		freed = target.MemoryMB
	}
	return restypes.Vector{MemoryMB: freed}, time.Duration(freed / 2048 * float64(time.Second))
}

// Reinflate implements vm.Application: grow back toward the configured RSS.
func (a *App) Reinflate(env hypervisor.Env) {
	if !a.cfg.Elastic {
		return
	}
	a.availMB = env.GuestMemMB
	want := a.cfg.RSSFraction * a.cfg.Size.MemoryMB
	avail := env.GuestMemMB - memHeadroomMB - a.cfg.CacheFraction*a.cfg.Size.MemoryMB
	a.rssMB = restypes.MinF(want, restypes.MaxF(a.rssMB, avail))
}

// Throughput implements vm.Application: the utility curve evaluated at the
// effective allocation fraction, with a swap penalty for hot pages taken by
// the host.
func (a *App) Throughput(env hypervisor.Env) float64 {
	if env.OOMKilled {
		return 0
	}
	frac := 1.0
	if a.cfg.Size.CPU > 0 {
		frac = restypes.MinF(frac, env.EffectiveCores/a.cfg.Size.CPU)
	}
	if a.cfg.Size.MemoryMB > 0 && env.EverTouchedMB > 0 {
		frac = restypes.MinF(frac, env.ResidentMB/env.EverTouchedMB)
	}
	if a.cfg.Size.DiskMBps > 0 {
		frac = restypes.MinF(frac, env.DiskMBps/a.cfg.Size.DiskMBps)
	}
	if a.cfg.Size.NetMBps > 0 {
		frac = restypes.MinF(frac, env.NetMBps/a.cfg.Size.NetMBps)
	}
	perf := a.cfg.Curve.At(frac)

	if env.SwappedMB > 0 && a.rssMB > 0 {
		coldPool := env.EverTouchedMB - a.rssMB - env.KernelMemMB
		if coldPool < 0 {
			coldPool = 0
		}
		hot := restypes.MaxF(0, env.SwappedMB-coldPool)
		if hot > a.rssMB {
			hot = a.rssMB
		}
		perf /= 1 + hot/a.rssMB*swapPenaltyRatio
	}
	return perf
}

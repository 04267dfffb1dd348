// Package cascade implements the paper's central mechanism: multi-level
// cascade deflation (§3.2, Fig. 3). A reclamation target flows from the
// application (voluntary self-deflation), to the guest OS (best-effort
// hot-unplug), to the hypervisor (overcommitment), with each lower level
// picking up whatever slack the level above left.
//
// The controller can run with any subset of levels enabled, which is how the
// paper's single-level baselines (hypervisor-only, OS-only) and its
// "VM-level" combination (OS+hypervisor, no application support) are
// expressed — and how the ablation benchmarks isolate each level's
// contribution.
package cascade

import (
	"errors"
	"fmt"
	"math"
	"time"

	"deflation/internal/guestos"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// Errors returned by Deflate and Reinflate.
var (
	ErrHighPriority      = errors.New("cascade: high-priority VMs are not deflatable")
	ErrExceedsDeflatable = errors.New("cascade: target exceeds the VM's deflatable resources")
	ErrPreempted         = errors.New("cascade: VM has been preempted")
)

// Levels selects which reclamation levels participate in a cascade.
type Levels struct {
	App        bool // application self-deflation (§3.2.1)
	OS         bool // guest hot-unplug (§3.2.2)
	Hypervisor bool // VM overcommitment (§3.2.3)
}

// AllLevels enables the full cascade: application, OS, and hypervisor.
func AllLevels() Levels { return Levels{App: true, OS: true, Hypervisor: true} }

// VMLevel is the paper's "VM-level deflation": OS + hypervisor, with no
// application participation (§4.1).
func VMLevel() Levels { return Levels{OS: true, Hypervisor: true} }

// HypervisorOnly reclaims exclusively via hypervisor overcommitment — the
// black-box baseline of Fig. 5a/5b.
func HypervisorOnly() Levels { return Levels{Hypervisor: true} }

// OSOnly reclaims exclusively via guest hot-unplug. With no hypervisor to
// fall through to, the unplug is forced to meet the target, which reproduces
// the OOM failures the paper reports for this mode at high memory deflation
// (Fig. 5a).
func OSOnly() Levels { return Levels{OS: true} }

// String renders the enabled levels, e.g. "app+os+hypervisor".
func (l Levels) String() string {
	s := ""
	add := func(name string, on bool) {
		if !on {
			return
		}
		if s != "" {
			s += "+"
		}
		s += name
	}
	add("app", l.App)
	add("os", l.OS)
	add("hypervisor", l.Hypervisor)
	if s == "" {
		return "none"
	}
	return s
}

// LevelReport describes what one level reclaimed and how long it took.
type LevelReport struct {
	Reclaimed restypes.Vector
	Latency   time.Duration
}

// Report summarizes one cascade deflation (or reinflation).
type Report struct {
	Target        restypes.Vector
	App, OS, Hyp  LevelReport
	NewAllocation restypes.Vector
	// Shortfall is the portion of the target no enabled level could
	// reclaim: the hypervisor level was disabled, a CPU floor applied, or
	// the substrate's resize floor withheld memory (a container's
	// memory.max is never written below its live RSS + runtime overhead —
	// the substrate would answer with an OOM kill, not a squeeze).
	Shortfall restypes.Vector
	// AppFailed and OSFailed report that the level failed and the cascade
	// degraded gracefully to the next level with the remaining target,
	// rather than aborting.
	AppFailed bool
	OSFailed  bool
	// SLOWithheld is the portion of the requested target an installed
	// SLOPolicy refused to reclaim from a latency-sensitive VM (zero for
	// batch VMs and when no policy is set). The caller's reclamation
	// budget must route this remainder elsewhere — deeper deflation of
	// batch VMs, or migration.
	SLOWithheld restypes.Vector
	// TotalLatency is the end-to-end reclamation latency; the levels run
	// sequentially per Fig. 3.
	TotalLatency time.Duration
}

// LevelFault is an injected failure for one cascade level, supplied by a
// FaultHook (chaos testing; see internal/faults).
type LevelFault struct {
	// Fail makes the level reclaim nothing (agent crash) — or, with
	// Fraction > 0, only that fraction of its target (partial hot-unplug).
	Fail bool
	// Fraction is the fraction of the level's target that still succeeds
	// when Fail is set (0 = total failure). Only meaningful for the OS
	// level.
	Fraction float64
	// Hang is extra latency the level consumes before responding or
	// failing.
	Hang time.Duration
}

// FaultHook supplies injected faults per level ("app" or "os"); nil (the
// default) injects nothing. The hypervisor level is the backstop and never
// fails short of whole-node crash-stop, which the cluster layer models.
type FaultHook func(level string) LevelFault

// SLOPolicy clamps deflation targets for latency-sensitive VMs before the
// cascade runs: ClampTarget returns the portion of target that can be
// reclaimed from v without violating the VM's service-level latency
// objective. Batch VMs (anything the policy does not recognize) must be
// returned unchanged, so they keep the existing utility-curve cascade.
// internal/interactive provides the p99-headroom implementation
// (Fuerst & Shenoy-style deflation for interactive applications).
type SLOPolicy interface {
	ClampTarget(v *vm.VM, target restypes.Vector) restypes.Vector
}

// Controller orchestrates cascade deflation for individual VMs. This is the
// per-server "local deflation controller" logic of §5 at single-VM
// granularity; internal/cluster runs one per server.
type Controller struct {
	levels Levels
	faults FaultHook            // nil = no injection
	slo    SLOPolicy            // nil = every VM keeps the utility-curve cascade
	tel    *controllerTelemetry // nil = no instrumentation
}

// New returns a controller with the given levels enabled.
func New(levels Levels) *Controller { return &Controller{levels: levels} }

// Levels returns the controller's enabled levels.
func (c *Controller) Levels() Levels { return c.levels }

// SetSLOPolicy installs a latency-SLO clamp consulted once per deflation,
// before any level runs. Latency-sensitive VMs registered with the policy
// are deflated only down to their measured headroom (the withheld portion
// is reported in Report.SLOWithheld); unregistered VMs are unaffected.
// Nil (the default) disables clamping entirely.
func (c *Controller) SetSLOPolicy(p SLOPolicy) { c.slo = p }

// SetFaultHook installs a fault injector consulted once per level per
// deflation. Failures degrade gracefully: a failed level is skipped (its
// hang, if any, still charged as latency) and the remaining target falls
// through to the next level.
func (c *Controller) SetFaultHook(h FaultHook) { c.faults = h }

func (c *Controller) fault(level string) LevelFault {
	if c.faults == nil {
		return LevelFault{}
	}
	return c.faults(level)
}

// Deflate reclaims target resources from v using the enabled levels, per
// the Fig. 3 control flow, and fills r, which the caller owns, with what
// each level did (also when it returns an error). The target must fit
// within v.Deflatable(); the caller (the cluster manager's proportional
// policy) is responsible for choosing feasible targets and for preempting
// VMs that cannot meet them.
func (c *Controller) Deflate(v *vm.VM, target restypes.Vector, r *Report) error {
	err := c.deflate(v, target, r)
	if c.tel != nil {
		c.tel.record("deflate", c.levels, v.Name(), r, err)
	}
	return err
}

func (c *Controller) deflate(v *vm.VM, target restypes.Vector, r *Report) error {
	*r = Report{Target: target}
	if v.Preempted() {
		return ErrPreempted
	}
	if v.Priority() == vm.HighPriority {
		return ErrHighPriority
	}
	target = target.ClampNonNegative()
	if d := v.Deflatable(); !target.Fits(d) {
		return fmt.Errorf("%w: target %v, deflatable %v", ErrExceedsDeflatable, target, d)
	}
	if target.IsZero() {
		r.NewAllocation = v.Allocation()
		return nil
	}

	// SLO clamp: a latency-sensitive VM is deflated only down to its
	// measured p99 headroom; the withheld remainder is the caller's to
	// re-route. Runs before any level so the whole cascade sees one
	// consistent, feasible target.
	if c.slo != nil {
		allowed := c.slo.ClampTarget(v, target).ClampNonNegative().Min(target)
		r.SLOWithheld = target.Sub(allowed).ClampNonNegative()
		target = allowed
		if target.IsZero() {
			r.NewAllocation = v.Allocation()
			return nil
		}
	}

	// Level 1: application self-deflation (best-effort, may return zero).
	// A crashed agent reclaims nothing; the full target falls through to
	// the OS level.
	if c.levels.App {
		if f := c.fault("app"); f.Fail {
			r.AppFailed = true
			r.App = LevelReport{Latency: f.Hang}
		} else {
			rel, lat := v.App().SelfDeflate(target)
			v.SyncFootprint()
			r.App = LevelReport{Reclaimed: rel.ClampNonNegative(), Latency: lat + f.Hang}
		}
	}

	// Level 2: guest OS hot-unplug. Per Fig. 3 the unplug target is
	// bounded by the overall target; resources the app just freed are now
	// part of the guest's safely-unpluggable pool, so unplugging them
	// returns them to the hypervisor without swap cost. Only guest-backed
	// instances have this level at all: a container has no guest kernel,
	// no vCPUs and no memory to unplug, so the whole target falls through
	// to the substrate resize.
	if g := v.Guest(); c.levels.OS && g != nil {
		osTarget := target
		// Injected partial hot-unplug failure: only a fraction of the
		// requested unplug completes; the rest falls through to the
		// hypervisor backstop (or becomes shortfall in OS-only mode).
		if f := c.fault("os"); f.Fail {
			r.OSFailed = true
			osTarget = osTarget.Scale(f.Fraction)
			r.OS.Latency += f.Hang
		}
		if !osTarget.IsZero() {
			rep := c.osReclaim(g, v, osTarget, !c.levels.Hypervisor)
			rep.Latency += r.OS.Latency // injected hang, if any
			r.OS = rep
		}
	}

	// Level 3: substrate overcommitment reclaims the full remaining
	// physical target. Resources already unplugged are released for free;
	// the rest is taken black-box (swap, CPU multiplexing, throttling on a
	// hypervisor; a single cgroup write on a container). The substrate's
	// reported resize floor is honored here as a last line of defense: a
	// memory limit the substrate would answer with an OOM kill is never
	// written, and the withheld portion becomes shortfall for the caller
	// to re-route. (Planners already cap targets via vm.Deflatable, so
	// this triggers only when the footprint grew mid-cascade.)
	if c.levels.Hypervisor {
		alloc := v.Allocation()
		newAlloc := alloc.Sub(target)
		var floorWithheld restypes.Vector
		if floor := v.Instance().ResizeFloorMB(); floor > 0 && newAlloc.MemoryMB < floor {
			clamped := math.Min(floor, alloc.MemoryMB)
			floorWithheld.MemoryMB = clamped - newAlloc.MemoryMB
			newAlloc.MemoryMB = clamped
		}
		lat, err := v.SetAllocation(newAlloc)
		if err != nil {
			return fmt.Errorf("cascade: hypervisor reclaim: %w", err)
		}
		r.Shortfall = r.Shortfall.Add(floorWithheld)
		r.Hyp = LevelReport{
			Reclaimed: target.Sub(r.OS.Reclaimed).Sub(floorWithheld).ClampNonNegative(),
			Latency:   lat,
		}
	} else {
		// Without the hypervisor level, only what the OS physically
		// unplugged can be released.
		if !r.OS.Reclaimed.IsZero() {
			newAlloc := v.Allocation().Sub(r.OS.Reclaimed)
			if _, err := v.SetAllocation(newAlloc); err != nil {
				return fmt.Errorf("cascade: releasing unplugged resources: %w", err)
			}
		}
		r.Shortfall = target.Sub(r.OS.Reclaimed).ClampNonNegative()
	}

	r.NewAllocation = v.Allocation()
	r.TotalLatency = r.App.Latency + r.OS.Latency + r.Hyp.Latency
	v.ObserveEnv()
	return nil
}

// osReclaim performs guest-level hot-unplug toward target. When force is
// set (OS-only mode, no hypervisor fall-through), memory unplug ignores the
// safety margin to meet the target — which can OOM-kill the application,
// exactly the failure mode the paper measures for this configuration.
// Whole-vCPU quantization lives here — and only here: it is a property of
// the guest hotplug mechanism, not of deflation, and must never apply to
// substrates with fractional CPU shares.
func (c *Controller) osReclaim(g *guestos.GuestOS, v *vm.VM, target restypes.Vector, force bool) LevelReport {
	var rep LevelReport

	// CPU: whole-vCPU granularity — "the final amount of resources
	// unplugged can be at most ⌊unplug_target⌋" (§3.2.2).
	if target.CPU > 0 {
		n, lat := g.UnplugCPUs(int(math.Floor(target.CPU)))
		rep.Reclaimed.CPU = float64(n)
		rep.Latency += lat
	}

	// Memory: best-effort unless forced.
	if target.MemoryMB > 0 {
		var freed float64
		var lat time.Duration
		if force {
			freed, lat = g.ForceUnplugMemory(target.MemoryMB)
		} else {
			freed, lat = g.UnplugMemory(target.MemoryMB)
		}
		rep.Reclaimed.MemoryMB = freed
		rep.Latency += lat
	}

	// Disk and network are never hot-unplugged — "we don't hot unplug NICs
	// and disks because it is generally unsafe" (§3.2.2). They fall through
	// to hypervisor throttling.
	return rep
}

// Reinflate returns amount resources to v, running the cascade in reverse
// (§5): first the hypervisor raises the physical allocation, then the guest
// re-plugs CPUs and memory, and finally the application's deflation agent is
// told about the new availability. It fills r as Deflate does.
func (c *Controller) Reinflate(v *vm.VM, amount restypes.Vector, r *Report) error {
	err := c.reinflate(v, amount, r)
	if c.tel != nil {
		c.tel.record("reinflate", c.levels, v.Name(), r, err)
	}
	return err
}

func (c *Controller) reinflate(v *vm.VM, amount restypes.Vector, r *Report) error {
	*r = Report{Target: amount}
	if v.Preempted() {
		return ErrPreempted
	}
	amount = amount.ClampNonNegative()

	// Only the hypervisor level moves the allocation; every later read
	// sees the value it left.
	alloc := v.Allocation()
	if c.levels.Hypervisor {
		newAlloc := alloc.Add(amount).Min(v.Size())
		lat, err := v.SetAllocation(newAlloc)
		if err != nil {
			return fmt.Errorf("cascade: hypervisor reinflate: %w", err)
		}
		alloc = v.Allocation()
		r.Hyp = LevelReport{Reclaimed: newAlloc.Sub(alloc), Latency: lat}
	}

	// Guest-backed instances re-plug CPUs and memory; containers have
	// nothing to re-plug — the cgroup write above already restored them.
	if g := v.Guest(); c.levels.OS && g != nil {
		var rep LevelReport
		// Re-plug up to the physical CPU allocation (whole cores).
		if wantCPU := int(math.Floor(alloc.CPU)) - g.CPUs(); wantCPU > 0 {
			n, lat := g.PlugCPUs(wantCPU)
			rep.Reclaimed.CPU = float64(n)
			rep.Latency += lat
		}
		// Re-plug hot-unplugged memory up to the physical allocation.
		if wantMem := alloc.MemoryMB - g.MemoryMB(); wantMem > 0 {
			mb, lat := g.PlugMemory(wantMem)
			rep.Reclaimed.MemoryMB += mb
			rep.Latency += lat
		}
		r.OS = rep
	}

	if c.levels.App {
		v.App().Reinflate(v.Env())
		v.SyncFootprint()
	}

	r.NewAllocation = alloc
	r.TotalLatency = r.App.Latency + r.OS.Latency + r.Hyp.Latency
	v.ObserveEnv()
	return nil
}

package interactive

import (
	"math"

	"deflation/internal/apps/webapp"
	"deflation/internal/hypervisor"
	"deflation/internal/perfmodel"
	"deflation/internal/restypes"
	"deflation/internal/substrate"
	"deflation/internal/vm"
)

// SLOGuard is the Fuerst-style SLO-targeting deflation policy: latency-
// sensitive VMs are deflated only down to their measured p99 headroom,
// while unregistered (batch) VMs pass through untouched and keep the
// existing utility-curve cascade. It implements cascade.SLOPolicy.
//
// The guard inverts the service's processor-sharing latency model: given a
// replica's measured offered load λ, the minimum capacity that keeps
// predicted p99 within Headroom×SLO is μ_need = RequiredCapacityRPS(...);
// the thread-pool model then converts μ_need back into cores, and CPU
// deflation is clamped so at least that many cores remain. Memory
// deflation is clamped so the post-shrink resident set (RSS + thread
// stacks + kernel reserve) stays host-resident — swap on an interactive
// path destroys tail latency long before it shows up in the mean.
type SLOGuard struct {
	svc *Service

	// Headroom scales the SLO the guard plans for (default 0.85): p99 is
	// targeted at Headroom×SLO so profile swings and estimation error
	// burn margin before they burn the SLO.
	Headroom float64

	// MemSlackFraction pads the protected resident set (default 0.10).
	MemSlackFraction float64

	replicas map[string]int
}

// NewSLOGuard builds a guard for svc's replicas. VMs are opted in by
// Register; everything else is left to the utility-curve cascade.
func NewSLOGuard(svc *Service) *SLOGuard {
	return &SLOGuard{
		svc:              svc,
		Headroom:         0.85,
		MemSlackFraction: 0.10,
		replicas:         make(map[string]int),
	}
}

// Register marks the named VM as replica i of the guarded service.
func (g *SLOGuard) Register(vmName string, replica int) { g.replicas[vmName] = replica }

// planRPS returns the offered load the guard budgets replica i for: the
// measured admitted rate of the last tick, floored by the service's
// long-run per-replica share so a quiet instant cannot justify deflating
// below what steady load needs.
func (g *SLOGuard) planRPS(i int) float64 {
	measured := g.svc.OfferedRPS(i)
	steady := g.svc.cfg.Arrivals.BaseRPS / float64(len(g.svc.apps))
	if measured > steady {
		return measured
	}
	return steady
}

// effectiveCoresAfter predicts the envelope's effective cores once the
// cascade reclaims x CPU from a VM currently allocated allocCPU: whole
// vCPUs hot-unplug (⌊x⌋), the hypervisor takes the fractional remainder
// black-box, and vCPUs multiplexed onto fewer physical cores pay the
// lock-holder-preemption penalty. Container replicas have neither
// mechanism: a cgroup CPU quota is fractional and runs on the host
// scheduler, so the post-cascade envelope is exactly the remaining quota —
// the planner must not project VM quantization onto them or it would plan
// too shallow (wasting reclamation) or model phantom LHP cliffs.
func effectiveCoresAfter(env hypervisor.Env, allocCPU, x float64) float64 {
	if env.Kind == substrate.KindContainer {
		phys := allocCPU - x
		if phys <= 0 {
			return 0
		}
		return phys
	}
	unplug := int(math.Floor(x))
	if max := env.VCPUs - 1; unplug > max {
		unplug = max
	}
	if unplug < 0 {
		unplug = 0
	}
	vcpus := float64(env.VCPUs - unplug)
	phys := allocCPU - x
	if phys > vcpus {
		phys = vcpus
	}
	if phys <= 0 {
		return 0
	}
	if vcpus > phys {
		return phys * perfmodel.LockHolderPenalty(vcpus/phys)
	}
	return phys
}

// cpuPlanGrain is the planner's CPU resolution. Erring a grain shallow is
// safe; erring deep is an SLO violation, so the scan accepts the deepest
// grid point whose predicted capacity still clears the requirement.
const cpuPlanGrain = 1.0 / 64

// maxReclaimableCPU returns the deepest CPU reclamation x ≤ want that
// keeps the replica's predicted post-cascade capacity at or above needRPS.
// Capacity is not monotone in x — each whole-vCPU unplug removes a slice
// of lock-holder penalty — so the planner scans rather than bisects.
func maxReclaimableCPU(app *webapp.App, env hypervisor.Env, allocCPU, want, needRPS float64) float64 {
	if want <= 0 {
		return 0
	}
	ok := func(x float64) bool {
		return app.PlannedCapacityRPS(x, effectiveCoresAfter(env, allocCPU, x)) >= needRPS
	}
	if ok(want) {
		return want
	}
	for k := int(math.Floor(want / cpuPlanGrain)); k > 0; k-- {
		if x := float64(k) * cpuPlanGrain; x < want && ok(x) {
			return x
		}
	}
	return 0
}

// ClampTarget implements cascade.SLOPolicy: the portion of target that can
// be reclaimed from v without the service's predicted p99 crossing
// Headroom×SLO. Unregistered VMs get the full target back.
func (g *SLOGuard) ClampTarget(v *vm.VM, target restypes.Vector) restypes.Vector {
	i, ok := g.replicas[v.Name()]
	if !ok {
		return target
	}
	alloc := v.Allocation()
	out := target.ClampNonNegative()

	// CPU: keep enough post-cascade capacity for the measured load. The
	// planner predicts the envelope each candidate reclamation leaves
	// behind (vCPU unplug quantization, multiplexing penalty, pool shrink)
	// and admits the deepest one whose capacity still meets the SLO.
	needRPS := RequiredCapacityRPS(webapp.BaseLatencyMS, g.planRPS(i), g.Headroom*g.svc.ps.SLOMS())
	if math.IsInf(needRPS, 1) || i >= len(g.svc.apps) {
		out.CPU = 0 // no CPU headroom at all
	} else {
		out.CPU = maxReclaimableCPU(g.svc.apps[i], v.Env(), alloc.CPU, out.CPU, needRPS)
	}

	// Memory: protect the post-shrink resident set. Thread stacks are
	// sized for the pool the remaining cores sustain.
	remainingCores := alloc.CPU - out.CPU
	threadsAfter := webapp.ThreadsPerCore * remainingCores
	if max := float64(webapp.BootThreads); threadsAfter > max {
		threadsAfter = max
	}
	residentMB := (webapp.RSSMB + 2*threadsAfter + v.Env().KernelMemMB) * (1 + g.MemSlackFraction)
	if residentMB >= alloc.MemoryMB {
		out.MemoryMB = 0
	} else if maxMem := alloc.MemoryMB - residentMB; out.MemoryMB > maxMem {
		out.MemoryMB = maxMem
	}
	return out
}

var _ interface {
	ClampTarget(v *vm.VM, target restypes.Vector) restypes.Vector
} = (*SLOGuard)(nil)

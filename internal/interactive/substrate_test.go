package interactive

import (
	"fmt"
	"testing"

	"deflation/internal/apps/webapp"
	"deflation/internal/guestos"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/substrate"
	"deflation/internal/vm"
)

// Satellite regression: whole-vCPU quantization and lock-holder preemption
// are hypervisor-substrate artifacts. On a container env the post-cascade
// envelope is exactly the remaining fractional quota.
func TestEffectiveCoresContainerIsFractional(t *testing.T) {
	ctr := substrate.Env{Kind: substrate.KindContainer, VCPUs: 4, PhysCores: 4, EffectiveCores: 4}
	hyp := substrate.Env{VCPUs: 4, PhysCores: 4, EffectiveCores: 4} // zero Kind = hypervisor

	for _, x := range []float64{0.25, 0.5, 1.5, 2.75, 3.5} {
		if got, want := effectiveCoresAfter(ctr, 4, x), 4-x; got != want {
			t.Errorf("container cores after reclaiming %g = %g, want exactly %g", x, got, want)
		}
	}
	// The same fractional reclamation on a VM pays quantization + LHP:
	// 1.5 cores reclaimed unplugs ⌊1.5⌋ = 1 vCPU, leaving 3 vCPUs
	// multiplexed on 2.5 physical cores.
	if got := effectiveCoresAfter(hyp, 4, 1.5); got >= 2.5 {
		t.Errorf("hypervisor cores after 1.5 = %g, want < 2.5 (LHP penalty)", got)
	}
	// Reclaiming everything lands on zero either way.
	if got := effectiveCoresAfter(ctr, 4, 4); got != 0 {
		t.Errorf("container cores after full reclaim = %g", got)
	}
}

// A container-backed interactive fleet under light load: the guard must
// permit fractional CPU deflation (no whole-vCPU rounding) and the clamp's
// memory floor must respect the substrate's RSS-based resize floor through
// vm.Deflatable.
func TestGuardContainerReplicaFractionalDeflation(t *testing.T) {
	host, err := simcg.NewHost(simcg.Config{
		Name:     "slo-cg",
		Capacity: restypes.V(64, 262144, 6400, 20000),
	})
	if err != nil {
		t.Fatal(err)
	}
	size := restypes.V(4, 16384, 400, 1250)
	const replicas = 4
	apps := make([]*webapp.App, replicas)
	vms := make([]*vm.VM, replicas)
	for i := range apps {
		a := webapp.NewApp(webapp.Config{DeflationAware: true})
		inst, err := host.Spawn(fmt.Sprintf("web-%d", i), size, guestos.Config{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := vm.NewOn(inst, a, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		apps[i], vms[i] = a, v
	}
	svc, err := NewServiceWith(ServiceConfig{
		Arrivals: ArrivalConfig{Seed: 5, BaseRPS: 40}, // light load on 4 replicas
		SLOP99MS: 50,
	}, apps)
	if err != nil {
		t.Fatal(err)
	}
	guard := NewSLOGuard(svc)
	for i, v := range vms {
		guard.Register(v.Name(), i)
	}
	for i := 0; i < 50; i++ {
		if err := svc.Step(envsOf(vms)); err != nil {
			t.Fatal(err)
		}
	}

	// Ask for a deliberately fractional CPU reclamation: the allowed target
	// must keep a fractional grain, not round down to whole vCPUs.
	target := restypes.Vector{CPU: 1.25}
	allowed := guard.ClampTarget(vms[0], target)
	if allowed.CPU <= 0 {
		t.Fatalf("light-load clamp allowed no CPU: %v", allowed)
	}
	if allowed.CPU != target.CPU {
		t.Errorf("allowed CPU = %g, want the full fractional %g under light load", allowed.CPU, target.CPU)
	}
	// Applying it leaves a fractional quota — and exactly that many
	// effective cores (no LHP on containers).
	if _, err := vms[0].Instance().SetAllocation(size.Sub(allowed)); err != nil {
		t.Fatal(err)
	}
	env := vms[0].Env()
	if env.EffectiveCores != size.CPU-allowed.CPU {
		t.Errorf("effective cores = %g, want %g", env.EffectiveCores, size.CPU-allowed.CPU)
	}

	// The guard's memory clamp must never exceed what the substrate floor
	// allows: the deflatable memory already excludes RSS + overhead.
	deepMem := restypes.Vector{MemoryMB: size.MemoryMB}
	allowedMem := guard.ClampTarget(vms[1], deepMem)
	if maxSafe := vms[1].Deflatable().MemoryMB; allowedMem.MemoryMB > maxSafe {
		t.Errorf("clamp allowed %g MB, above the %g MB substrate floor allows", allowedMem.MemoryMB, maxSafe)
	}
}

package cascade

import (
	"testing"

	"deflation/internal/apps/curveapp"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// clampHalf is a test SLOPolicy: VMs named "guarded" may lose only half
// the requested CPU and no memory; everything else passes through.
type clampHalf struct{ calls int }

func (p *clampHalf) ClampTarget(v *vm.VM, target restypes.Vector) restypes.Vector {
	p.calls++
	if v.Name() != "guarded" {
		return target
	}
	out := target
	out.CPU /= 2
	out.MemoryMB = 0
	return out
}

func sloVM(t *testing.T, name string) *vm.VM {
	t.Helper()
	host, err := hypervisor.NewHost(hypervisor.Config{
		Name: "slo", Capacity: restypes.V(16, 65536, 1600, 5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	size := restypes.V(4, 16384, 400, 1250)
	dom, err := host.CreateDomain(name, size, guestos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dom.MarkWarm()
	app := curveapp.New(curveapp.Config{Name: "batch", Size: size, Elastic: true})
	v, err := vm.New(dom, app, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSLOPolicyClampsGuardedVM(t *testing.T) {
	p := &clampHalf{}
	c := New(AllLevels())
	c.SetSLOPolicy(p)
	v := sloVM(t, "guarded")
	var rep Report
	err := c.Deflate(v, restypes.V(2, 4096, 0, 0), &rep)
	if err != nil {
		t.Fatal(err)
	}
	if p.calls != 1 {
		t.Errorf("policy consulted %d times, want 1", p.calls)
	}
	if rep.SLOWithheld.CPU != 1 || rep.SLOWithheld.MemoryMB != 4096 {
		t.Errorf("withheld %v, want {1, 4096}", rep.SLOWithheld)
	}
	// Report.Target preserves the caller's request.
	if rep.Target.CPU != 2 {
		t.Errorf("target %v rewritten", rep.Target)
	}
	if got := v.Allocation().CPU; got != 3 {
		t.Errorf("allocation %g cores, want 3 (only 1 of 2 reclaimed)", got)
	}
	if got := v.Allocation().MemoryMB; got != 16384 {
		t.Errorf("memory %g, want untouched 16384", got)
	}
}

func TestSLOPolicyPassesBatchThrough(t *testing.T) {
	c := New(AllLevels())
	c.SetSLOPolicy(&clampHalf{})
	v := sloVM(t, "batch-1")
	var rep Report
	err := c.Deflate(v, restypes.V(2, 4096, 0, 0), &rep)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SLOWithheld.IsZero() {
		t.Errorf("batch VM withheld %v", rep.SLOWithheld)
	}
	if got := v.Allocation().CPU; got != 2 {
		t.Errorf("allocation %g cores, want full reclamation to 2", got)
	}
}

// fullClamp withholds everything.
type fullClamp struct{}

func (fullClamp) ClampTarget(v *vm.VM, target restypes.Vector) restypes.Vector {
	return restypes.Vector{}
}

func TestSLOPolicyFullClampIsNoOp(t *testing.T) {
	c := New(AllLevels())
	c.SetSLOPolicy(fullClamp{})
	v := sloVM(t, "guarded")
	before := v.Allocation()
	var rep Report
	err := c.Deflate(v, restypes.V(2, 4096, 0, 0), &rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLOWithheld != restypes.V(2, 4096, 0, 0).ClampNonNegative() {
		t.Errorf("withheld %v, want full target", rep.SLOWithheld)
	}
	if v.Allocation() != before {
		t.Errorf("allocation changed: %v → %v", before, v.Allocation())
	}
	if rep.TotalLatency != 0 {
		t.Errorf("latency %v for a fully withheld deflation", rep.TotalLatency)
	}
}

// overClamp tries to clamp *upward* (policy bug); the controller must cap
// at the requested target.
type overClamp struct{}

func (overClamp) ClampTarget(v *vm.VM, target restypes.Vector) restypes.Vector {
	return target.Scale(3)
}

func TestSLOPolicyCannotRaiseTarget(t *testing.T) {
	c := New(AllLevels())
	c.SetSLOPolicy(overClamp{})
	v := sloVM(t, "guarded")
	var rep Report
	err := c.Deflate(v, restypes.V(1, 0, 0, 0), &rep)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SLOWithheld.IsZero() {
		t.Errorf("withheld %v", rep.SLOWithheld)
	}
	if got := v.Allocation().CPU; got != 3 {
		t.Errorf("allocation %g, want 3 — target must not be amplified", got)
	}
}

func TestNoPolicyUnchanged(t *testing.T) {
	c := New(AllLevels())
	v := sloVM(t, "guarded")
	var rep Report
	err := c.Deflate(v, restypes.V(2, 0, 0, 0), &rep)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SLOWithheld.IsZero() {
		t.Errorf("withheld %v with no policy installed", rep.SLOWithheld)
	}
}

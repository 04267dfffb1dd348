package interactive

import (
	"fmt"
	"math"
	"testing"

	"deflation/internal/apps/webapp"
	"deflation/internal/cascade"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// guardedFleet builds a host with `replicas` webapp VMs attached to a
// Service and an SLOGuard registered for each, plus one batch VM the guard
// does not know.
func guardedFleet(t *testing.T, replicas int, rps float64) (*Service, *SLOGuard, []*vm.VM, *vm.VM) {
	t.Helper()
	host, err := hypervisor.NewHost(hypervisor.Config{
		Name:     "slo-host",
		Capacity: restypes.V(64, 262144, 6400, 20000),
	})
	if err != nil {
		t.Fatal(err)
	}
	size := restypes.V(4, 16384, 400, 1250)
	apps := make([]*webapp.App, replicas)
	vms := make([]*vm.VM, replicas)
	for i := range apps {
		a := webapp.NewApp(webapp.Config{DeflationAware: true})
		dom, err := host.CreateDomain(fmt.Sprintf("web-%d", i), size, guestos.Config{})
		if err != nil {
			t.Fatal(err)
		}
		dom.MarkWarm()
		v, err := vm.New(dom, a, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		apps[i], vms[i] = a, v
	}
	svc, err := NewServiceWith(ServiceConfig{
		Arrivals: ArrivalConfig{Seed: 5, BaseRPS: rps},
		SLOP99MS: 50,
	}, apps)
	if err != nil {
		t.Fatal(err)
	}
	guard := NewSLOGuard(svc)
	for i, v := range vms {
		guard.Register(v.Name(), i)
	}

	bdom, err := host.CreateDomain("batch-0", size, guestos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bdom.MarkWarm()
	batchApp := webapp.NewApp(webapp.Config{})
	batch, err := vm.New(bdom, batchApp, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return svc, guard, vms, batch
}

func envsOf(vms []*vm.VM) []hypervisor.Env {
	envs := make([]hypervisor.Env, len(vms))
	for i, v := range vms {
		envs[i] = v.Env()
	}
	return envs
}

// TestGuardClampsToHeadroom: under moderate load the guard permits some
// CPU deflation but never past the cores the measured load needs; the
// post-deflation predicted p99 stays under the planning SLO.
func TestGuardClampsToHeadroom(t *testing.T) {
	svc, guard, vms, _ := guardedFleet(t, 2, 1600) // 800 rps/replica on 1600 capacity
	for tick := 0; tick < 30; tick++ {
		if err := svc.Step(envsOf(vms)); err != nil {
			t.Fatal(err)
		}
	}
	ctrl := cascade.New(cascade.AllLevels())
	ctrl.SetSLOPolicy(guard)

	// Ask for a brutal 3.5-core reclamation; the guard must withhold some.
	var rep cascade.Report
	err := ctrl.Deflate(vms[0], restypes.V(3.5, 8192, 0, 0), &rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLOWithheld.CPU <= 0 {
		t.Fatalf("nothing withheld: %+v", rep.SLOWithheld)
	}
	remaining := vms[0].Allocation().CPU
	needRPS := RequiredCapacityRPS(4, svc.OfferedRPS(0), guard.Headroom*50)
	// The cores a deflation-aware server needs for needRPS with its pool
	// at ThreadsPerCore per core, each thread serving 25 requests/s: an
	// optimistic lower bound, since multiplexing loses some of the rest.
	needCores := needRPS / (webapp.ThreadsPerCore * 25)
	if remaining < needCores-1e-9 {
		t.Errorf("deflated below headroom: %g cores left, need %g", remaining, needCores)
	}
	// The service keeps meeting its SLO on the clamped fleet.
	for tick := 0; tick < 100; tick++ {
		if err := svc.Step(envsOf(vms)); err != nil {
			t.Fatal(err)
		}
	}
	if r := svc.Result(); r.SLOViolated {
		t.Errorf("SLO violated after guarded deflation: p99 %g ms", r.P99MS)
	}
}

// TestGuardPermitsDeflationUnderLightLoad: a lightly loaded replica has
// real headroom and the guard passes a modest target through unclamped.
func TestGuardPermitsDeflationUnderLightLoad(t *testing.T) {
	svc, guard, vms, _ := guardedFleet(t, 2, 400) // 200 rps/replica: ~12% utilization
	for tick := 0; tick < 30; tick++ {
		if err := svc.Step(envsOf(vms)); err != nil {
			t.Fatal(err)
		}
	}
	ctrl := cascade.New(cascade.AllLevels())
	ctrl.SetSLOPolicy(guard)
	var rep cascade.Report
	err := ctrl.Deflate(vms[0], restypes.V(1, 0, 0, 0), &rep)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SLOWithheld.IsZero() {
		t.Errorf("light-load deflation clamped: withheld %v", rep.SLOWithheld)
	}
	if got := vms[0].Allocation().CPU; got != 3 {
		t.Errorf("allocation %g cores, want 3", got)
	}
}

// TestGuardIgnoresBatchVMs: unregistered VMs keep the utility-curve
// cascade untouched.
func TestGuardIgnoresBatchVMs(t *testing.T) {
	svc, guard, vms, batch := guardedFleet(t, 2, 1600)
	_ = svc
	ctrl := cascade.New(cascade.AllLevels())
	ctrl.SetSLOPolicy(guard)
	target := restypes.V(3, 8192, 0, 0)
	var rep cascade.Report
	err := ctrl.Deflate(batch, target, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SLOWithheld.IsZero() {
		t.Errorf("batch VM clamped: %v", rep.SLOWithheld)
	}
	if got := batch.Allocation().CPU; got != 1 {
		t.Errorf("batch allocation %g cores, want full 3-core reclamation", got)
	}
	if _, ok := guard.replicas[batch.Name()]; ok {
		t.Error("batch VM registered")
	}
	_ = vms
}

// TestGuardMemoryFloor: memory deflation is clamped so the resident set
// stays host-resident.
func TestGuardMemoryFloor(t *testing.T) {
	svc, guard, vms, _ := guardedFleet(t, 2, 400)
	for tick := 0; tick < 10; tick++ {
		if err := svc.Step(envsOf(vms)); err != nil {
			t.Fatal(err)
		}
	}
	// Ask to reclaim nearly all memory; the guard must keep the working
	// set (1024 RSS + stacks + kernel, plus slack).
	clamped := guard.ClampTarget(vms[0], restypes.V(0, 16000, 0, 0))
	kept := vms[0].Allocation().MemoryMB - clamped.MemoryMB
	if kept < 1024 {
		t.Errorf("only %g MB protected", kept)
	}
	if clamped.MemoryMB >= 16000 {
		t.Error("memory target not clamped")
	}
	// An unachievable SLO zeroes CPU reclamation rather than going NaN.
	svc.ps.sloMS = 1 // below base p99
	out := guard.ClampTarget(vms[0], restypes.V(2, 0, 0, 0))
	if out.CPU != 0 || math.IsNaN(out.MemoryMB) {
		t.Errorf("unachievable SLO clamp: %v", out)
	}
}

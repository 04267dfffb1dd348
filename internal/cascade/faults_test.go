package cascade

import (
	"testing"

	"deflation/internal/apps/apptest"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// hookFor returns a FaultHook injecting the given faults per level.
func hookFor(m map[string]LevelFault) FaultHook {
	return func(level string) LevelFault { return m[level] }
}

func TestAppFailureFallsThrough(t *testing.T) {
	// The agent crashes; the cascade must still meet the full target via
	// the lower levels instead of aborting.
	app := apptest.NewElastic("crashy", 12000, 2000)
	v := newVM(t, app, vm.Config{})
	v.Domain().MarkWarm()
	c := New(AllLevels())
	c.SetFaultHook(hookFor(map[string]LevelFault{"app": {Fail: true}}))

	target := restypes.V(2, 8192, 0, 0)
	var r Report
	err := c.Deflate(v, target, &r)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AppFailed {
		t.Error("AppFailed not reported")
	}
	if !r.App.Reclaimed.IsZero() {
		t.Errorf("failed agent reclaimed %v", r.App.Reclaimed)
	}
	if len(app.Calls) != 0 {
		t.Errorf("agent invoked %d times despite crash", len(app.Calls))
	}
	if got := v.Allocation(); got != v.Size().Sub(target) {
		t.Errorf("allocation = %v, target missed after app failure", got)
	}
	if r.Shortfall != (restypes.Vector{}) {
		t.Errorf("shortfall %v with hypervisor backstop enabled", r.Shortfall)
	}
}

func TestPartialOSFailureFallsThroughToHypervisor(t *testing.T) {
	// Hot-unplug half-fails; the hypervisor must absorb the rest so the
	// physical target is still met.
	app := apptest.New("idle")
	app.RSSMB = 2000
	v := newVM(t, app, vm.Config{})
	v.Domain().MarkWarm()
	c := New(VMLevel())
	c.SetFaultHook(hookFor(map[string]LevelFault{"os": {Fail: true, Fraction: 0.5}}))

	target := restypes.V(0, 8192, 0, 0)
	var r Report
	err := c.Deflate(v, target, &r)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OSFailed {
		t.Error("OSFailed not reported")
	}
	if r.OS.Reclaimed.MemoryMB > 4096+1 {
		t.Errorf("partial unplug freed %g MB, want ≤ half the 8192 target", r.OS.Reclaimed.MemoryMB)
	}
	if got := v.Allocation(); got.MemoryMB != v.Size().MemoryMB-8192 {
		t.Errorf("allocation = %v, hypervisor did not absorb the failed unplug", got)
	}
	if v.Env().SwappedMB <= 0 {
		t.Error("no swap despite failed unplug (hypervisor level idle?)")
	}
}

func TestTotalOSFailureWithoutHypervisorIsShortfall(t *testing.T) {
	// OS-only mode with a total unplug failure cannot reclaim anything:
	// the report must say so rather than pretending success.
	app := apptest.New("idle")
	app.RSSMB = 2000
	v := newVM(t, app, vm.Config{})
	v.Domain().MarkWarm()
	c := New(OSOnly())
	c.SetFaultHook(hookFor(map[string]LevelFault{"os": {Fail: true, Fraction: 0}}))

	target := restypes.V(0, 4096, 0, 0)
	var r Report
	err := c.Deflate(v, target, &r)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OSFailed {
		t.Error("OSFailed not reported")
	}
	if r.Shortfall.MemoryMB != 4096 {
		t.Errorf("shortfall = %v, want the full 4096 target", r.Shortfall)
	}
	if got := v.Allocation(); got != v.Size() {
		t.Errorf("allocation changed to %v despite total failure", got)
	}
}

func TestNilFaultHookIsNoop(t *testing.T) {
	app := apptest.NewElastic("ok", 12000, 2000)
	v := newVM(t, app, vm.Config{})
	v.Domain().MarkWarm()
	c := New(AllLevels())
	var r Report
	err := c.Deflate(v, restypes.V(1, 2048, 0, 0), &r)
	if err != nil {
		t.Fatal(err)
	}
	if r.AppFailed || r.OSFailed {
		t.Errorf("faults reported with no hook: %+v", r)
	}
}

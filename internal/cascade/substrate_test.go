package cascade

import (
	"errors"
	"testing"
	"time"

	"deflation/internal/apps/apptest"
	"deflation/internal/guestos"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/vm"
)

func newContainerVM(t *testing.T, app vm.Application, cfg vm.Config) *vm.VM {
	t.Helper()
	h, err := simcg.NewHost(simcg.Config{Name: "cg", Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := h.Spawn("c0", size(), guestos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.NewOn(inst, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// A container has no guest kernel: the full cascade must silently skip the
// OS level (no balloon, no hot-unplug) and reclaim via one cgroup write.
func TestContainerCascadeSkipsOSLevel(t *testing.T) {
	v := newContainerVM(t, apptest.New("a"), vm.Config{})
	c := New(AllLevels())

	target := restypes.V(2, 8192, 0, 0)
	var rep Report
	err := c.Deflate(v, target, &rep)
	if err != nil {
		t.Fatalf("Deflate: %v", err)
	}
	if !rep.OS.Reclaimed.IsZero() || rep.OS.Latency != 0 {
		t.Errorf("OS level ran on a container: %+v", rep.OS)
	}
	if rep.Hyp.Reclaimed != target {
		t.Errorf("substrate level reclaimed %v, want %v", rep.Hyp.Reclaimed, target)
	}
	if rep.Hyp.Latency != 2*time.Millisecond {
		t.Errorf("substrate resize latency = %v, want the 2ms cgroup write", rep.Hyp.Latency)
	}
	if got := v.Allocation(); got != size().Sub(target) {
		t.Errorf("allocation = %v", got)
	}
	if v.Env().OOMKilled {
		t.Error("in-floor deflation OOM-killed the container")
	}

	if err := c.Reinflate(v, target, &Report{}); err != nil {
		t.Fatalf("Reinflate: %v", err)
	}
	if got := v.Allocation(); got != size() {
		t.Errorf("allocation after reinflate = %v", got)
	}
}

// Regression: the cascade must never write memory.max below the substrate's
// reported resize floor (live RSS + runtime overhead) — that is an OOM kill,
// not a reclamation. Deflatable caps the planner's target, and the level-3
// clamp catches RSS growth between planning and the resize.
func TestContainerCascadeHonorsResizeFloor(t *testing.T) {
	app := apptest.New("a")
	app.RSSMB = 12000
	v := newContainerVM(t, app, vm.Config{})
	c := New(AllLevels())

	// Planning: Deflatable's memory is capped at alloc − floor.
	floor := v.Instance().ResizeFloorMB()
	if want := 12064.0; floor != want {
		t.Fatalf("floor = %g, want %g", floor, want)
	}
	d := v.Deflatable()
	if want := size().MemoryMB - floor; d.MemoryMB != want {
		t.Fatalf("deflatable memory = %g, want %g", d.MemoryMB, want)
	}

	// A target beyond the floor-capped deflatable is refused outright.
	over := restypes.Vector{MemoryMB: d.MemoryMB + 1}
	if err := c.Deflate(v, over, &Report{}); !errors.Is(err, ErrExceedsDeflatable) {
		t.Fatalf("beyond-floor target err = %v", err)
	}

	// Deflating by the full deflatable amount lands exactly on the floor
	// and must not trip the OOM killer.
	var rep Report
	err := c.Deflate(v, restypes.Vector{MemoryMB: d.MemoryMB}, &rep)
	if err != nil {
		t.Fatalf("Deflate to floor: %v", err)
	}
	if got := v.Allocation().MemoryMB; got != floor {
		t.Errorf("memory.max = %g, want the %g floor", got, floor)
	}
	if v.Env().OOMKilled {
		t.Error("deflating to the reported floor OOM-killed the container")
	}
	if !rep.Shortfall.IsZero() {
		t.Errorf("shortfall = %v for an in-floor target", rep.Shortfall)
	}
}

// growingApp grows its resident set when asked to shrink — the worst case
// for the planning/resize race: the floor the planner saw is stale by the
// time the substrate resize runs.
type growingApp struct {
	*apptest.App
	growTo float64
}

func (a *growingApp) SelfDeflate(restypes.Vector) (restypes.Vector, time.Duration) {
	a.App.RSSMB = a.growTo
	return restypes.Vector{}, 0
}

// Regression for the planning/resize race: if the RSS grows mid-cascade
// (after the target was validated against Deflatable), the level-3 clamp
// withholds the unsafe portion (reported as Shortfall) instead of
// OOM-killing the workload.
func TestContainerCascadeClampsStaleTarget(t *testing.T) {
	app := &growingApp{App: apptest.New("a"), growTo: 9000}
	app.RSSMB = 4000
	v := newContainerVM(t, app, vm.Config{})
	c := New(AllLevels())

	// Fine at planning time (floor 4064); the app level grows RSS to 9000,
	// raising the floor to 9064 before the substrate resize runs.
	target := restypes.Vector{MemoryMB: 10000}
	var rep Report
	err := c.Deflate(v, target, &rep)
	if err != nil {
		t.Fatalf("Deflate: %v", err)
	}
	if got := v.Allocation().MemoryMB; got != 9064 {
		t.Errorf("memory.max = %g, want clamp to the grown 9064 floor", got)
	}
	if v.Env().OOMKilled {
		t.Error("stale target OOM-killed the container")
	}
	wantWithheld := 10000.0 - (size().MemoryMB - 9064)
	if got := rep.Shortfall.MemoryMB; got != wantWithheld {
		t.Errorf("shortfall = %g, want the %g the floor withheld", got, wantWithheld)
	}
	if got := rep.Hyp.Reclaimed.MemoryMB; got != size().MemoryMB-9064 {
		t.Errorf("reclaimed = %g", got)
	}
}

// The hypervisor substrate reports no resize floor: deep memory deflation
// keeps working there (swap absorbs it), bit-for-bit as before.
func TestHypervisorSubstrateHasNoFloor(t *testing.T) {
	v := newVM(t, apptest.New("a"), vm.Config{})
	if floor := v.Instance().ResizeFloorMB(); floor != 0 {
		t.Fatalf("hypervisor floor = %g, want 0", floor)
	}
	if d := v.Deflatable(); d != size() {
		t.Fatalf("deflatable = %v, want the full allocation", d)
	}
}

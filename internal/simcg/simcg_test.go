package simcg

import (
	"errors"
	"testing"
	"time"

	"deflation/internal/guestos"
	"deflation/internal/restypes"
	"deflation/internal/substrate"
)

func newHost(t *testing.T) *Host {
	t.Helper()
	h, err := NewHost(Config{Name: "cg0", Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	return h
}

func ctrSize() restypes.Vector { return restypes.V(4, 16384, 100, 100) }

func mustSpawn(t *testing.T, h *Host, name string) *Container {
	t.Helper()
	inst, err := h.Spawn(name, ctrSize(), guestos.Config{})
	if err != nil {
		t.Fatalf("Spawn(%s): %v", name, err)
	}
	return inst.(*Container)
}

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost(Config{Capacity: restypes.V(4, 0, 100, 100)}); err == nil {
		t.Error("zero-memory host accepted")
	}
}

func TestSpawnBookkeeping(t *testing.T) {
	h := newHost(t)
	if h.Kind() != substrate.KindContainer {
		t.Errorf("host kind = %q", h.Kind())
	}
	c := mustSpawn(t, h, "c0")
	if c.Kind() != substrate.KindContainer {
		t.Errorf("container kind = %q", c.Kind())
	}
	if c.Size() != ctrSize() || c.Allocation() != ctrSize() {
		t.Errorf("size/alloc = %v/%v", c.Size(), c.Allocation())
	}
	if got := h.FreePhysical(); got != restypes.V(12, 49152, 300, 300) {
		t.Errorf("free = %v", got)
	}
	if got := h.Allocated(); got != ctrSize() {
		t.Errorf("allocated = %v", got)
	}
	if _, err := h.Spawn("c0", ctrSize(), guestos.Config{}); !errors.Is(err, substrate.ErrInstanceExists) {
		t.Errorf("duplicate spawn err = %v", err)
	}
	if _, err := h.Spawn("c1", restypes.V(0, 1024, 10, 10), guestos.Config{}); err == nil {
		t.Error("zero-CPU container accepted")
	}
	if _, err := h.Spawn("huge", restypes.V(64, 1024, 10, 10), guestos.Config{}); !errors.Is(err, substrate.ErrInsufficientCapacity) {
		t.Errorf("oversized spawn err = %v", err)
	}
	if _, ok := h.pool.Get("c0"); !ok {
		t.Error("spawned container c0 missing")
	}
}

func TestInstancesSorted(t *testing.T) {
	h := newHost(t)
	mustSpawn(t, h, "c2")
	mustSpawn(t, h, "c0")
	mustSpawn(t, h, "c1")
	got := h.pool.Ordered()
	if len(got) != 3 {
		t.Fatalf("instances = %d", len(got))
	}
	for i, want := range []string{"c0", "c1", "c2"} {
		if got[i].Name() != want {
			t.Errorf("instances[%d] = %q, want %q", i, got[i].Name(), want)
		}
	}
}

func TestReserveUnreserve(t *testing.T) {
	h := newHost(t)
	if err := h.Reserve(restypes.V(8, 32768, 200, 200)); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if got := h.Capacity().Sub(h.FreePhysical()); got != restypes.V(8, 32768, 200, 200) {
		t.Errorf("reserved = %v", got)
	}
	// A spawn may not dip into the reservation.
	if _, err := h.Spawn("big", restypes.V(12, 16384, 100, 100), guestos.Config{}); !errors.Is(err, substrate.ErrInsufficientCapacity) {
		t.Errorf("spawn into reservation err = %v", err)
	}
	if err := h.Reserve(restypes.V(16, 0, 0, 0)); !errors.Is(err, substrate.ErrInsufficientCapacity) {
		t.Errorf("over-reserve err = %v", err)
	}
	h.Unreserve(restypes.V(8, 32768, 200, 200))
	if got := h.FreePhysical(); got != h.Capacity() {
		t.Errorf("free after unreserve = %v", got)
	}
}

func TestSetAllocationIsOneCgroupWrite(t *testing.T) {
	h := newHost(t)
	c := mustSpawn(t, h, "c0")
	lat, err := c.SetAllocation(restypes.V(1.5, 4096, 50, 50))
	if err != nil {
		t.Fatalf("SetAllocation: %v", err)
	}
	if lat != 2*time.Millisecond {
		t.Errorf("resize latency = %v, want the 2ms cgroup write", lat)
	}
	if got := c.Allocation(); got != restypes.V(1.5, 4096, 50, 50) {
		t.Errorf("alloc = %v", got)
	}
	// Reinflation past the nominal size clamps to it.
	if _, err := c.SetAllocation(restypes.V(8, 32768, 200, 200)); err != nil {
		t.Fatalf("reinflate: %v", err)
	}
	if got := c.Allocation(); got != ctrSize() {
		t.Errorf("alloc after over-reinflate = %v, want clamp to nominal", got)
	}
}

func TestSetAllocationGrowthNeedsFreeCapacity(t *testing.T) {
	h := newHost(t)
	c := mustSpawn(t, h, "c0")
	if _, err := c.SetAllocation(restypes.V(2, 8192, 50, 50)); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	// A hog claims everything the shrink freed (and then some): free is now
	// (1, 4096, 30, 30), less than the (2, 8192, 50, 50) regrowth needs.
	if _, err := h.Spawn("hog", restypes.V(13, 53248, 320, 320), guestos.Config{}); err != nil {
		t.Fatalf("hog: %v", err)
	}
	if _, err := c.SetAllocation(ctrSize()); !errors.Is(err, substrate.ErrInsufficientCapacity) {
		t.Errorf("regrow with no free capacity err = %v", err)
	}
}

func TestFractionalCPUNoQuantization(t *testing.T) {
	h := newHost(t)
	c := mustSpawn(t, h, "c0")
	if _, err := c.SetAllocation(restypes.V(2.5, 16384, 100, 100)); err != nil {
		t.Fatalf("SetAllocation: %v", err)
	}
	env := c.Env()
	if env.Kind != substrate.KindContainer {
		t.Errorf("env kind = %q", env.Kind)
	}
	if env.EffectiveCores != 2.5 || env.PhysCores != 2.5 {
		t.Errorf("effective/phys cores = %g/%g, want exactly the fractional quota", env.EffectiveCores, env.PhysCores)
	}
	if env.VCPUs != 3 {
		t.Errorf("VCPUs = %d, want ceil(2.5)", env.VCPUs)
	}
	if env.SwappedMB != 0 || env.LocalityFactor != 1 {
		t.Errorf("swapped/locality = %g/%g: containers never swap behind the app", env.SwappedMB, env.LocalityFactor)
	}
}

func TestResizeFloorTracksRSS(t *testing.T) {
	h := newHost(t)
	c := mustSpawn(t, h, "c0")
	if got := c.ResizeFloorMB(); got != 64 {
		t.Errorf("empty-container floor = %g, want the 64 MB runtime overhead", got)
	}
	c.SetAppFootprint(8000, 0)
	if got := c.ResizeFloorMB(); got != 8064 {
		t.Errorf("floor = %g, want rss+overhead", got)
	}
	if c.OOMKilled() {
		t.Error("OOM killer fired with RSS under memory.max")
	}
}

func TestUndershootingFloorOOMKills(t *testing.T) {
	h := newHost(t)
	c := mustSpawn(t, h, "c0")
	c.SetAppFootprint(8000, 0)
	// The mechanism performs the harmful resize — no refusal, no swap.
	if _, err := c.SetAllocation(restypes.V(4, 4096, 100, 100)); err != nil {
		t.Fatalf("undershooting resize refused: %v", err)
	}
	if !c.OOMKilled() {
		t.Error("memory.max below RSS+overhead did not OOM-kill")
	}
	if !c.Env().OOMKilled {
		t.Error("Env does not report the OOM kill")
	}
}

func TestRSSGrowthPastLimitOOMKills(t *testing.T) {
	h := newHost(t)
	c := mustSpawn(t, h, "c0")
	c.SetAppFootprint(16384, 0) // 16384 + 64 overhead > 16384 memory.max
	if !c.OOMKilled() {
		t.Error("RSS growth past memory.max did not OOM-kill")
	}
}

func TestSharedCachePoolClamp(t *testing.T) {
	h := newHost(t)
	c := mustSpawn(t, h, "c0")
	// Free host memory is 65536-16384 = 49152; cache appetite beyond the
	// shared pool is clamped to it.
	c.SetAppFootprint(1000, 60000)
	env := c.Env()
	wantResident := 1064.0 // rss + overhead, under memory.max
	if env.ResidentMB != wantResident {
		t.Errorf("resident = %g, want %g", env.ResidentMB, wantResident)
	}
	if got := env.EverTouchedMB - env.ResidentMB; got != 49152 {
		t.Errorf("cache = %g, want clamp to the 49152 MB shared pool", got)
	}
	// The cache is NOT charged against the container's limits: the host
	// still places new work in that memory.
	if got := h.FreePhysical(); got != restypes.V(12, 49152, 300, 300) {
		t.Errorf("free with hot cache = %v: cache must stay placeable", got)
	}
}

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	src := newHost(t)
	c := mustSpawn(t, src, "c0")
	c.SetAppFootprint(4000, 2000)
	if _, err := c.SetAllocation(restypes.V(2, 8192, 50, 50)); err != nil {
		t.Fatalf("deflate: %v", err)
	}
	snap := c.Snapshot()
	if snap.Kind != substrate.KindContainer || snap.Container == nil || snap.Guest != nil {
		t.Fatalf("snapshot kind/container/guest = %q/%v/%v", snap.Kind, snap.Container, snap.Guest)
	}

	dst := newHost(t)
	inst, err := dst.RestoreInstance(snap)
	if err != nil {
		t.Fatalf("RestoreInstance: %v", err)
	}
	r := inst.(*Container)
	if r.Size() != ctrSize() || r.Allocation() != restypes.V(2, 8192, 50, 50) {
		t.Errorf("restored size/alloc = %v/%v", r.Size(), r.Allocation())
	}
	if r.ResizeFloorMB() != 4064 {
		t.Errorf("restored floor = %g, want the checkpointed RSS carried over", r.ResizeFloorMB())
	}
	if r.DirtyRateMBps() != 4000*0.02 {
		t.Errorf("restored dirty rate = %g", r.DirtyRateMBps())
	}

	if _, err := dst.RestoreInstance(snap); !errors.Is(err, substrate.ErrInstanceExists) {
		t.Errorf("duplicate restore err = %v", err)
	}
}

func TestRestoreRejectsForeignAndBrokenSnapshots(t *testing.T) {
	h := newHost(t)
	good := substrate.Snapshot{
		Kind: substrate.KindContainer, Name: "c0",
		Size: ctrSize(), Alloc: ctrSize(),
		Container: &substrate.ContainerState{RSSMB: 1000},
	}

	hyp := good
	hyp.Kind = substrate.KindHypervisor
	if _, err := h.RestoreInstance(hyp); !errors.Is(err, substrate.ErrKindMismatch) {
		t.Errorf("hypervisor snapshot err = %v", err)
	}

	noState := good
	noState.Container = nil
	if _, err := h.RestoreInstance(noState); err == nil {
		t.Error("stateless snapshot accepted")
	}

	zero := good
	zero.Size = restypes.Vector{}
	if _, err := h.RestoreInstance(zero); err == nil {
		t.Error("zero-size snapshot accepted")
	}

	fat := good
	fat.Container = &substrate.ContainerState{RSSMB: 17000}
	if _, err := h.RestoreInstance(fat); err == nil {
		t.Error("snapshot whose RSS overflows the restored memory.max accepted")
	}

	if _, err := h.Spawn("hog", restypes.V(14, 57344, 350, 350), guestos.Config{}); err != nil {
		t.Fatalf("hog: %v", err)
	}
	if _, err := h.RestoreInstance(good); !errors.Is(err, substrate.ErrInsufficientCapacity) {
		t.Errorf("restore without capacity err = %v", err)
	}
}

func TestDestroyReleasesCapacity(t *testing.T) {
	h := newHost(t)
	c := mustSpawn(t, h, "c0")
	c.MarkWarm() // no-op, must not panic
	c.Destroy()
	if !c.Destroyed() {
		t.Error("Destroyed() = false after Destroy")
	}
	c.Destroy() // idempotent
	if got := h.FreePhysical(); got != h.Capacity() {
		t.Errorf("free after destroy = %v", got)
	}
	if _, err := c.SetAllocation(ctrSize()); !errors.Is(err, substrate.ErrInstanceDestroyed) {
		t.Errorf("resize after destroy err = %v", err)
	}
	if _, ok := h.pool.Get("c0"); ok {
		t.Error("destroyed container c0 still listed")
	}
}

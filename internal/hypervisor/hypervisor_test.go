package hypervisor

import (
	"errors"
	"testing"
	"time"

	"deflation/internal/guestos"
	"deflation/internal/restypes"
)

func newHost(t *testing.T) *Host {
	t.Helper()
	h, err := NewHost(Config{Name: "host0", Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	return h
}

func vmSize() restypes.Vector { return restypes.V(4, 16384, 100, 100) }

func mustDomain(t *testing.T, h *Host, name string) *Domain {
	t.Helper()
	d, err := h.CreateDomain(name, vmSize(), guestos.Config{})
	if err != nil {
		t.Fatalf("CreateDomain(%s): %v", name, err)
	}
	return d
}

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost(Config{Capacity: restypes.V(4, 0, 100, 100)}); err == nil {
		t.Error("zero-memory host accepted")
	}
}

func TestCreateDomainBookkeeping(t *testing.T) {
	h := newHost(t)
	d := mustDomain(t, h, "vm0")
	if d.Size() != vmSize() || d.Allocation() != vmSize() {
		t.Errorf("size/alloc = %v/%v", d.Size(), d.Allocation())
	}
	if d.Guest().CPUs() != 4 || d.Guest().MemoryMB() != 16384 {
		t.Errorf("guest booted with %d CPUs %g MB", d.Guest().CPUs(), d.Guest().MemoryMB())
	}
	if got := h.FreePhysical(); got != restypes.V(12, 49152, 300, 300) {
		t.Errorf("free = %v", got)
	}
	if _, err := h.CreateDomain("vm0", vmSize(), guestos.Config{}); !errors.Is(err, ErrDomainExists) {
		t.Errorf("duplicate create err = %v", err)
	}
	if _, err := h.Domain("vm0"); err != nil {
		t.Errorf("Domain lookup: %v", err)
	}
	if _, err := h.Domain("nope"); !errors.Is(err, ErrDomainNotFound) {
		t.Errorf("missing domain err = %v", err)
	}
}

func TestCreateDomainCapacity(t *testing.T) {
	h := newHost(t)
	for i := 0; i < 4; i++ {
		mustDomain(t, h, string(rune('a'+i)))
	}
	if _, err := h.CreateDomain("overflow", vmSize(), guestos.Config{}); !errors.Is(err, ErrInsufficientCapacity) {
		t.Errorf("create on full host err = %v", err)
	}
}

func TestDomainsSorted(t *testing.T) {
	h := newHost(t)
	mustDomain(t, h, "b")
	mustDomain(t, h, "a")
	ds := h.pool.Ordered()
	if len(ds) != 2 || ds[0].Name() != "a" || ds[1].Name() != "b" {
		t.Errorf("domain order wrong: %v, %v", ds[0].Name(), ds[1].Name())
	}
}

func TestDestroyReleasesCapacity(t *testing.T) {
	h := newHost(t)
	d := mustDomain(t, h, "vm0")
	d.Destroy()
	d.Destroy() // idempotent
	if !d.Destroyed() {
		t.Error("not destroyed")
	}
	if got := h.FreePhysical(); got != h.Capacity() {
		t.Errorf("free after destroy = %v, want full capacity", got)
	}
	if _, err := d.SetAllocation(vmSize()); !errors.Is(err, ErrDomainDestroyed) {
		t.Errorf("SetAllocation on destroyed err = %v", err)
	}
}

func TestSetAllocationClampsToSize(t *testing.T) {
	h := newHost(t)
	d := mustDomain(t, h, "vm0")
	if _, err := d.SetAllocation(restypes.V(100, 1e6, 1e3, 1e3)); err != nil {
		t.Fatalf("SetAllocation: %v", err)
	}
	if d.Allocation() != vmSize() {
		t.Errorf("allocation exceeded nominal size: %v", d.Allocation())
	}
}

func TestSetAllocationGrowthNeedsCapacity(t *testing.T) {
	h := newHost(t)
	d := mustDomain(t, h, "vm0")
	if _, err := d.SetAllocation(vmSize().Scale(0.5)); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	// Fill the host so growth cannot fit.
	for i := 0; i < 3; i++ {
		mustDomain(t, h, string(rune('a'+i)))
	}
	if _, err := h.CreateDomain("filler", restypes.V(2, 8192, 50, 50), guestos.Config{}); err != nil {
		t.Fatalf("filler: %v", err)
	}
	if _, err := d.SetAllocation(vmSize()); !errors.Is(err, ErrInsufficientCapacity) {
		t.Errorf("grow beyond capacity err = %v", err)
	}
}

func TestMemoryReclamationLatency(t *testing.T) {
	h := newHost(t)
	d := mustDomain(t, h, "vm0")
	d.Guest().SetAppFootprint(12000, 2000) // touched = 256+12000+2000 = 14256
	// Reclaim 8 GB of memory: resident drops 16384→8192 within touched.
	lat, err := d.SetAllocation(restypes.V(4, 8192, 100, 100))
	if err != nil {
		t.Fatalf("SetAllocation: %v", err)
	}
	// Swap-out = 14256-8192 = 6064 MB at 200 MB/s * 1.15 overhead ≈ 34.9 s.
	want := time.Duration(6064.0 / 200.0 * 1.15 * float64(time.Second))
	if diff := lat - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("reclamation latency = %v, want %v", lat, want)
	}
	// Reclaiming only untouched memory is free.
	d2 := mustDomain(t, h, "vm1")
	d2.Guest().SetAppFootprint(1000, 0)
	lat, err = d2.SetAllocation(restypes.V(4, 4096, 100, 100))
	if err != nil {
		t.Fatalf("SetAllocation: %v", err)
	}
	if lat != 0 {
		t.Errorf("latency for unbacking free memory = %v, want 0", lat)
	}
}

func TestEnvCPULockHolderPenalty(t *testing.T) {
	h := newHost(t)
	d := mustDomain(t, h, "vm0")

	// Full allocation: no penalty.
	env := d.Env()
	if env.EffectiveCores != 4 || env.PhysCores != 4 || env.VCPUs != 4 {
		t.Errorf("full env = %+v", env)
	}

	// Hypervisor-only CPU deflation to 1 core: 4 vCPUs on 1 core → LHP.
	if _, err := d.SetAllocation(restypes.V(1, 16384, 100, 100)); err != nil {
		t.Fatal(err)
	}
	env = d.Env()
	if env.PhysCores != 1 {
		t.Errorf("PhysCores = %g, want 1", env.PhysCores)
	}
	if env.EffectiveCores >= 1 || env.EffectiveCores < 0.7 {
		t.Errorf("EffectiveCores = %g, want LHP-penalized in [0.7,1)", env.EffectiveCores)
	}

	// OS-level deflation instead: unplug to 1 vCPU → no multiplexing, no LHP.
	d2 := mustDomain(t, h, "vm1")
	d2.Guest().UnplugCPUs(3)
	if _, err := d2.SetAllocation(restypes.V(1, 16384, 100, 100)); err != nil {
		t.Fatal(err)
	}
	env2 := d2.Env()
	if env2.EffectiveCores != 1 {
		t.Errorf("OS-level EffectiveCores = %g, want exactly 1 (no LHP)", env2.EffectiveCores)
	}
	if env2.EffectiveCores <= env.EffectiveCores {
		t.Error("OS-level deflation should beat hypervisor-level at equal physical CPU")
	}
}

func TestEnvMemorySwapState(t *testing.T) {
	h := newHost(t)
	d := mustDomain(t, h, "vm0")
	d.Guest().SetAppFootprint(12000, 0) // touched = 12256

	env := d.Env()
	if env.SwappedMB != 0 || env.LocalityFactor != 1 {
		t.Errorf("undeflated env has swap: %+v", env)
	}

	if _, err := d.SetAllocation(restypes.V(4, 8192, 100, 100)); err != nil {
		t.Fatal(err)
	}
	env = d.Env()
	if env.ResidentMB != 8192 {
		t.Errorf("ResidentMB = %g, want 8192", env.ResidentMB)
	}
	if want := 12256.0 - 8192.0; env.SwappedMB != want {
		t.Errorf("SwappedMB = %g, want %g", env.SwappedMB, want)
	}
	if env.LocalityFactor != 0.5 {
		t.Errorf("LocalityFactor = %g, want black-box 0.5", env.LocalityFactor)
	}
	// Guest still believes it has full memory (black-box deflation).
	if env.GuestMemMB != 16384 {
		t.Errorf("GuestMemMB = %g, want 16384", env.GuestMemMB)
	}
}

func TestEnvIOThrottles(t *testing.T) {
	h := newHost(t)
	d := mustDomain(t, h, "vm0")
	if _, err := d.SetAllocation(restypes.V(4, 16384, 25, 10)); err != nil {
		t.Fatal(err)
	}
	env := d.Env()
	if env.DiskMBps != 25 || env.NetMBps != 10 {
		t.Errorf("throttles = %g/%g, want 25/10", env.DiskMBps, env.NetMBps)
	}
}

func TestEnvOOMPropagates(t *testing.T) {
	h := newHost(t)
	d := mustDomain(t, h, "vm0")
	d.Guest().SetAppFootprint(8000, 0)
	d.Guest().ForceUnplugMemory(12000)
	if !d.Env().OOMKilled {
		t.Error("OOM not visible in Env")
	}
}

func TestAllocationRoundTripRestoresCapacity(t *testing.T) {
	h := newHost(t)
	d := mustDomain(t, h, "vm0")
	if _, err := d.SetAllocation(vmSize().Scale(0.25)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetAllocation(vmSize()); err != nil {
		t.Fatalf("reinflate: %v", err)
	}
	if got := h.FreePhysical(); got != restypes.V(12, 49152, 300, 300) {
		t.Errorf("free after round trip = %v", got)
	}
}

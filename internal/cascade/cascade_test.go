package cascade

import (
	"errors"
	"testing"

	"deflation/internal/apps/apptest"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

func size() restypes.Vector { return restypes.V(4, 16384, 100, 100) }

func newVM(t *testing.T, app vm.Application, cfg vm.Config) *vm.VM {
	t.Helper()
	h, err := hypervisor.NewHost(hypervisor.Config{Name: "h", Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.CreateDomain("vm0", size(), guestos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(d, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLevelsString(t *testing.T) {
	cases := map[string]Levels{
		"app+os+hypervisor": AllLevels(),
		"os+hypervisor":     VMLevel(),
		"hypervisor":        HypervisorOnly(),
		"os":                OSOnly(),
		"none":              {},
	}
	for want, l := range cases {
		if got := l.String(); got != want {
			t.Errorf("Levels%+v.String() = %q, want %q", l, got, want)
		}
	}
}

func TestDeflateGuards(t *testing.T) {
	c := New(AllLevels())

	hi := newVM(t, apptest.New("a"), vm.Config{Priority: vm.HighPriority})
	if err := c.Deflate(hi, restypes.V(1, 0, 0, 0), &Report{}); !errors.Is(err, ErrHighPriority) {
		t.Errorf("high-priority deflate err = %v", err)
	}

	lo := newVM(t, apptest.New("a"), vm.Config{MinSize: restypes.V(2, 8192, 50, 50)})
	if err := c.Deflate(lo, restypes.V(3, 0, 0, 0), &Report{}); !errors.Is(err, ErrExceedsDeflatable) {
		t.Errorf("beyond-deflatable err = %v", err)
	}

	dead := newVM(t, apptest.New("a"), vm.Config{})
	dead.Preempt()
	if err := c.Deflate(dead, restypes.V(1, 0, 0, 0), &Report{}); !errors.Is(err, ErrPreempted) {
		t.Errorf("preempted deflate err = %v", err)
	}
}

func TestDeflateZeroTargetIsNoOp(t *testing.T) {
	v := newVM(t, apptest.New("a"), vm.Config{})
	var r Report
	err := New(AllLevels()).Deflate(v, restypes.Vector{}, &r)
	if err != nil {
		t.Fatal(err)
	}
	if r.NewAllocation != size() || r.TotalLatency != 0 {
		t.Errorf("no-op changed state: %+v", r)
	}
}

func TestHypervisorOnlyDeflation(t *testing.T) {
	app := apptest.New("memhog")
	app.RSSMB = 12000
	v := newVM(t, app, vm.Config{})
	target := restypes.V(2, 8192, 50, 50)

	var r Report
	err := New(HypervisorOnly()).Deflate(v, target, &r)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Calls) != 0 {
		t.Error("hypervisor-only cascade called the application")
	}
	if got, want := v.Allocation(), size().Sub(target); got != want {
		t.Errorf("allocation = %v, want %v", got, want)
	}
	// Guest still sees 4 vCPUs and full memory: black-box deflation.
	if v.Domain().Guest().CPUs() != 4 || v.Domain().Guest().MemoryMB() != 16384 {
		t.Error("hypervisor-only deflation changed guest-visible resources")
	}
	// LHP penalty: 4 vCPUs on 2 physical cores.
	env := v.Env()
	if env.EffectiveCores >= 2 {
		t.Errorf("EffectiveCores = %g, want < 2 (LHP)", env.EffectiveCores)
	}
	// Swapping: touched 12256 vs 8192 resident ⇒ swap latency.
	if env.SwappedMB <= 0 {
		t.Error("expected host swapping")
	}
	if r.Hyp.Latency <= 0 {
		t.Error("expected swap-out latency")
	}
	if !r.Shortfall.IsZero() {
		t.Errorf("hypervisor-only shortfall = %v, want zero", r.Shortfall)
	}
}

func TestVMLevelDeflationUnplugsFirst(t *testing.T) {
	app := apptest.New("idle")
	app.RSSMB = 2000 // plenty of free guest memory
	v := newVM(t, app, vm.Config{})
	target := restypes.V(2, 8192, 0, 0)

	var r Report
	err := New(VMLevel()).Deflate(v, target, &r)
	if err != nil {
		t.Fatal(err)
	}
	// OS unplugged 2 vCPUs and all 8192 MB (free memory was ample).
	if r.OS.Reclaimed.CPU != 2 {
		t.Errorf("OS reclaimed %g CPUs, want 2", r.OS.Reclaimed.CPU)
	}
	if r.OS.Reclaimed.MemoryMB != 8192 {
		t.Errorf("OS reclaimed %g MB, want 8192", r.OS.Reclaimed.MemoryMB)
	}
	// No multiplexing: guest CPUs == physical cores ⇒ no LHP penalty.
	env := v.Env()
	if env.VCPUs != 2 || env.EffectiveCores != 2 {
		t.Errorf("env = %+v, want 2 vCPUs at full efficiency", env)
	}
	// No swapping: memory was unplugged, not overcommitted.
	if env.SwappedMB != 0 {
		t.Errorf("SwappedMB = %g, want 0", env.SwappedMB)
	}
	if got, want := v.Allocation(), size().Sub(target); got != want {
		t.Errorf("allocation = %v, want %v", got, want)
	}
}

func TestVMLevelFallsThroughToHypervisor(t *testing.T) {
	// Busy guest: most memory in RSS, little safely unpluggable.
	app := apptest.New("busy")
	app.RSSMB = 14000
	v := newVM(t, app, vm.Config{})
	target := restypes.V(0, 8192, 0, 0)

	var r Report
	err := New(VMLevel()).Deflate(v, target, &r)
	if err != nil {
		t.Fatal(err)
	}
	if r.OS.Reclaimed.MemoryMB >= 8192 {
		t.Errorf("OS reclaimed %g MB, want partial", r.OS.Reclaimed.MemoryMB)
	}
	// Hypervisor picked up the slack; full target met.
	if got := r.Hyp.Reclaimed.MemoryMB; got <= 0 {
		t.Errorf("hypervisor reclaimed %g, want > 0", got)
	}
	if v.Allocation().MemoryMB != 16384-8192 {
		t.Errorf("allocation mem = %g, want 8192", v.Allocation().MemoryMB)
	}
	// The unmet unplug becomes swap.
	if v.Env().SwappedMB <= 0 {
		t.Error("expected swapping for the non-unpluggable remainder")
	}
}

func TestFullCascadeAppFreesMemoryFirst(t *testing.T) {
	// Elastic app (like deflation-aware memcached) shrinks its RSS, so the
	// OS can unplug the freed memory and nothing swaps.
	app := apptest.NewElastic("memcached", 14000, 2000)
	v := newVM(t, app, vm.Config{})
	target := restypes.V(0, 8192, 0, 0)

	var r Report
	err := New(AllLevels()).Deflate(v, target, &r)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Calls) != 1 || app.Calls[0] != target {
		t.Errorf("app saw calls %v, want one call with %v", app.Calls, target)
	}
	if r.App.Reclaimed.MemoryMB != 8192 {
		t.Errorf("app reclaimed %g MB, want 8192", r.App.Reclaimed.MemoryMB)
	}
	if app.RSSMB != 14000-8192 {
		t.Errorf("app RSS = %g, want %g", app.RSSMB, 14000.0-8192.0)
	}
	if r.OS.Reclaimed.MemoryMB <= 0 {
		t.Error("OS unplugged nothing after app freed memory")
	}
	if v.Env().SwappedMB != 0 {
		t.Errorf("SwappedMB = %g, want 0 after cooperative deflation", v.Env().SwappedMB)
	}
}

func TestOSOnlyForcedUnplugOOMs(t *testing.T) {
	// The Fig. 5a failure mode: OS-only memory deflation beyond the app's
	// footprint OOM-kills it.
	app := apptest.New("memcached")
	app.RSSMB = 12000
	v := newVM(t, app, vm.Config{})

	var r Report
	err := New(OSOnly()).Deflate(v, restypes.V(0, 8192, 0, 0), &r)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Env().OOMKilled {
		t.Error("forced OS-only unplug did not OOM")
	}
	if v.Throughput() != 0 {
		t.Errorf("throughput after OOM = %g, want 0", v.Throughput())
	}
	if r.OS.Reclaimed.MemoryMB != 8192 {
		t.Errorf("forced unplug reclaimed %g, want 8192", r.OS.Reclaimed.MemoryMB)
	}
}

func TestOSOnlyModerateDeflationIsSafe(t *testing.T) {
	app := apptest.New("memcached")
	app.RSSMB = 8000
	v := newVM(t, app, vm.Config{})

	// 4 GB target fits in free memory: no OOM, and allocation shrinks by
	// exactly what was unplugged.
	var r Report
	err := New(OSOnly()).Deflate(v, restypes.V(0, 4096, 0, 0), &r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Env().OOMKilled {
		t.Error("safe OS-only deflation OOMed")
	}
	if r.Shortfall.MemoryMB != 0 {
		t.Errorf("shortfall = %g, want 0", r.Shortfall.MemoryMB)
	}
	if v.Allocation().MemoryMB != 16384-4096 {
		t.Errorf("allocation mem = %g, want 12288", v.Allocation().MemoryMB)
	}
}

func TestOSOnlyCPUShortfall(t *testing.T) {
	v := newVM(t, apptest.New("a"), vm.Config{})
	// 3.5-core target: OS can unplug 3 whole vCPUs at most.
	var r Report
	err := New(OSOnly()).Deflate(v, restypes.V(3.5, 0, 0, 0), &r)
	if err != nil {
		t.Fatal(err)
	}
	if r.OS.Reclaimed.CPU != 3 {
		t.Errorf("unplugged %g CPUs, want 3", r.OS.Reclaimed.CPU)
	}
	if r.Shortfall.CPU != 0.5 {
		t.Errorf("CPU shortfall = %g, want 0.5", r.Shortfall.CPU)
	}
}

func TestFractionalCPUSplitsAcrossLevels(t *testing.T) {
	v := newVM(t, apptest.New("a"), vm.Config{})
	var r Report
	err := New(VMLevel()).Deflate(v, restypes.V(1.5, 0, 0, 0), &r)
	if err != nil {
		t.Fatal(err)
	}
	if r.OS.Reclaimed.CPU != 1 {
		t.Errorf("OS unplugged %g, want 1 (floor)", r.OS.Reclaimed.CPU)
	}
	if r.Hyp.Reclaimed.CPU != 0.5 {
		t.Errorf("hypervisor reclaimed %g, want 0.5", r.Hyp.Reclaimed.CPU)
	}
	if v.Allocation().CPU != 2.5 {
		t.Errorf("allocation CPU = %g, want 2.5", v.Allocation().CPU)
	}
	// 3 vCPUs on 2.5 cores: mild LHP.
	env := v.Env()
	if env.VCPUs != 3 || env.EffectiveCores >= 2.5 {
		t.Errorf("env = %+v, want 3 vCPUs with LHP on 2.5 cores", env)
	}
}

func TestIOAlwaysHypervisorThrottled(t *testing.T) {
	var r Report
	err := New(AllLevels()).Deflate(newVMWith(t), restypes.V(0, 0, 60, 70), &r)
	if err != nil {
		t.Fatal(err)
	}
	if r.OS.Reclaimed.DiskMBps != 0 || r.OS.Reclaimed.NetMBps != 0 {
		t.Error("OS unplugged disk/net (unsafe)")
	}
	if r.Hyp.Reclaimed.DiskMBps != 60 || r.Hyp.Reclaimed.NetMBps != 70 {
		t.Errorf("hypervisor I/O reclaim = %v", r.Hyp.Reclaimed)
	}
	if r.NewAllocation.DiskMBps != 40 || r.NewAllocation.NetMBps != 30 {
		t.Errorf("new allocation = %v", r.NewAllocation)
	}
}

func newVMWith(t *testing.T) *vm.VM {
	t.Helper()
	return newVM(t, apptest.New("a"), vm.Config{})
}

func TestCascadeLatencyLowerWithAppDeflation(t *testing.T) {
	// Fig. 8b's mechanism: app-level deflation frees memory so the OS can
	// unplug it quickly, instead of the hypervisor swapping it out slowly.
	target := restypes.V(0, 8192, 0, 0)

	appAware := apptest.NewElastic("aware", 14000, 2000)
	v1 := newVM(t, appAware, vm.Config{})
	var r1 Report
	err := New(AllLevels()).Deflate(v1, target, &r1)
	if err != nil {
		t.Fatal(err)
	}

	blind := apptest.New("blind")
	blind.RSSMB = 14000
	v2 := newVM(t, blind, vm.Config{})
	var r2 Report
	err = New(VMLevel()).Deflate(v2, target, &r2)
	if err != nil {
		t.Fatal(err)
	}

	if r1.TotalLatency >= r2.TotalLatency {
		t.Errorf("cascade latency %v not lower than VM-level %v", r1.TotalLatency, r2.TotalLatency)
	}
}

func TestReinflateRestoresEverything(t *testing.T) {
	app := apptest.NewElastic("memcached", 14000, 2000)
	v := newVM(t, app, vm.Config{})
	c := New(AllLevels())
	target := restypes.V(2, 8192, 50, 50)
	if err := c.Deflate(v, target, &Report{}); err != nil {
		t.Fatal(err)
	}

	var r Report
	err := c.Reinflate(v, target, &r)
	if err != nil {
		t.Fatal(err)
	}
	if v.Allocation() != size() {
		t.Errorf("allocation after reinflate = %v, want %v", v.Allocation(), size())
	}
	g := v.Domain().Guest()
	if g.CPUs() != 4 {
		t.Errorf("guest CPUs = %d, want 4", g.CPUs())
	}
	if g.MemoryMB() != 16384 {
		t.Errorf("guest memory = %g, want 16384", g.MemoryMB())
	}
	if app.Reinflations != 1 {
		t.Errorf("app reinflations = %d, want 1", app.Reinflations)
	}
	if r.NewAllocation != size() {
		t.Errorf("report allocation = %v", r.NewAllocation)
	}
}

func TestReinflateNeverExceedsSize(t *testing.T) {
	v := newVMWith(t)
	c := New(AllLevels())
	if err := c.Deflate(v, restypes.V(1, 1024, 0, 0), &Report{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Reinflate(v, restypes.V(100, 1e6, 1e3, 1e3), &Report{}); err != nil {
		t.Fatal(err)
	}
	if v.Allocation() != size() {
		t.Errorf("allocation = %v, want clamped to %v", v.Allocation(), size())
	}
}

func TestReinflatePreempted(t *testing.T) {
	v := newVMWith(t)
	v.Preempt()
	if err := New(AllLevels()).Reinflate(v, restypes.V(1, 0, 0, 0), &Report{}); !errors.Is(err, ErrPreempted) {
		t.Errorf("err = %v, want ErrPreempted", err)
	}
}

// BenchmarkCascadeDeflate measures one full cascade deflation round trip.
func BenchmarkCascadeDeflate(b *testing.B) {
	h, err := hypervisor.NewHost(hypervisor.Config{Name: "h", Capacity: restypes.V(64, 262144, 4000, 4000)})
	if err != nil {
		b.Fatal(err)
	}
	dom, err := h.CreateDomain("v", restypes.V(4, 16384, 100, 100), guestos.Config{})
	if err != nil {
		b.Fatal(err)
	}
	v, err := vm.New(dom, apptest.NewElastic("a", 8000, 2000), vm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	c := New(AllLevels())
	target := restypes.V(2, 8192, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Deflate(v, target, &Report{}); err != nil {
			b.Fatal(err)
		}
		if err := c.Reinflate(v, target, &Report{}); err != nil {
			b.Fatal(err)
		}
	}
}

package cascade

import (
	"testing"
	"time"

	"deflation/internal/apps/apptest"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

func TestDeadlineTruncatesOSUnplug(t *testing.T) {
	// Unbounded: 8 GB of free memory is unplugged (≈6.8 s at 1200 MB/s).
	app := apptest.New("idle")
	app.RSSMB = 2000
	v1 := newVM(t, app, vm.Config{})
	v1.Domain().MarkWarm()
	c1 := New(VMLevel())
	r1, err := c1.Deflate(v1, restypes.V(0, 8192, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r1.DeadlineExceeded {
		t.Error("unbounded deflate reported deadline exceeded")
	}
	if r1.OS.Reclaimed.MemoryMB < 8000 {
		t.Fatalf("baseline unplug = %g, want ≈8192", r1.OS.Reclaimed.MemoryMB)
	}

	// A 2-second deadline only allows ≈2400 MB of migration; the
	// hypervisor must swap the rest.
	app2 := apptest.New("idle")
	app2.RSSMB = 2000
	v2 := newVM(t, app2, vm.Config{})
	v2.Domain().MarkWarm()
	c2 := New(VMLevel())
	c2.SetDeadline(2 * time.Second)
	r2, err := c2.Deflate(v2, restypes.V(0, 8192, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.DeadlineExceeded {
		t.Error("deadline not reported")
	}
	if r2.OS.Reclaimed.MemoryMB > 2400+1 {
		t.Errorf("unplug = %g MB, want ≤ migration budget 2400", r2.OS.Reclaimed.MemoryMB)
	}
	// The target was still met — via hypervisor overcommitment.
	if v2.Allocation().MemoryMB != 16384-8192 {
		t.Errorf("allocation = %v, target missed", v2.Allocation())
	}
	if v2.Env().SwappedMB <= 0 {
		t.Error("no swap despite truncated unplug")
	}
}

func TestDeadlineConsumedByApplication(t *testing.T) {
	// A slow application level exhausts the whole budget: the OS memory
	// step is skipped and the hypervisor takes everything.
	app := apptest.NewElastic("slow", 12000, 2000)
	app.DeflateLatency = 10 * time.Second
	v := newVM(t, app, vm.Config{})
	v.Domain().MarkWarm()
	c := New(AllLevels())
	c.SetDeadline(5 * time.Second)
	r, err := c.Deflate(v, restypes.V(0, 8192, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !r.DeadlineExceeded {
		t.Error("deadline not reported")
	}
	if r.OS.Reclaimed.MemoryMB != 0 {
		t.Errorf("OS unplugged %g MB with an exhausted budget", r.OS.Reclaimed.MemoryMB)
	}
	if v.Allocation().MemoryMB != 16384-8192 {
		t.Errorf("allocation = %v, target missed", v.Allocation())
	}
}

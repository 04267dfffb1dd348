package guestos

import (
	"testing"
	"testing/quick"
	"time"
)

func newGuest(t *testing.T, cfg Config) *GuestOS {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &g
}

func std(t *testing.T) *GuestOS {
	return newGuest(t, Config{CPUs: 4, MemoryMB: 16384})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{CPUs: 0, MemoryMB: 1024}); err == nil {
		t.Error("zero CPUs accepted")
	}
	if _, err := New(Config{CPUs: 1, MemoryMB: 100}); err == nil {
		t.Error("memory below kernel reserve accepted")
	}
	if _, err := New(Config{CPUs: 2, MemoryMB: 1024, PinnedCPUs: 3}); err == nil {
		t.Error("pinned > CPUs accepted")
	}
}

func TestDefaults(t *testing.T) {
	g := std(t)
	cfg := g.Config()
	if cfg.KernelMemMB != 256 || cfg.MigrationEfficiency != 0.92 ||
		cfg.PageMigrateMBps != 1200 || cfg.CPUHotplugLatency != 100*time.Millisecond {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestCPUUnplugGranularityAndFloor(t *testing.T) {
	g := std(t)
	n, lat := g.UnplugCPUs(2)
	if n != 2 || g.CPUs() != 2 {
		t.Errorf("UnplugCPUs(2) = %d, CPUs = %d", n, g.CPUs())
	}
	if lat != 200*time.Millisecond {
		t.Errorf("latency = %v, want 200ms", lat)
	}
	// Can never unplug the last CPU.
	n, _ = g.UnplugCPUs(10)
	if n != 1 || g.CPUs() != 1 {
		t.Errorf("unplug to floor: n=%d CPUs=%d, want 1 CPU left", n, g.CPUs())
	}
	n, _ = g.UnplugCPUs(1)
	if n != 0 {
		t.Errorf("unplugged last CPU: n=%d", n)
	}
}

func TestPinnedCPUsNotUnpluggable(t *testing.T) {
	g := newGuest(t, Config{CPUs: 4, MemoryMB: 16384, PinnedCPUs: 3})
	if got := g.SafelyUnpluggableCPUs(); got != 1 {
		t.Errorf("SafelyUnpluggableCPUs = %d, want 1", got)
	}
	n, _ := g.UnplugCPUs(4)
	if n != 1 || g.CPUs() != 3 {
		t.Errorf("unplug with pins: n=%d CPUs=%d, want n=1 CPUs=3", n, g.CPUs())
	}
}

func TestCPUPlugCap(t *testing.T) {
	g := std(t)
	g.UnplugCPUs(3)
	n, _ := g.PlugCPUs(10)
	if n != 3 || g.CPUs() != 4 {
		t.Errorf("replug: n=%d CPUs=%d, want back to 4", n, g.CPUs())
	}
	if n, _ := g.PlugCPUs(1); n != 0 {
		t.Errorf("plug beyond boot size: n=%d", n)
	}
}

func TestMemoryUnplugBestEffort(t *testing.T) {
	g := std(t)
	g.SetAppFootprint(8000, 2000)
	// free = 16384-256-8000-2000 = 6128; unpluggable = (6128+2000)*0.92
	wantMax := (6128.0 + 2000.0) * 0.92
	if got := g.SafelyUnpluggableMB(); got != wantMax {
		t.Errorf("SafelyUnpluggableMB = %g, want %g", got, wantMax)
	}
	freed, lat := g.UnplugMemory(100000)
	if freed != wantMax {
		t.Errorf("freed = %g, want best-effort cap %g", freed, wantMax)
	}
	if lat <= 0 {
		t.Error("memory unplug reported zero latency")
	}
	if g.OOMKilled() {
		t.Error("best-effort unplug OOM-killed the app")
	}
	// RSS must still fit.
	if g.MemoryMB() < g.AppRSSMB()+g.Config().KernelMemMB {
		t.Errorf("best-effort unplug went below RSS: mem=%g rss=%g", g.MemoryMB(), g.AppRSSMB())
	}
}

func TestMemoryUnplugDropsPageCache(t *testing.T) {
	g := std(t)
	g.SetAppFootprint(10000, 4000)
	// free = 16384-256-10000-4000 = 2128. Unplug more than free: cache drops.
	freed, _ := g.UnplugMemory(5000)
	if freed != 5000 {
		t.Fatalf("freed = %g, want 5000", freed)
	}
	if g.PageCacheMB() >= 4000 {
		t.Errorf("page cache not dropped: %g", g.PageCacheMB())
	}
	if g.FreeMemMB() != 0 {
		t.Errorf("free after unplug = %g, want 0", g.FreeMemMB())
	}
}

func TestForceUnplugTriggersOOM(t *testing.T) {
	g := std(t)
	g.SetAppFootprint(12000, 0)
	// Force below kernel+rss = 12256.
	freed, _ := g.ForceUnplugMemory(8000)
	if freed != 8000 {
		t.Errorf("forced freed = %g, want 8000", freed)
	}
	if !g.OOMKilled() {
		t.Error("forced unplug below RSS did not OOM-kill")
	}
}

func TestForceUnplugCannotTakeKernel(t *testing.T) {
	g := std(t)
	freed, _ := g.ForceUnplugMemory(1e9)
	if want := 16384.0 - 256.0; freed != want {
		t.Errorf("forced freed = %g, want %g (kernel reserve kept)", freed, want)
	}
	if g.MemoryMB() != 256 {
		t.Errorf("memory after max force-unplug = %g, want 256", g.MemoryMB())
	}
}

func TestSetFootprintOOM(t *testing.T) {
	g := std(t)
	g.SetAppFootprint(17000, 0)
	if !g.OOMKilled() {
		t.Error("RSS beyond plugged memory did not OOM")
	}
}

func TestPlugMemoryCap(t *testing.T) {
	g := std(t)
	g.UnplugMemory(4000)
	plugged, _ := g.PlugMemory(1e9)
	if g.MemoryMB() != 16384 {
		t.Errorf("memory after replug = %g, want 16384", g.MemoryMB())
	}
	if plugged <= 0 {
		t.Errorf("plugged = %g, want > 0", plugged)
	}
	if p, _ := g.PlugMemory(100); p != 0 {
		t.Errorf("plug beyond boot size = %g", p)
	}
}

func TestNegativeRequestsAreNoOps(t *testing.T) {
	g := std(t)
	if n, lat := g.UnplugCPUs(-1); n != 0 || lat != 0 {
		t.Error("negative CPU unplug did something")
	}
	if mb, lat := g.UnplugMemory(-5); mb != 0 || lat != 0 {
		t.Error("negative mem unplug did something")
	}
	if mb, lat := g.ForceUnplugMemory(0); mb != 0 || lat != 0 {
		t.Error("zero force unplug did something")
	}
	if n, lat := g.PlugCPUs(0); n != 0 || lat != 0 {
		t.Error("zero CPU plug did something")
	}
	if mb, lat := g.PlugMemory(-1); mb != 0 || lat != 0 {
		t.Error("negative mem plug did something")
	}
}

func TestNegativeFootprintPanics(t *testing.T) {
	g := std(t)
	defer func() {
		if recover() == nil {
			t.Fatal("negative footprint did not panic")
		}
	}()
	g.SetAppFootprint(-1, 0)
}

// Property: best-effort unplug never reduces memory below kernel + RSS, for
// any footprint and request size.
func TestQuickBestEffortUnplugSafe(t *testing.T) {
	f := func(rss, cache, req uint32) bool {
		g, err := New(Config{CPUs: 4, MemoryMB: 16384})
		if err != nil {
			return false
		}
		r := float64(rss % 16000)
		c := float64(cache % 8000)
		g.SetAppFootprint(r, c)
		if g.OOMKilled() {
			return true // footprint alone exceeded memory; unplug irrelevant
		}
		g.UnplugMemory(float64(req % 60000))
		return !g.OOMKilled() && g.MemoryMB() >= r+g.Config().KernelMemMB-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: plug/unplug round trips never exceed boot resources.
func TestQuickPlugBounds(t *testing.T) {
	f := func(ops []uint16) bool {
		g, err := New(Config{CPUs: 8, MemoryMB: 8192})
		if err != nil {
			return false
		}
		for i, op := range ops {
			if i%2 == 0 {
				g.UnplugCPUs(int(op % 10))
				g.UnplugMemory(float64(op % 4096))
			} else {
				g.PlugCPUs(int(op % 10))
				g.PlugMemory(float64(op % 4096))
			}
			if g.CPUs() < 1 || g.CPUs() > 8 || g.MemoryMB() < 0 || g.MemoryMB() > 8192 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirtyRateTracksRSS(t *testing.T) {
	g, err := New(Config{CPUs: 4, MemoryMB: 16384})
	if err != nil {
		t.Fatal(err)
	}
	if g.DirtyRateMBps() != 0 {
		t.Errorf("idle guest dirty rate %g, want 0", g.DirtyRateMBps())
	}
	g.SetAppFootprint(8192, 1024)
	full := g.DirtyRateMBps()
	if full != 8192*0.02 {
		t.Errorf("dirty rate %g, want RSS * default write intensity", full)
	}
	// Deflation shrinks the RSS and, with it, the dirty rate — the
	// deflate-then-migrate premise.
	g.SetAppFootprint(2048, 0)
	if got := g.DirtyRateMBps(); got >= full {
		t.Errorf("deflated dirty rate %g not below full %g", got, full)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	g, err := New(Config{CPUs: 8, MemoryMB: 16384, WriteIntensity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAppFootprint(4096, 2048)
	g.UnplugCPUs(3)
	g.UnplugMemory(2000)

	r, err := Restore(g.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if r.CPUs() != g.CPUs() || r.MemoryMB() != g.MemoryMB() ||
		r.AppRSSMB() != g.AppRSSMB() || r.PageCacheMB() != g.PageCacheMB() ||
		r.DirtyRateMBps() != g.DirtyRateMBps() {
		t.Errorf("restore diverges:\n%+v\n%+v", r.Snapshot(), g.Snapshot())
	}
	if r.OOMKilled() {
		t.Error("restored guest spuriously OOM-killed")
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	g, err := New(Config{CPUs: 4, MemoryMB: 8192})
	if err != nil {
		t.Fatal(err)
	}
	g.SetAppFootprint(2048, 0)
	base := g.Snapshot()

	for name, mutate := range map[string]func(*Snapshot){
		"cpus-over-boot":   func(s *Snapshot) { s.CPUs = 5 },
		"cpus-zero":        func(s *Snapshot) { s.CPUs = 0 },
		"mem-over-boot":    func(s *Snapshot) { s.MemoryMB = 9000 },
		"mem-under-kernel": func(s *Snapshot) { s.MemoryMB = 100 },
		"rss-oom":          func(s *Snapshot) { s.AppRSSMB = 8100 },
		"negative-cache":   func(s *Snapshot) { s.PageCacheMB = -1 },
	} {
		s := base
		mutate(&s)
		if _, err := Restore(s); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

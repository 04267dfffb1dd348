// Package guestos simulates the guest operating system of a deflatable VM,
// in particular the resource hot-plug/hot-unplug mechanisms that OS-level
// deflation relies on (§3.2.2 of the paper).
//
// The simulation reproduces the semantics the paper's design depends on:
//
//   - CPU hot-unplug works at whole-vCPU granularity only, and CPUs with
//     pinned tasks cannot be safely unplugged.
//   - Memory hot-unplug is best-effort: only free pages (and droppable page
//     cache) can be migrated into a contiguous zone and released, some
//     fraction is lost to fragmentation, and the operation takes time
//     proportional to the pages migrated.
//   - Unplugging memory below the application's resident set is unsafe; a
//     forced unplug (used by the paper's "OS only" comparison, Fig. 5a)
//     triggers the OOM killer and terminates the application.
package guestos

import (
	"fmt"
	"time"
)

// Config describes the booted shape of a guest.
type Config struct {
	CPUs        int     // vCPUs the guest booted with
	MemoryMB    float64 // memory the guest booted with
	KernelMemMB float64 // unreclaimable kernel/reserved memory (default 256)
	PinnedCPUs  int     // CPUs hosting pinned tasks, never unpluggable (default 0)

	// MigrationEfficiency is the fraction of theoretically-free memory that
	// page migration can actually coalesce and release (default 0.92; the
	// remainder is lost to fragmentation and busy pages).
	MigrationEfficiency float64
	// PageMigrateMBps is the page-migration bandwidth for memory unplug
	// (default 1200 MB/s; calibrated so that hot-unplugging half of a
	// 100 GB VM takes tens of seconds, per Fig. 8b).
	PageMigrateMBps float64
	// CPUHotplugLatency is the per-vCPU hot(un)plug latency (default 100ms).
	CPUHotplugLatency time.Duration

	// WriteIntensity is the fraction of the application's resident set the
	// workload re-dirties per second (default 0.02: a 16 GB RSS redirties
	// ~330 MB/s). It drives the dirty-page rate that pre-copy live
	// migration must outrun, so deflating a VM — shrinking its RSS — also
	// shrinks its dirty rate.
	WriteIntensity float64
}

func (c Config) withDefaults() Config {
	if c.KernelMemMB == 0 {
		c.KernelMemMB = 256
	}
	if c.MigrationEfficiency == 0 {
		c.MigrationEfficiency = 0.92
	}
	if c.PageMigrateMBps == 0 {
		c.PageMigrateMBps = 1200
	}
	if c.CPUHotplugLatency == 0 {
		c.CPUHotplugLatency = 100 * time.Millisecond
	}
	if c.WriteIntensity == 0 {
		c.WriteIntensity = 0.02
	}
	return c
}

// GuestOS is a simulated guest kernel. It tracks plugged resources and the
// application's memory footprint, and implements best-effort hot-unplug.
// GuestOS is not safe for concurrent use.
type GuestOS struct {
	cfg Config

	cpus  int     // currently plugged vCPUs
	memMB float64 // currently plugged memory

	appRSSMB    float64 // application resident set
	pageCacheMB float64 // droppable page cache

	oomKilled bool
}

// New boots a guest with the given configuration. It returns the guest by
// value so an owner (a hypervisor domain) can embed it without a separate
// allocation; its methods take a pointer to the owner's copy.
func New(cfg Config) (GuestOS, error) {
	cfg = cfg.withDefaults()
	if cfg.CPUs < 1 {
		return GuestOS{}, fmt.Errorf("guestos: need ≥1 CPU, got %d", cfg.CPUs)
	}
	if cfg.MemoryMB <= cfg.KernelMemMB {
		return GuestOS{}, fmt.Errorf("guestos: memory %gMB does not cover kernel reserve %gMB",
			cfg.MemoryMB, cfg.KernelMemMB)
	}
	if cfg.PinnedCPUs < 0 || cfg.PinnedCPUs > cfg.CPUs {
		return GuestOS{}, fmt.Errorf("guestos: pinned CPUs %d out of range [0,%d]", cfg.PinnedCPUs, cfg.CPUs)
	}
	return GuestOS{cfg: cfg, cpus: cfg.CPUs, memMB: cfg.MemoryMB}, nil
}

// Config returns the boot configuration (with defaults applied).
func (g *GuestOS) Config() Config { return g.cfg }

// CPUs returns the number of currently plugged vCPUs.
func (g *GuestOS) CPUs() int { return g.cpus }

// MemoryMB returns the currently plugged guest memory.
func (g *GuestOS) MemoryMB() float64 { return g.memMB }

// OOMKilled reports whether the OOM killer has terminated the application.
func (g *GuestOS) OOMKilled() bool { return g.oomKilled }

// SetAppFootprint records the application's memory use as seen by the guest:
// its resident set plus the page cache it is generating. The guest uses this
// to compute safely-unpluggable memory. Setting a resident set larger than
// plugged memory immediately OOM-kills the application (the guest has no
// swap device, as is typical for cloud VMs; host-level swap is the
// hypervisor's business).
func (g *GuestOS) SetAppFootprint(rssMB, pageCacheMB float64) {
	if rssMB < 0 || pageCacheMB < 0 {
		panic(fmt.Sprintf("guestos: negative footprint rss=%g cache=%g", rssMB, pageCacheMB))
	}
	g.appRSSMB = rssMB
	// The page cache can never exceed what physically fits: under memory
	// pressure the kernel drops cache pages before anything else.
	if avail := g.memMB - g.cfg.KernelMemMB - rssMB; pageCacheMB > avail {
		pageCacheMB = avail
		if pageCacheMB < 0 {
			pageCacheMB = 0
		}
	}
	g.pageCacheMB = pageCacheMB
	g.checkOOM()
}

// AppRSSMB returns the recorded application resident set.
func (g *GuestOS) AppRSSMB() float64 { return g.appRSSMB }

// DirtyRateMBps returns the rate at which the workload re-dirties pages:
// the application's resident set scaled by the configured write intensity.
// This is the rate a pre-copy migration stream has to keep ahead of.
func (g *GuestOS) DirtyRateMBps() float64 { return g.appRSSMB * g.cfg.WriteIntensity }

// PageCacheMB returns the recorded page cache size.
func (g *GuestOS) PageCacheMB() float64 { return g.pageCacheMB }

func (g *GuestOS) checkOOM() {
	if g.appRSSMB+g.cfg.KernelMemMB > g.memMB {
		g.oomKilled = true
	}
}

// FreeMemMB returns memory used neither by the kernel, the application nor
// the page cache.
func (g *GuestOS) FreeMemMB() float64 {
	free := g.memMB - g.cfg.KernelMemMB - g.appRSSMB - g.pageCacheMB
	if free < 0 {
		return 0
	}
	return free
}

// SafelyUnpluggableMB returns how much memory a best-effort unplug could
// release right now: free memory plus droppable page cache, scaled by the
// migration efficiency.
func (g *GuestOS) SafelyUnpluggableMB() float64 {
	return (g.FreeMemMB() + g.pageCacheMB) * g.cfg.MigrationEfficiency
}

// SafelyUnpluggableCPUs returns how many vCPUs can be unplugged: everything
// above the pinned set, always leaving one CPU online.
func (g *GuestOS) SafelyUnpluggableCPUs() int {
	floor := g.cfg.PinnedCPUs
	if floor < 1 {
		floor = 1
	}
	n := g.cpus - floor
	if n < 0 {
		return 0
	}
	return n
}

// UnplugCPUs offlines up to n vCPUs, best-effort. It returns how many were
// actually unplugged and the operation latency.
func (g *GuestOS) UnplugCPUs(n int) (unplugged int, latency time.Duration) {
	if n <= 0 {
		return 0, 0
	}
	if max := g.SafelyUnpluggableCPUs(); n > max {
		n = max
	}
	g.cpus -= n
	return n, time.Duration(n) * g.cfg.CPUHotplugLatency
}

// PlugCPUs onlines up to n vCPUs, never exceeding the boot count. It returns
// how many were plugged and the operation latency.
func (g *GuestOS) PlugCPUs(n int) (plugged int, latency time.Duration) {
	if n <= 0 {
		return 0, 0
	}
	if g.cpus+n > g.cfg.CPUs {
		n = g.cfg.CPUs - g.cpus
	}
	g.cpus += n
	return n, time.Duration(n) * g.cfg.CPUHotplugLatency
}

// UnplugMemory releases up to mb of guest memory back to the hypervisor,
// best-effort: the released amount never exceeds SafelyUnpluggableMB. Page
// cache is dropped as needed (cheapest pages first: free memory, then
// cache). It returns the memory actually released and the page-migration
// latency.
func (g *GuestOS) UnplugMemory(mb float64) (freedMB float64, latency time.Duration) {
	if mb <= 0 {
		return 0, 0
	}
	if max := g.SafelyUnpluggableMB(); mb > max {
		mb = max
	}
	g.applyMemUnplug(mb)
	return mb, g.migrationLatency(mb)
}

// ForceUnplugMemory releases exactly mb of guest memory regardless of
// safety, modelling an administrator-forced OS-level reclamation (the
// paper's "OS only" mode). If the remaining memory cannot hold the kernel
// plus the application's resident set, the OOM killer fires and the
// application is terminated. The released amount is capped only by the
// kernel reserve (the guest cannot unplug its own kernel).
func (g *GuestOS) ForceUnplugMemory(mb float64) (freedMB float64, latency time.Duration) {
	if mb <= 0 {
		return 0, 0
	}
	if max := g.memMB - g.cfg.KernelMemMB; mb > max {
		mb = max
	}
	g.applyMemUnplug(mb)
	g.checkOOM()
	return mb, g.migrationLatency(mb)
}

func (g *GuestOS) applyMemUnplug(mb float64) {
	g.memMB -= mb
	// Dropping memory consumes free pages first, then page cache.
	overflow := g.cfg.KernelMemMB + g.appRSSMB + g.pageCacheMB - g.memMB
	if overflow > 0 {
		g.pageCacheMB -= overflow
		if g.pageCacheMB < 0 {
			g.pageCacheMB = 0
		}
	}
}

// PlugMemory returns mb of memory to the guest, never exceeding the boot
// size. It returns the amount plugged; hot-add is fast (no migration), so
// latency is a single hotplug round trip.
func (g *GuestOS) PlugMemory(mb float64) (pluggedMB float64, latency time.Duration) {
	if mb <= 0 {
		return 0, 0
	}
	if g.memMB+mb > g.cfg.MemoryMB {
		mb = g.cfg.MemoryMB - g.memMB
	}
	g.memMB += mb
	return mb, g.cfg.CPUHotplugLatency
}

func (g *GuestOS) migrationLatency(mb float64) time.Duration {
	return time.Duration(mb / g.cfg.PageMigrateMBps * float64(time.Second))
}

// Snapshot is the transferable state of a guest kernel, as captured for live
// migration. An OOM-killed guest is not snapshotable — there is nothing left
// worth moving — so Snapshot carries no kill flag.
type Snapshot struct {
	Config      Config  `json:"config"`
	CPUs        int     `json:"cpus"`
	MemoryMB    float64 `json:"memory_mb"`
	AppRSSMB    float64 `json:"app_rss_mb"`
	PageCacheMB float64 `json:"page_cache_mb"`
}

// Snapshot captures the guest's current plugged resources and footprint.
func (g *GuestOS) Snapshot() Snapshot {
	return Snapshot{
		Config:      g.cfg,
		CPUs:        g.cpus,
		MemoryMB:    g.memMB,
		AppRSSMB:    g.appRSSMB,
		PageCacheMB: g.pageCacheMB,
	}
}

// Restore boots a guest from a snapshot, re-validating it as wire data: the
// plugged state must fit within the boot configuration and keep the
// application alive (a snapshot whose resident set does not fit would have
// been OOM-killed on the source and is rejected here).
func Restore(s Snapshot) (GuestOS, error) {
	g, err := New(s.Config)
	if err != nil {
		return GuestOS{}, err
	}
	if s.CPUs < 1 || s.CPUs > g.cfg.CPUs {
		return GuestOS{}, fmt.Errorf("guestos: snapshot CPUs %d out of range [1,%d]", s.CPUs, g.cfg.CPUs)
	}
	if s.MemoryMB <= g.cfg.KernelMemMB || s.MemoryMB > g.cfg.MemoryMB {
		return GuestOS{}, fmt.Errorf("guestos: snapshot memory %gMB out of range (%gMB,%gMB]",
			s.MemoryMB, g.cfg.KernelMemMB, g.cfg.MemoryMB)
	}
	if s.AppRSSMB < 0 || s.PageCacheMB < 0 {
		return GuestOS{}, fmt.Errorf("guestos: snapshot has negative footprint")
	}
	if s.AppRSSMB+g.cfg.KernelMemMB > s.MemoryMB {
		return GuestOS{}, fmt.Errorf("guestos: snapshot RSS %gMB does not fit %gMB memory (OOM on source)",
			s.AppRSSMB, s.MemoryMB)
	}
	g.cpus = s.CPUs
	g.memMB = s.MemoryMB
	g.SetAppFootprint(s.AppRSSMB, s.PageCacheMB)
	return g, nil
}

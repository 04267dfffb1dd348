// Package kcompile models the Linux-kernel-compile workload (Table 2): a
// CPU-bound parallel batch job with a file-backed working set (source tree
// and object files in the page cache).
//
// Kernel compile is the paper's exemplar of a deflation-friendly inelastic
// application: it has no deflation mechanisms of its own (SelfDeflate is a
// no-op), yet tolerates deep CPU deflation because its parallel efficiency
// is far from perfect — the paper measures only a 30% slowdown at 75% CPU
// deflation with OS-level unplug (Fig. 5b). The CPU scaling is therefore
// taken from the calibrated Figure-1 utility curve; the hypervisor-vs-OS gap
// emerges from the lock-holder-preemption penalty already applied to
// Env.EffectiveCores.
package kcompile

import (
	"math"
	"time"

	"deflation/internal/hypervisor"
	"deflation/internal/perfmodel"
	"deflation/internal/restypes"
)

// AppConfig configures a kernel-compile instance.
type AppConfig struct {
	// Cores is the booted vCPU count (default 4).
	Cores float64
}

func (c AppConfig) withDefaults() AppConfig {
	if c.Cores == 0 {
		c.Cores = 4
	}
	return c
}

const (
	// rssMB is the compiler processes' resident set.
	rssMB float64 = 1500
	// pageCacheMB is the source/object file cache.
	pageCacheMB float64 = 2500
	// needDiskMBps is the disk bandwidth at which the job stops being
	// disk-bound.
	needDiskMBps float64 = 40
	// swapPenaltyRatio inflates compile time per unit of swapped RSS
	// fraction.
	swapPenaltyRatio float64 = 4
)

// App is the kernel-compile workload as a deflatable application.
type App struct {
	cfg AppConfig
}

// NewApp builds a kernel-compile application.
func NewApp(cfg AppConfig) *App { return &App{cfg: cfg.withDefaults()} }

// Name implements vm.Application.
func (a *App) Name() string { return "kcompile" }

// Footprint implements vm.Application.
func (a *App) Footprint() (float64, float64) { return rssMB, pageCacheMB }

// SelfDeflate implements vm.Application: kernel compile is inelastic; the
// application-level policy is to ignore the request and let the OS and
// hypervisor deflate (§3.2.1).
func (a *App) SelfDeflate(restypes.Vector) (restypes.Vector, time.Duration) {
	return restypes.Vector{}, 0
}

// Reinflate implements vm.Application (no-op: nothing was relinquished).
func (a *App) Reinflate(hypervisor.Env) {}

// Throughput implements vm.Application: compile throughput is the product
// of CPU scaling (calibrated curve over effective cores), a disk-bandwidth
// bound, and a swap penalty on the compilers' resident set.
func (a *App) Throughput(env hypervisor.Env) float64 {
	if env.OOMKilled {
		return 0
	}
	cpu := perfmodel.CurveKcompile.At(env.EffectiveCores / a.cfg.Cores)

	disk := 1.0
	if env.DiskMBps > 0 && env.DiskMBps < needDiskMBps {
		disk = env.DiskMBps / needDiskMBps
	}

	swap := 1.0
	if env.SwappedMB > 0 {
		// Page cache and the cold pool absorb swap first; only RSS faults hurt.
		coldPool := env.EverTouchedMB - rssMB - env.KernelMemMB
		if coldPool < 0 {
			coldPool = 0
		}
		hot := math.Max(0, env.SwappedMB-coldPool)
		if hot > rssMB {
			hot = rssMB
		}
		swap = 1 / (1 + hot/rssMB*swapPenaltyRatio)
	}

	return cpu * disk * swap
}

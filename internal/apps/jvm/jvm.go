// Package jvm models a JVM-based application (SpecJBB 2015 in fixed-IR
// mode, per Table 2) with the paper's JVM deflation policy (§4): in response
// to memory deflation, trigger garbage collection and reduce the maximum
// heap size so the heap fits in available memory — trading GC overhead for
// the absence of swapping.
//
// The model follows the classical GC cost tradeoff (perfmodel.GCOverhead):
// shrinking the heap raises collection frequency; letting the heap spill to
// swap is far worse because collections scan the whole heap, touching
// swapped pages.
package jvm

import (
	"fmt"
	"math"
	"time"

	"deflation/internal/hypervisor"
	"deflation/internal/perfmodel"
	"deflation/internal/restypes"
)

// AppConfig configures a JVM application instance.
type AppConfig struct {
	// MaxHeapMB is the configured -Xmx (and the committed heap at boot:
	// SpecJBB touches its whole heap).
	MaxHeapMB float64
	// LiveMB is the live data set the collector must retain.
	LiveMB float64
	// Cores is the booted vCPU count (default 4).
	Cores float64
	// DeflationAware enables the §4 heap-resize policy (the paper's ~30
	// lines of JMX against IBM J9's runtime-adjustable max heap).
	DeflationAware bool
}

func (c AppConfig) withDefaults() AppConfig {
	if c.Cores == 0 {
		c.Cores = 4
	}
	return c
}

const (
	// overheadMB is JVM native memory outside the heap.
	overheadMB float64 = 500
	// cpuNeedFraction is the share of the booted cores the fixed inject
	// rate saturates: below that capacity, response time rises with the
	// capacity deficit.
	cpuNeedFraction float64 = 0.7
	// baseResponseUS is the request response time at full resources (the
	// Fig. 5d baseline magnitude).
	baseResponseUS float64 = 900
	// heapFloorFactor bounds shrinking: heap ≥ LiveMB × factor.
	heapFloorFactor float64 = 1.15
	// gcScanMBps is the collector's scan rate, which sets the latency of
	// the shrink operation.
	gcScanMBps float64 = 2000
	// swapPenaltyRatio is the response-time inflation per unit of faulting
	// heap fraction (GC cycles touch swapped heap pages).
	swapPenaltyRatio float64 = 2.5
	// wrongVictimRate mirrors the memcache model: fraction of cold-pool
	// swap victims that are actually hot pages.
	wrongVictimRate float64 = 0.08
	// vmMemoryMB is the hosting VM's memory; the aware policy sizes the
	// heap to availability, integrating deflation targets.
	vmMemoryMB float64 = 16384
)

// memHeadroomMB is the guest memory left free by the heap-sizing policy.
const memHeadroomMB = 256 + 128

// App is the JVM workload as a deflatable application (vm.Application).
type App struct {
	cfg     AppConfig
	heapMB  float64 // current max (and committed) heap
	availMB float64 // believed memory availability inside the VM
	baseRT  float64 // response time at full resources, for normalization
}

// NewApp builds a JVM application.
func NewApp(cfg AppConfig) (*App, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxHeapMB <= 0 || cfg.LiveMB <= 0 {
		return nil, fmt.Errorf("jvm: MaxHeapMB and LiveMB must be positive, got %g/%g", cfg.MaxHeapMB, cfg.LiveMB)
	}
	if cfg.LiveMB*heapFloorFactor > cfg.MaxHeapMB {
		return nil, fmt.Errorf("jvm: heap %gMB cannot hold live set %gMB with floor factor %g",
			cfg.MaxHeapMB, cfg.LiveMB, heapFloorFactor)
	}
	a := &App{cfg: cfg, heapMB: cfg.MaxHeapMB, availMB: vmMemoryMB}
	a.baseRT = a.rtWithHeap(cfg.MaxHeapMB, 1, 0)
	return a, nil
}

// Name implements vm.Application.
func (a *App) Name() string { return "specjbb" }

// HeapMB returns the current maximum heap size.
func (a *App) HeapMB() float64 { return a.heapMB }

// Footprint implements vm.Application: the committed heap plus native
// overhead, all anonymous memory.
func (a *App) Footprint() (float64, float64) { return overheadMB + a.heapMB, 0 }

// SelfDeflate implements vm.Application: trigger GC and shrink the max heap
// to fit the post-deflation memory availability ("we set the max heap size
// to the actual physical memory availability to avoid swapping", §4),
// bounded below by the live set with headroom. The latency is a full
// collection scanning the live data.
func (a *App) SelfDeflate(target restypes.Vector) (restypes.Vector, time.Duration) {
	if !a.cfg.DeflationAware || target.MemoryMB <= 0 {
		return restypes.Vector{}, 0
	}
	a.availMB -= target.MemoryMB
	if a.availMB < 0 {
		a.availMB = 0
	}
	newHeap := a.availMB - memHeadroomMB - overheadMB
	if floor := a.cfg.LiveMB * heapFloorFactor; newHeap < floor {
		newHeap = floor
	}
	if newHeap > a.cfg.MaxHeapMB {
		newHeap = a.cfg.MaxHeapMB
	}
	if newHeap >= a.heapMB {
		return restypes.Vector{}, 0 // enough headroom already
	}
	freed := a.heapMB - newHeap
	a.heapMB = newHeap
	lat := time.Duration(a.cfg.LiveMB / gcScanMBps * float64(time.Second))
	if freed > target.MemoryMB {
		freed = target.MemoryMB
	}
	return restypes.Vector{MemoryMB: freed}, lat
}

// Reinflate implements vm.Application: grow the heap back into restored
// guest memory, leaving the kernel reserve, native overhead, and headroom.
func (a *App) Reinflate(env hypervisor.Env) {
	if !a.cfg.DeflationAware {
		return
	}
	a.availMB = env.GuestMemMB
	newHeap := math.Min(a.cfg.MaxHeapMB, env.GuestMemMB-memHeadroomMB-overheadMB)
	if newHeap > a.heapMB {
		a.heapMB = newHeap
	}
}

// hotSwappedFraction estimates what fraction of the heap is swapped out,
// using the same cold-pool/wrong-victim host model as memcache.
func (a *App) hotSwappedFraction(env hypervisor.Env) float64 {
	if env.SwappedMB <= 0 {
		return 0
	}
	rss, _ := a.Footprint()
	coldPool := env.EverTouchedMB - rss - env.KernelMemMB
	if coldPool < 0 {
		coldPool = 0
	}
	hot := env.SwappedMB - coldPool
	if hot < 0 {
		hot = 0
	}
	hot += wrongVictimRate * math.Min(env.SwappedMB, coldPool) * rss / env.EverTouchedMB
	if hot > rss {
		hot = rss
	}
	return hot / rss
}

// rtWithHeap computes the response time for a given heap size, CPU factor,
// and swapped-heap fraction.
func (a *App) rtWithHeap(heapMB, cpuFactor, swapFrac float64) float64 {
	gc := perfmodel.GCOverhead(a.cfg.LiveMB, heapMB)
	if math.IsInf(gc, 1) {
		return math.Inf(1)
	}
	return baseResponseUS / cpuFactor * (1 + gc) * (1 + swapFrac*swapPenaltyRatio)
}

// ResponseTimeUS returns the request response time in the given environment
// — the Fig. 5d metric. Returns +Inf once OOM-killed.
func (a *App) ResponseTimeUS(env hypervisor.Env) float64 {
	if env.OOMKilled {
		return math.Inf(1)
	}
	cpu := env.EffectiveCores / (a.cfg.Cores * cpuNeedFraction)
	if cpu > 1 {
		cpu = 1
	}
	if cpu <= 0 {
		return math.Inf(1)
	}
	return a.rtWithHeap(a.heapMB, cpu, a.hotSwappedFraction(env))
}

// Throughput implements vm.Application: the fixed-IR throughput is inversely
// proportional to response time.
func (a *App) Throughput(env hypervisor.Env) float64 {
	rt := a.ResponseTimeUS(env)
	if math.IsInf(rt, 1) || rt <= 0 {
		return 0
	}
	t := a.baseRT / rt
	if t > 1 {
		t = 1
	}
	return t
}

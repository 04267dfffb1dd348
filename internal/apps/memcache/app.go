package memcache

import (
	"fmt"
	"math"
	"time"

	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
)

// AppConfig configures a memcached application instance.
//
// The store it manages is real (real LRU, real zipf-driven hit rates); only
// the byte magnitudes are scaled down by Scale so that a simulated 14 GB
// cache does not require 14 GB of test memory.
type AppConfig struct {
	// CacheMB is the configured maximum cache size (simulated MB).
	CacheMB float64
	// DatasetMB is the total size of the backing dataset (simulated MB);
	// keys beyond the cache capacity miss.
	DatasetMB float64
	// Cores is the booted vCPU count used for CPU-scaling (default 4).
	Cores float64
	// DeflationAware enables the §4 application-level deflation policy:
	// shrink the cache via LRU eviction instead of letting the VM swap.
	DeflationAware bool
	// Scale divides simulated bytes to size the real backing store
	// (default 256: a 14 GB simulated cache uses ~56 MB).
	Scale float64
}

func (c AppConfig) withDefaults() AppConfig {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Scale == 0 {
		c.Scale = 256
	}
	return c
}

const (
	// overheadMB is the non-cache process footprint.
	overheadMB float64 = 300
	// cpuNeedFraction is the share of the booted cores the peak load
	// actually saturates: memcached on 4 cores has CPU headroom, so
	// moderate CPU deflation is free (Fig. 1's plateau).
	cpuNeedFraction float64 = 0.55
	// baseKGETS is the peak GET throughput in kGETs/s at full resources
	// (the paper's ≈150 kGETS/s ceiling in Fig. 5c).
	baseKGETS float64 = 150
	// minCacheMB is the smallest cache the policy will shrink to.
	minCacheMB float64 = 64
	// theta is the workload's Zipf locality used in the analytic fault
	// model.
	theta float64 = 0.8
	// swapIOPS is the swap device's random-read capacity that bounds
	// fault-serving throughput (an SSD).
	swapIOPS float64 = 8000
	// swapLatencyRatio is the per-fault service-time inflation relative to
	// an in-memory GET (≈700µs fault vs ≈100µs GET).
	swapLatencyRatio float64 = 7
	// wrongVictimRate is the fraction of host-LRU swap victims that are
	// actually hot application pages when the host evicts from the cold
	// pool — the black-box "wrong pages" effect of §3.1.
	wrongVictimRate float64 = 0.08
	// vmMemoryMB is the memory of the VM hosting the store. The
	// deflation-aware policy sizes the cache to the memory availability
	// inside the VM (§4), integrating deflation targets against this
	// figure.
	vmMemoryMB float64 = 16384
	// workloadSeed seeds the workload generator.
	workloadSeed = 1
)

// realValueBytes is the payload size of items in the scaled-down real store.
const realValueBytes = 1024

// App is the memcached workload as a deflatable application (vm.Application).
// The deflation-aware variant implements the paper's policy: application-
// level deflation for memory (cache resize + LRU eviction), VM-level
// deflation for everything else.
type App struct {
	cfg     AppConfig
	store   *Store
	wl      *Workload
	cacheMB float64 // current simulated max cache size
	availMB float64 // believed memory availability inside the VM

	hitRate      float64 // measured on the real store; refreshed when dirty
	hitRateDirty bool

	baselineKGETS float64 // kGETS at full resources, for normalization
}

// NewApp builds a memcached instance with a warmed, real backing store.
func NewApp(cfg AppConfig) (*App, error) {
	cfg = cfg.withDefaults()
	if cfg.CacheMB <= 0 || cfg.DatasetMB <= 0 {
		return nil, fmt.Errorf("memcache: CacheMB and DatasetMB must be positive, got %g/%g", cfg.CacheMB, cfg.DatasetMB)
	}
	if cfg.DatasetMB < cfg.CacheMB {
		cfg.DatasetMB = cfg.CacheMB
	}

	bytesPerKey := float64(realValueBytes + perItemOverhead + 12) // value + overhead + key
	keys := int(cfg.DatasetMB * 1e6 / cfg.Scale / bytesPerKey)
	if keys < 16 {
		return nil, fmt.Errorf("memcache: dataset too small for scale %g (only %d real keys)", cfg.Scale, keys)
	}
	wl, err := NewWorkload(keys, realValueBytes, 1.1, workloadSeed)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(int64(cfg.CacheMB * 1e6 / cfg.Scale))
	if err != nil {
		return nil, err
	}
	if err := wl.Warm(store); err != nil {
		return nil, err
	}
	a := &App{cfg: cfg, store: store, wl: wl, cacheMB: cfg.CacheMB, availMB: vmMemoryMB, hitRateDirty: true}
	a.baselineKGETS = baseKGETS * a.HitRate()
	return a, nil
}

// memHeadroomMB is the guest memory the sizing policy leaves free: the
// kernel reserve plus a small buffer.
const memHeadroomMB = 256 + 128

// Name implements vm.Application.
func (a *App) Name() string { return "memcached" }

// Store exposes the real backing store (for the live control-plane example
// and integration tests).
func (a *App) Store() *Store { return a.store }

// Workload exposes the load generator.
func (a *App) Workload() *Workload { return a.wl }

// CacheMB returns the current simulated cache capacity.
func (a *App) CacheMB() float64 { return a.cacheMB }

// usedMB converts real store bytes back to simulated MB.
func (a *App) usedMB() float64 { return float64(a.store.UsedBytes()) * a.cfg.Scale / 1e6 }

// Footprint implements vm.Application: memcached is anonymous memory, no
// page cache.
func (a *App) Footprint() (float64, float64) { return overheadMB + a.usedMB(), 0 }

// HitRate measures the GET hit rate of the real store at its current size.
// The measurement is cached until the cache is resized.
func (a *App) HitRate() float64 {
	if a.hitRateDirty {
		a.hitRate = a.wl.MeasureHitRate(a.store, 4000)
		a.hitRateDirty = false
	}
	return a.hitRate
}

// SelfDeflate implements vm.Application. The deflation-aware policy
// "dynamically adjusts the maximum cache size based on the memory
// availability inside the VM" (§4): it integrates the deflation target into
// its availability estimate and shrinks the cache (LRU eviction) only as
// far as needed to keep the footprint resident. The unmodified application
// ignores the request.
func (a *App) SelfDeflate(target restypes.Vector) (restypes.Vector, time.Duration) {
	if !a.cfg.DeflationAware || target.MemoryMB <= 0 {
		return restypes.Vector{}, 0
	}
	a.availMB -= target.MemoryMB
	if a.availMB < 0 {
		a.availMB = 0
	}
	newCache := a.availMB - memHeadroomMB - overheadMB
	if newCache < minCacheMB {
		newCache = minCacheMB
	}
	if newCache > a.cfg.CacheMB {
		newCache = a.cfg.CacheMB
	}
	if newCache >= a.cacheMB {
		return restypes.Vector{}, 0 // enough headroom: nothing to give up
	}
	freedCapacity := a.cacheMB - newCache
	before := a.usedMB()
	if err := a.store.Resize(int64(newCache * 1e6 / a.cfg.Scale)); err != nil {
		return restypes.Vector{}, 0
	}
	a.cacheMB = newCache
	a.hitRateDirty = true
	freed := before - a.usedMB()
	if freed < 0 {
		freed = 0
	}
	// Eviction walks the LRU list and frees items: fast, memory-bandwidth
	// bound (~2 GB/s of simulated data).
	lat := time.Duration(freed / 2048 * float64(time.Second))
	// Report the capacity given up (bounded by the request).
	if freedCapacity > target.MemoryMB {
		freedCapacity = target.MemoryMB
	}
	return restypes.Vector{MemoryMB: freedCapacity}, lat
}

// Reinflate implements vm.Application: grow the cache back into the restored
// guest memory, leaving the kernel reserve, process overhead, and a small
// headroom free. The cache refills through read-through misses, which the
// real store will serve over subsequent runs.
func (a *App) Reinflate(env hypervisor.Env) {
	if !a.cfg.DeflationAware {
		return
	}
	a.availMB = env.GuestMemMB
	newCache := math.Min(a.cfg.CacheMB, env.GuestMemMB-memHeadroomMB-overheadMB)
	if newCache <= a.cacheMB {
		return
	}
	if err := a.store.Resize(int64(newCache * 1e6 / a.cfg.Scale)); err != nil {
		return
	}
	a.cacheMB = newCache
	// Model the eventual refill: clients re-fetch and read-through-fill the
	// popular keys.
	if err := a.wl.Warm(a.store); err == nil {
		a.hitRateDirty = true
	}
}

// KGETS returns the successful-GET throughput (cache hits, in thousands per
// second) in the given environment — the Fig. 5c metric.
func (a *App) KGETS(env hypervisor.Env) float64 {
	if env.OOMKilled {
		return 0
	}
	cpu := env.EffectiveCores / (a.cfg.Cores * cpuNeedFraction)
	if cpu > 1 {
		cpu = 1
	}
	rate := baseKGETS * cpu

	// Swap faults: how much of the application's own resident set did host
	// swapping take? The host evicts its coldest pages first — the "cold
	// pool" of ever-touched-but-now-free guest memory — but a fraction of
	// victims are wrongly-chosen hot pages (black-box reclamation, §3.1).
	rss, _ := a.Footprint()
	faultRate := 0.0
	if env.SwappedMB > 0 && rss > 0 {
		coldPool := env.EverTouchedMB - rss - env.KernelMemMB
		if coldPool < 0 {
			coldPool = 0
		}
		hotSwapped := env.SwappedMB - coldPool
		if hotSwapped < 0 {
			hotSwapped = 0
		}
		hotSwapped += wrongVictimRate * math.Min(env.SwappedMB, coldPool) * rss / env.EverTouchedMB
		if hotSwapped > rss {
			hotSwapped = rss
		}
		frac := (rss - hotSwapped) / rss
		effTheta := theta * env.LocalityFactor
		faultRate = 1 - math.Pow(frac, 1-effTheta)
	}

	if faultRate > 0 {
		// Latency path: each faulting GET is swapLatencyRatio times slower.
		rate = rate / (1 + faultRate*swapLatencyRatio)
		// Device path: the swap device can serve only swapIOPS faults/s.
		if iopsBound := swapIOPS / faultRate / 1000; iopsBound < rate {
			rate = iopsBound
		}
	}

	// Network can cap throughput: each GET returns ~1 KB of payload, so
	// 1 MB/s of network carries ~1 kGETS.
	if env.NetMBps > 0 && env.NetMBps < rate {
		rate = env.NetMBps
	}

	return rate * a.HitRate()
}

// Throughput implements vm.Application: KGETS normalized to the
// full-resource baseline.
func (a *App) Throughput(env hypervisor.Env) float64 {
	if a.baselineKGETS == 0 {
		return 0
	}
	t := a.KGETS(env) / a.baselineKGETS
	if t > 1 {
		t = 1
	}
	return t
}

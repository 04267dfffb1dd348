// Package simcg simulates an OS-level virtualization (cgroup/container)
// substrate — the second backend behind internal/substrate, grounded in
// Pokluda & Lutfiyya's dynamic resource management over OS-level
// virtualization. It models what a container runtime on cgroups v2 gives a
// deflation system, in deliberate contrast to the KVM model:
//
//   - Resizes are cgroup file writes (cpu.max / memory.max): effectively
//     instant (cgroupWriteLatency, 2ms) with no hotplug handshakes and no
//     incremental control loop.
//   - CPU shares are fractional. There is no whole-vCPU quantization and
//     no lock-holder preemption: the host scheduler runs container threads
//     directly, so 2.5 cores of quota is exactly 2.5 effective cores.
//   - The page cache is the host's, shared across containers and not
//     charged against memory.max in this model (cache-heavy workloads
//     deflate deeper for free).
//   - Isolation is weaker. There is no guest kernel to swap behind:
//     writing memory.max below the live RSS (plus runtime overhead) makes
//     the host OOM killer terminate the workload. The substrate reports
//     that boundary as ResizeFloorMB; the mechanism itself performs the
//     harmful resize when asked — honoring the floor is policy's job.
package simcg

import (
	"fmt"
	"math"
	"time"

	"deflation/internal/guestos"
	"deflation/internal/restypes"
	"deflation/internal/substrate"
)

// Compile-time proof that simcg implements the substrate mechanism API.
var (
	_ substrate.Substrate = (*Host)(nil)
	_ substrate.Instance  = (*Container)(nil)
)

// Config describes a physical host running a container runtime.
type Config struct {
	Name     string
	Capacity restypes.Vector // physical CPU cores, memory, disk bw, net bw
}

const (
	// cgroupWriteLatency is the cost of one resize — a cgroup file write
	// plus the kernel applying the new limit. This is the whole mechanism
	// latency: the reason containers deflate in milliseconds where VMs
	// take hotplug and swap time.
	cgroupWriteLatency = 2 * time.Millisecond
	// overheadMB is the per-container runtime overhead (shim, rootfs
	// mounts, namespaces) charged against memory.max.
	overheadMB float64 = 64
	// writeIntensity is the fraction of the RSS dirtied per second, which
	// live migration's pre-copy convergence model consumes (matching
	// guestos).
	writeIntensity float64 = 0.02
)

// Host is a simulated machine running containers. Not safe for concurrent
// use; the simulation is single-threaded.
type Host struct {
	cfg  Config
	pool substrate.Pool[*Container] // name-ordered: Allocated sums it without sorting
}

// NewHost creates a container host with the given physical capacity.
func NewHost(cfg Config) (*Host, error) {
	if !cfg.Capacity.Positive() {
		return nil, fmt.Errorf("simcg: host capacity must be positive in all dimensions, got %v", cfg.Capacity)
	}
	return &Host{cfg: cfg, pool: substrate.NewPool[*Container](cfg.Capacity)}, nil
}

// Name returns the host name.
func (h *Host) Name() string { return h.cfg.Name }

// Kind identifies the substrate implementation.
func (h *Host) Kind() substrate.Kind { return substrate.KindContainer }

// Capacity returns the host's physical capacity.
func (h *Host) Capacity() restypes.Vector { return h.cfg.Capacity }

// Allocated returns the sum of all containers' current limits, iterated in
// name order so floating-point summation is deterministic.
func (h *Host) Allocated() restypes.Vector { return h.pool.Allocated() }

// FreePhysical returns unallocated, unreserved physical capacity. The
// shared page cache lives here: host memory not committed to any
// container's memory.max backs cache pages and is reclaimable on demand,
// so it stays placeable.
func (h *Host) FreePhysical() restypes.Vector { return h.pool.Free() }

// FitsFree reports v.Fits(h.FreePhysical()), mostly without walking the
// containers (substrate.Pool.FitsFree).
func (h *Host) FitsFree(v restypes.Vector) bool { return h.pool.FitsFree(v) }

// Reserve sets aside capacity outside any container (migration streams).
func (h *Host) Reserve(v restypes.Vector) error { return h.pool.Reserve(v) }

// Unreserve returns previously reserved capacity.
func (h *Host) Unreserve(v restypes.Vector) { h.pool.Unreserve(v) }

// Spawn starts a container of the given nominal size. The guest config is
// the shared workload parameterization; a container has no guest kernel,
// so only the footprint-relevant field (the runtime overhead standing in
// for KernelMemMB) applies, and it comes from the host config instead.
func (h *Host) Spawn(name string, size restypes.Vector, _ guestos.Config) (substrate.Instance, error) {
	if _, ok := h.pool.Get(name); ok {
		return nil, fmt.Errorf("%w: %q", substrate.ErrInstanceExists, name)
	}
	if !size.Positive() {
		return nil, fmt.Errorf("simcg: container size must be positive in all dimensions, got %v", size)
	}
	if !h.pool.FitsFree(size) {
		return nil, fmt.Errorf("%w: need %v, free %v", substrate.ErrInsufficientCapacity, size, h.FreePhysical())
	}
	c := &Container{host: h, name: name, size: size, alloc: size}
	h.pool.Put(name, c)
	return c, nil
}

// RestoreInstance materializes a migrated container from a snapshot
// (checkpoint/restore). Admission is by the snapshot's possibly-deflated
// allocation, mirroring the hypervisor substrate, and snapshots from a
// different substrate kind are rejected.
func (h *Host) RestoreInstance(s substrate.Snapshot) (substrate.Instance, error) {
	if s.Kind != substrate.KindContainer {
		return nil, fmt.Errorf("%w: %q snapshot is %q", substrate.ErrKindMismatch, s.Name, s.Kind)
	}
	if s.Container == nil {
		return nil, fmt.Errorf("simcg: snapshot %q has no container state", s.Name)
	}
	if _, ok := h.pool.Get(s.Name); ok {
		return nil, fmt.Errorf("%w: %q", substrate.ErrInstanceExists, s.Name)
	}
	if !s.Size.Positive() {
		return nil, fmt.Errorf("simcg: snapshot size must be positive in all dimensions, got %v", s.Size)
	}
	alloc := s.Alloc.Min(s.Size).ClampNonNegative()
	if !h.pool.FitsFree(alloc) {
		return nil, fmt.Errorf("%w: restoring %v, free %v", substrate.ErrInsufficientCapacity, alloc, h.FreePhysical())
	}
	if s.Container.RSSMB+overheadMB > alloc.MemoryMB {
		return nil, fmt.Errorf("simcg: snapshot %q RSS %.0f MB does not fit restored memory.max %.0f MB",
			s.Name, s.Container.RSSMB, alloc.MemoryMB)
	}
	c := &Container{
		host: h, name: s.Name, size: s.Size, alloc: alloc,
		rssMB: s.Container.RSSMB, cacheMB: s.Container.PageCacheMB,
		oomKilled: s.Container.OOMKilled,
	}
	h.pool.Put(s.Name, c)
	return c, nil
}

// Container is one cgroup: a nominal size and the cpu.max/memory.max
// limits currently written, plus the live application footprint.
type Container struct {
	host  *Host
	name  string
	size  restypes.Vector // nominal (requested) size
	alloc restypes.Vector // current limits (cpu.max, memory.max, io/net)

	rssMB     float64 // application resident set, charged against memory.max
	cacheMB   float64 // page-cache appetite, served from the host's shared cache
	oomKilled bool
	dead      bool
}

// Name returns the container name.
func (c *Container) Name() string { return c.name }

// Kind identifies the backing substrate.
func (c *Container) Kind() substrate.Kind { return substrate.KindContainer }

// Size returns the nominal (requested) size.
func (c *Container) Size() restypes.Vector { return c.size }

// Allocation returns the current limits.
func (c *Container) Allocation() restypes.Vector { return c.alloc }

// Destroyed reports whether the container has been destroyed.
func (c *Container) Destroyed() bool { return c.dead }

// Destroy terminates the container and releases its limits.
func (c *Container) Destroy() {
	if c.dead {
		return
	}
	c.dead = true
	c.host.pool.Delete(c.name)
}

// MarkWarm is a no-op: a cgroup has no touched-footprint high-water mark —
// uncharged pages were never this container's to begin with.
func (c *Container) MarkWarm() {}

// ResizeFloorMB reports the memory.max below which the host OOM killer
// would fire: the live RSS plus the runtime overhead. The cascade and
// SLOGuard consult this; the mechanism itself will happily undershoot it.
func (c *Container) ResizeFloorMB() float64 { return c.rssMB + overheadMB }

// SetAppFootprint records the application's resident set and page-cache
// appetite. RSS is charged against memory.max — growing it past the limit
// OOM-kills the container, exactly like a real cgroup. Cache is served
// from the host's shared pool and clamped to what that pool can hold.
func (c *Container) SetAppFootprint(rssMB, pageCacheMB float64) {
	c.rssMB = math.Max(0, rssMB)
	// The shared cache pool is host memory not committed to any cgroup.
	pool := c.host.FreePhysical().MemoryMB + c.cacheMB
	c.cacheMB = math.Min(math.Max(0, pageCacheMB), pool)
	c.checkOOM()
}

func (c *Container) checkOOM() {
	if c.rssMB+overheadMB > c.alloc.MemoryMB {
		c.oomKilled = true
	}
}

// OOMKilled reports whether the host OOM killer fired in this cgroup.
func (c *Container) OOMKilled() bool { return c.oomKilled }

// DirtyRateMBps is the container's page-dirtying rate.
func (c *Container) DirtyRateMBps() float64 { return c.rssMB * writeIntensity }

// SetAllocation writes new cpu.max/memory.max limits (element-wise clamped
// to the nominal size). Growth must fit in free physical capacity. The
// latency is one cgroup write — there is no hotplug and no swap: this is the millisecond resize that makes containers the cheap
// deflation substrate. The flip side is enforced here too: a memory limit
// below the live RSS plus overhead has nothing to swap to, so the host OOM
// killer terminates the workload (the mechanism does NOT refuse — policy
// must consult ResizeFloorMB).
func (c *Container) SetAllocation(target restypes.Vector) (time.Duration, error) {
	if c.dead {
		return 0, substrate.ErrInstanceDestroyed
	}
	target = target.Min(c.size).ClampNonNegative()
	if grow := target.Sub(c.alloc).ClampNonNegative(); !grow.IsZero() && !c.host.pool.FitsFree(grow) {
		return 0, fmt.Errorf("%w: growing by %v, free %v", substrate.ErrInsufficientCapacity, grow, c.host.FreePhysical())
	}
	c.host.pool.Resize(c.alloc, target)
	c.alloc = target
	c.checkOOM()
	return cgroupWriteLatency, nil
}

// Env computes the container's effective execution environment. The
// differences from a domain's Env are the whole point of the substrate:
// EffectiveCores equals the fractional CPU quota exactly (no vCPU
// quantization, no lock-holder preemption), no
// memory is ever swapped, and locality is never degraded by blind host
// swapping. VCPUs is reported as the scheduler-visible ceil of the quota
// for sizing heuristics only.
func (c *Container) Env() substrate.Env {
	vcpus := int(math.Ceil(c.alloc.CPU))
	if vcpus < 1 {
		vcpus = 1
	}
	resident := math.Min(c.rssMB+overheadMB, c.alloc.MemoryMB)
	return substrate.Env{
		Kind:           substrate.KindContainer,
		VCPUs:          vcpus,
		PhysCores:      c.alloc.CPU,
		EffectiveCores: c.alloc.CPU,
		GuestMemMB:     c.alloc.MemoryMB,
		ResidentMB:     resident,
		SwappedMB:      0,
		EverTouchedMB:  resident + c.cacheMB,
		KernelMemMB:    overheadMB,
		LocalityFactor: 1,
		DiskMBps:       c.alloc.DiskMBps,
		NetMBps:        c.alloc.NetMBps,
		OOMKilled:      c.oomKilled,
	}
}

// Snapshot captures the container's transferable state (checkpoint).
func (c *Container) Snapshot() substrate.Snapshot {
	return substrate.Snapshot{
		Kind:  substrate.KindContainer,
		Name:  c.name,
		Size:  c.size,
		Alloc: c.alloc,
		Container: &substrate.ContainerState{
			RSSMB:       c.rssMB,
			PageCacheMB: c.cacheMB,
			OOMKilled:   c.oomKilled,
		},
	}
}

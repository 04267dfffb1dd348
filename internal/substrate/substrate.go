// Package substrate defines the mechanism surface that the reclamation
// layers (cascade, cluster, migration, interactive) consume: spawn a
// workload of a nominal size, resize its physical allocation, observe the
// effective execution environment, snapshot/restore it for migration, and
// enumerate the host's inventory.
//
// The paper's deflation mechanisms are VM-shaped (guest hot-unplug,
// hypervisor cgroup dampening), but the *policy* layer above them is
// substrate-agnostic. Two implementations exist:
//
//   - internal/hypervisor — the paper's KVM model ("simkvm"): whole-vCPU
//     hot-unplug, swap-bound reclamation latency, lock-holder preemption when
//     vCPUs outnumber physical cores, host swap when the memory limit
//     undershoots the touched footprint.
//   - internal/simcg — a cgroup/container model: near-instant cpu.max /
//     memory.max writes, fractional CPU shares (no quantization, no LHP),
//     shared host page cache, but weaker isolation — shrinking memory.max
//     below the live RSS OOM-kills the workload instead of swapping.
//
// Policy code that must stay substrate-portable keys off Instance and Env
// only; VM-only mechanisms (guest OS hotplug) are reached through
// optional capability interfaces (GuestBacked) and must never leak into
// shared paths.
package substrate

import (
	"errors"
	"time"

	"deflation/internal/guestos"
	"deflation/internal/restypes"
)

// Kind names a substrate implementation. The zero value ("") is treated as
// KindHypervisor everywhere for compatibility with state written before the
// abstraction existed.
type Kind string

const (
	// KindHypervisor is the simulated KVM hypervisor (internal/hypervisor).
	KindHypervisor Kind = "hypervisor"
	// KindContainer is the simulated cgroup/container backend (internal/simcg).
	KindContainer Kind = "container"
)

// Normalize maps the zero value to KindHypervisor (pre-abstraction state).
func (k Kind) Normalize() Kind {
	if k == "" {
		return KindHypervisor
	}
	return k
}

// Sentinel errors shared by every substrate's host and instance operations.
// internal/hypervisor aliases these under its historical names
// (ErrDomainExists etc.), so errors.Is works across substrates.
var (
	ErrInsufficientCapacity = errors.New("substrate: insufficient physical capacity")
	ErrInstanceExists       = errors.New("substrate: instance already exists")
	ErrInstanceNotFound     = errors.New("substrate: instance not found")
	ErrInstanceDestroyed    = errors.New("substrate: instance destroyed")
	// ErrKindMismatch is returned when restoring a snapshot onto a substrate
	// of a different kind (a container checkpoint cannot boot as a VM).
	ErrKindMismatch = errors.New("substrate: snapshot kind does not match substrate")
)

// Instance is one running workload on a substrate: a VM (hypervisor domain)
// or a container (cgroup). It exposes exactly the mechanism surface the
// reclamation policy layers use.
type Instance interface {
	// Name returns the instance name, unique on its substrate.
	Name() string
	// Kind identifies the backing substrate.
	Kind() Kind
	// Size returns the nominal (booted/requested) size.
	Size() restypes.Vector
	// Allocation returns the current physical allocation (cgroup limits).
	Allocation() restypes.Vector
	// SetAllocation adjusts the physical allocation toward target
	// (element-wise clamped to the nominal size). It returns the mechanism
	// latency: swap-out time on the hypervisor substrate, a cgroup write on
	// the container substrate. The mechanism performs the resize even when
	// it is harmful (a container memory.max below live RSS OOM-kills the
	// workload) — honoring ResizeFloorMB is the policy layer's job.
	SetAllocation(target restypes.Vector) (time.Duration, error)
	// ResizeFloorMB is the substrate-reported memory floor below which
	// SetAllocation would kill rather than squeeze the workload. Zero means
	// the substrate degrades gracefully below any floor (the hypervisor
	// swaps); the container substrate reports live RSS plus runtime
	// overhead, and the cascade/SLOGuard must not plan below it.
	ResizeFloorMB() float64
	// SetAppFootprint tells the substrate the application's resident set
	// and page-cache appetite, so accounting (and OOM checks) track it.
	SetAppFootprint(rssMB, pageCacheMB float64)
	// DirtyRateMBps is the instance's page-dirtying rate, which live
	// migration's pre-copy convergence model consumes.
	DirtyRateMBps() float64
	// MarkWarm records that the workload has run long enough to have
	// touched all of its memory (no-op on substrates without a
	// touched-footprint model).
	MarkWarm()
	// Env computes the effective execution environment the application
	// sees; performance models consume this snapshot.
	Env() Env
	// Snapshot captures the instance's transferable state.
	Snapshot() Snapshot
	// Destroy terminates the instance and releases its allocation.
	Destroy()
	// Destroyed reports whether the instance has been destroyed.
	Destroyed() bool
}

// GuestBacked is implemented by instances that run a guest OS kernel
// (hypervisor domains). OS-level deflation mechanisms — vCPU and memory
// hot-unplug — exist only behind this capability; container
// instances do not implement it and the cascade skips the OS level for
// them.
type GuestBacked interface {
	Guest() *guestos.GuestOS
}

// Substrate is a host-level mechanism provider: one physical machine's
// worth of capacity plus the inventory of instances it runs.
type Substrate interface {
	// Name returns the host name.
	Name() string
	// Kind identifies the implementation.
	Kind() Kind
	// Capacity returns the host's physical capacity.
	Capacity() restypes.Vector
	// Allocated returns the sum of all instances' current allocations.
	Allocated() restypes.Vector
	// FreePhysical returns unallocated, unreserved physical capacity.
	FreePhysical() restypes.Vector
	// FitsFree reports v.Fits(FreePhysical()), decided from a running
	// total of the allocations wherever that is exact (Pool.FitsFree).
	FitsFree(v restypes.Vector) bool
	// Reserve sets aside capacity outside any instance (migration streams).
	Reserve(v restypes.Vector) error
	// Unreserve returns previously reserved capacity.
	Unreserve(v restypes.Vector)
	// Spawn boots an instance of the given nominal size. The guest config
	// parameterizes the workload's kernel/runtime model; substrates without
	// a guest OS consume only the footprint-relevant fields.
	Spawn(name string, size restypes.Vector, guestCfg guestos.Config) (Instance, error)
	// RestoreInstance materializes a migrated instance from a snapshot,
	// admitting by the snapshot's (possibly deflated) allocation. It fails
	// with ErrKindMismatch when the snapshot came from a different
	// substrate kind.
	RestoreInstance(s Snapshot) (Instance, error)
}

// Env is the effective execution environment an instance's application
// sees. Application performance models consume this snapshot. The zero
// Kind means hypervisor (pre-abstraction Env literals remain valid).
type Env struct {
	// Kind identifies the substrate that produced this environment, so
	// substrate-aware planners (SLOGuard) can model its resize mechanics —
	// whole-vCPU quantization on hypervisors, fractional shares on
	// containers.
	Kind Kind
	// VCPUs is the number of vCPUs plugged into the guest. On containers
	// it is the scheduler-visible CPU count (ceil of the share), reported
	// for sizing heuristics only — no quantization applies.
	VCPUs int
	// PhysCores is the physical CPU capacity backing those vCPUs.
	PhysCores float64
	// EffectiveCores is PhysCores after the lock-holder-preemption penalty
	// for multiplexing VCPUs onto fewer physical cores (hypervisor only —
	// container shares carry no LHP).
	EffectiveCores float64
	// GuestMemMB is the memory the guest OS (and application) believes it
	// has — what application-level sizing policies observe.
	GuestMemMB float64
	// ResidentMB is the host-resident (ever-touched) guest memory actually
	// backed by physical frames; the remainder (SwappedMB) lives on the
	// host swap device.
	ResidentMB float64
	// SwappedMB is host-resident guest memory currently swapped out.
	// Always zero on containers: cgroups v2 memory.max undershoot
	// OOM-kills instead of swapping in this model.
	SwappedMB float64
	// EverTouchedMB is the guest memory the host considers live (see
	// MarkWarm); swap victims are drawn from it.
	EverTouchedMB float64
	// KernelMemMB is the guest kernel reserve (container runtime overhead
	// on the container substrate), so application models can separate
	// their own pages from the rest of the footprint.
	KernelMemMB float64
	// LocalityFactor degrades the workload's access locality when host
	// swapping (rather than the application) chose the evicted pages.
	LocalityFactor float64
	// DiskMBps and NetMBps are the throttled I/O bandwidths.
	DiskMBps, NetMBps float64
	// OOMKilled reports that the OOM killer terminated the app — the guest
	// kernel's on VMs, the host kernel's on containers.
	OOMKilled bool
}

// ContainerState is the container-specific half of a Snapshot: the cgroup
// model's live footprint. (The hypervisor half is guestos.Snapshot.)
type ContainerState struct {
	// RSSMB is the application resident set charged against memory.max.
	RSSMB float64 `json:"rss_mb"`
	// PageCacheMB is the container's share of the host's page cache (not
	// charged against memory.max in this model).
	PageCacheMB float64 `json:"page_cache_mb"`
	// OOMKilled records that the host OOM killer fired in the cgroup.
	OOMKilled bool `json:"oom_killed,omitempty"`
}

// Snapshot is the transferable state of an instance, as shipped by live
// migration. It is a tagged union: Kind selects which substrate half is
// populated (Guest for hypervisor domains, Container for cgroups). The
// zero Kind means hypervisor, so snapshots journaled before the
// abstraction restore correctly.
type Snapshot struct {
	Kind          Kind              `json:"kind,omitempty"`
	Name          string            `json:"name"`
	Size          restypes.Vector   `json:"size"`
	Alloc         restypes.Vector   `json:"alloc"`
	EverTouchedMB float64           `json:"ever_touched_mb,omitempty"`
	Guest         *guestos.Snapshot `json:"guest,omitempty"`
	Container     *ContainerState   `json:"container,omitempty"`
}

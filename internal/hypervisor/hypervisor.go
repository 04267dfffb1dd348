// Package hypervisor simulates a KVM-like hypervisor ("simkvm") with the VM
// overcommitment mechanisms the paper's hypervisor-level deflation uses
// (§3.2.3, §5): CPU capacity throttling via cgroup shares, physical memory
// limits with host swapping, and disk/network bandwidth throttling.
//
// The simulator exposes the same mechanism API as the paper's
// libvirt/cgroups prototype and encodes the black-box performance hazards
// the paper measures:
//
//   - multiplexing more vCPUs onto fewer physical cores causes lock-holder
//     preemption (perfmodel.LockHolderPenalty);
//   - memory limits below the guest's touched footprint force host swapping,
//     and because the hypervisor cannot see which guest pages are hot, the
//     effective access locality of the swapped set is degraded
//     (blackboxLocalityFactor);
//   - reclaiming memory takes real (virtual) time bounded by swap-disk
//     bandwidth, run as an incremental control loop (§5: "large memory
//     reclamation operations can often fail, and we use a control loop").
package hypervisor

import (
	"fmt"
	"time"

	"deflation/internal/guestos"
	"deflation/internal/perfmodel"
	"deflation/internal/restypes"
	"deflation/internal/substrate"
)

// Sentinel errors returned by host and domain operations. These alias the
// substrate-level sentinels so errors.Is matches regardless of which
// substrate produced the error.
var (
	ErrInsufficientCapacity = substrate.ErrInsufficientCapacity
	ErrDomainExists         = substrate.ErrInstanceExists
	ErrDomainNotFound       = substrate.ErrInstanceNotFound
	ErrDomainDestroyed      = substrate.ErrInstanceDestroyed
)

// Compile-time proof that simkvm implements the substrate mechanism API.
var (
	_ substrate.Substrate   = (*Host)(nil)
	_ substrate.Instance    = (*Domain)(nil)
	_ substrate.GuestBacked = (*Domain)(nil)
)

// Config describes a physical host.
type Config struct {
	Name     string
	Capacity restypes.Vector // physical CPU cores, memory, disk bw, net bw
}

const (
	// swapDiskMBps is the host swap device bandwidth (swap-out dominates
	// memory-reclamation latency, Fig. 8b).
	swapDiskMBps float64 = 200
	// blackboxLocalityFactor scales the guest workload's access locality
	// when the *hypervisor* chooses which pages to swap: it cannot tell hot
	// pages from cold, so host swapping evicts some hot pages.
	blackboxLocalityFactor float64 = 0.5
	// controlLoopOverhead multiplies reclamation latency to account for the
	// incremental retry loop used for large reclamations.
	controlLoopOverhead float64 = 1.15
)

// Host is a simulated physical machine running simkvm. Not safe for
// concurrent use; the simulation is single-threaded.
type Host struct {
	cfg Config
	// pool holds the domains in name order (Allocated sums them without
	// sorting) and the capacity set aside outside any domain's allocation —
	// live-migration streams reserve network bandwidth there so that new
	// domains cannot take it mid-copy.
	pool substrate.Pool[*Domain]
}

// NewHost creates a host with the given physical capacity.
func NewHost(cfg Config) (*Host, error) {
	if !cfg.Capacity.Positive() {
		return nil, fmt.Errorf("hypervisor: host capacity must be positive in all dimensions, got %v", cfg.Capacity)
	}
	return &Host{cfg: cfg, pool: substrate.NewPool[*Domain](cfg.Capacity)}, nil
}

// Name returns the host name.
func (h *Host) Name() string { return h.cfg.Name }

// Kind identifies the substrate implementation.
func (h *Host) Kind() substrate.Kind { return substrate.KindHypervisor }

// Capacity returns the host's physical capacity.
func (h *Host) Capacity() restypes.Vector { return h.cfg.Capacity }

// Allocated returns the sum of all domains' current physical allocations.
// Iteration is in name order so that floating-point summation is
// deterministic across runs.
func (h *Host) Allocated() restypes.Vector { return h.pool.Allocated() }

// FreePhysical returns unallocated, unreserved physical capacity.
func (h *Host) FreePhysical() restypes.Vector { return h.pool.Free() }

// FitsFree reports v.Fits(h.FreePhysical()), mostly without walking the
// domains (substrate.Pool.FitsFree).
func (h *Host) FitsFree(v restypes.Vector) bool { return h.pool.FitsFree(v) }

// Reserve sets aside capacity outside any domain (e.g. network bandwidth for
// a migration stream). It fails when the reservation does not fit in free
// physical capacity.
func (h *Host) Reserve(v restypes.Vector) error { return h.pool.Reserve(v) }

// Unreserve returns previously reserved capacity.
func (h *Host) Unreserve(v restypes.Vector) { h.pool.Unreserve(v) }

// Domain looks up a live domain by name.
func (h *Host) Domain(name string) (*Domain, error) {
	d, ok := h.pool.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrDomainNotFound, name)
	}
	return d, nil
}

// Spawn boots a domain — the substrate-interface spelling of CreateDomain.
func (h *Host) Spawn(name string, size restypes.Vector, guestCfg guestos.Config) (substrate.Instance, error) {
	d, err := h.CreateDomain(name, size, guestCfg)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// RestoreInstance materializes a migrated domain from a snapshot — the
// substrate-interface spelling of RestoreDomain. Snapshots from another
// substrate kind are rejected: a container checkpoint cannot boot as a VM.
func (h *Host) RestoreInstance(s substrate.Snapshot) (substrate.Instance, error) {
	d, err := h.RestoreDomain(s)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// CreateDomain boots a VM of the given nominal size with a matching guest
// OS. The initial physical allocation equals the nominal size, so creation
// fails with ErrInsufficientCapacity unless the size fits in free physical
// capacity — the cluster manager must deflate other VMs first (§5).
func (h *Host) CreateDomain(name string, size restypes.Vector, guestCfg guestos.Config) (*Domain, error) {
	if _, ok := h.pool.Get(name); ok {
		return nil, fmt.Errorf("%w: %q", ErrDomainExists, name)
	}
	if !size.Positive() {
		return nil, fmt.Errorf("hypervisor: domain size must be positive in all dimensions, got %v", size)
	}
	if !h.pool.FitsFree(size) {
		return nil, fmt.Errorf("%w: need %v, free %v", ErrInsufficientCapacity, size, h.FreePhysical())
	}
	if guestCfg.CPUs == 0 {
		guestCfg.CPUs = int(size.CPU)
	}
	if guestCfg.MemoryMB == 0 {
		guestCfg.MemoryMB = size.MemoryMB
	}
	g, err := guestos.New(guestCfg)
	if err != nil {
		return nil, err
	}
	d := &Domain{host: h, name: name, size: size, alloc: size, guest: g}
	d.everTouchedMB = d.touchedMB()
	h.pool.Put(name, d)
	return d, nil
}

// Domain is a simulated VM: a nominal size, a guest OS, and the cgroup-style
// physical allocation the hypervisor currently grants it.
type Domain struct {
	host  *Host
	name  string
	size  restypes.Vector // nominal (booted) size
	alloc restypes.Vector // current physical allocation (cgroup limits)
	guest guestos.GuestOS
	dead  bool

	// everTouchedMB is the high-water mark of guest memory that has ever
	// been materialized in the VM process. From the host's point of view
	// this — not the guest's current footprint — is what a memory limit
	// must swap against: guest pages freed internally still occupy host
	// frames until they are hot-unplugged (which releases them) or swapped.
	// A freshly booted guest has touched only its current footprint; a
	// long-running one has typically touched everything (see MarkWarm).
	everTouchedMB float64
}

// Name returns the domain name.
func (d *Domain) Name() string { return d.name }

// Kind identifies the backing substrate.
func (d *Domain) Kind() substrate.Kind { return substrate.KindHypervisor }

// ResizeFloorMB is zero for domains: a memory limit below the live
// footprint degrades into host swapping rather than killing the guest, so
// there is no hard floor the policy layer must honor.
func (d *Domain) ResizeFloorMB() float64 { return 0 }

// SetAppFootprint forwards the application's footprint to the guest OS.
func (d *Domain) SetAppFootprint(rssMB, pageCacheMB float64) {
	d.guest.SetAppFootprint(rssMB, pageCacheMB)
}

// DirtyRateMBps is the guest's page-dirtying rate (pre-copy convergence).
func (d *Domain) DirtyRateMBps() float64 { return d.guest.DirtyRateMBps() }

// Size returns the nominal booted size.
func (d *Domain) Size() restypes.Vector { return d.size }

// Allocation returns the current physical allocation (cgroup limits).
func (d *Domain) Allocation() restypes.Vector { return d.alloc }

// Guest returns the domain's guest OS.
func (d *Domain) Guest() *guestos.GuestOS { return &d.guest }

// Destroyed reports whether the domain has been destroyed.
func (d *Domain) Destroyed() bool { return d.dead }

// Destroy terminates the domain and releases its physical allocation. This
// is the preemption mechanism: from the application's perspective it is a
// fail-stop failure.
func (d *Domain) Destroy() {
	if d.dead {
		return
	}
	d.dead = true
	d.host.pool.Delete(d.name)
}

// SetAllocation adjusts the domain's physical allocation to target
// (element-wise clamped to the nominal size, and floored at a minimal
// viable allocation). Raising memory requires free physical capacity.
// It returns the reclamation latency: lowering the memory limit below the
// guest's touched footprint swaps pages out at swap-disk bandwidth.
func (d *Domain) SetAllocation(target restypes.Vector) (time.Duration, error) {
	if d.dead {
		return 0, ErrDomainDestroyed
	}
	target = target.Min(d.size).ClampNonNegative()

	// Growth must fit in free physical capacity (own current allocation is
	// already accounted, so only the delta matters); a shrink skips the check.
	if grow := target.Sub(d.alloc).ClampNonNegative(); !grow.IsZero() && !d.host.pool.FitsFree(grow) {
		return 0, fmt.Errorf("%w: growing by %v, free %v", ErrInsufficientCapacity, grow, d.host.FreePhysical())
	}

	var latency time.Duration
	// Memory reclamation latency: swapping out the newly unbacked portion of
	// the host-resident (ever-touched) footprint.
	if target.MemoryMB < d.alloc.MemoryMB {
		touched := d.refreshEverTouched()
		oldResident := minf(d.alloc.MemoryMB, touched)
		newResident := minf(target.MemoryMB, touched)
		if swapOut := oldResident - newResident; swapOut > 0 {
			secs := swapOut / swapDiskMBps * controlLoopOverhead
			latency = time.Duration(secs * float64(time.Second))
		}
	}
	d.host.pool.Resize(d.alloc, target)
	d.alloc = target
	return latency, nil
}

// MarkWarm records that the guest has been running long enough to have
// touched all of its memory (allocator and page-cache churn). Experiments
// call this to model a warmed-up VM; a fresh boot has touched only its
// current footprint.
func (d *Domain) MarkWarm() { d.everTouchedMB = d.guest.MemoryMB() }

// refreshEverTouched reconciles the high-water mark with the guest's
// current state: it can only grow through current footprint growth, and it
// shrinks when hot-unplug physically releases frames.
func (d *Domain) refreshEverTouched() float64 {
	if mem := d.guest.MemoryMB(); d.everTouchedMB > mem {
		d.everTouchedMB = mem
	}
	if t := d.touchedMB(); d.everTouchedMB < t {
		d.everTouchedMB = t
	}
	return d.everTouchedMB
}

// touchedMB is the guest memory the hypervisor must back with physical
// frames or swap: kernel, application RSS, and page cache. (Free guest
// pages are assumed hinted-free and need no backing.)
func (d *Domain) touchedMB() float64 {
	return d.guest.Config().KernelMemMB + d.guest.AppRSSMB() + d.guest.PageCacheMB()
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// DomainSnapshot is the transferable state of an instance, as shipped by
// live migration. For domains it carries the nominal size, the current
// (possibly deflated) allocation, the host-resident high-water mark, and
// the guest kernel's state. It is now an alias of the substrate-level
// tagged union so checkpoints flow through migration and the WAL
// regardless of substrate kind.
type DomainSnapshot = substrate.Snapshot

// Snapshot captures the domain's transferable state.
func (d *Domain) Snapshot() DomainSnapshot {
	g := d.guest.Snapshot()
	return DomainSnapshot{
		Kind:          substrate.KindHypervisor,
		Name:          d.name,
		Size:          d.size,
		Alloc:         d.alloc,
		EverTouchedMB: d.refreshEverTouched(),
		Guest:         &g,
	}
}

// RestoreDomain materializes a migrated domain from a snapshot. Admission is
// by the snapshot's *allocation*, not its nominal size: a deflated VM needs
// only its deflated footprint on the destination — the reason deflation and
// migration compose (a deflated VM fits more destinations). The domain may
// later reinflate toward its nominal size through SetAllocation, subject to
// the usual capacity checks.
func (h *Host) RestoreDomain(s DomainSnapshot) (*Domain, error) {
	if s.Kind.Normalize() != substrate.KindHypervisor {
		return nil, fmt.Errorf("%w: %q snapshot is %q", substrate.ErrKindMismatch, s.Name, s.Kind)
	}
	if s.Guest == nil {
		return nil, fmt.Errorf("hypervisor: snapshot %q has no guest state", s.Name)
	}
	if _, ok := h.pool.Get(s.Name); ok {
		return nil, fmt.Errorf("%w: %q", ErrDomainExists, s.Name)
	}
	if !s.Size.Positive() {
		return nil, fmt.Errorf("hypervisor: snapshot size must be positive in all dimensions, got %v", s.Size)
	}
	alloc := s.Alloc.Min(s.Size).ClampNonNegative()
	if !h.pool.FitsFree(alloc) {
		return nil, fmt.Errorf("%w: restoring %v, free %v", ErrInsufficientCapacity, alloc, h.FreePhysical())
	}
	g, err := guestos.Restore(*s.Guest)
	if err != nil {
		return nil, err
	}
	d := &Domain{host: h, name: s.Name, size: s.Size, alloc: alloc, guest: g}
	d.everTouchedMB = s.EverTouchedMB
	d.refreshEverTouched()
	h.pool.Put(s.Name, d)
	return d, nil
}

// Env is the effective execution environment a domain's application sees.
// Application performance models consume this snapshot. It is an alias of
// the substrate-level Env so performance models stay substrate-portable;
// the zero Kind means hypervisor, so existing Env literals are unchanged.
type Env = substrate.Env

// Env computes the domain's current effective environment.
func (d *Domain) Env() Env {
	vcpus := d.guest.CPUs()
	phys := minf(d.alloc.CPU, float64(vcpus))
	eff := phys
	locality := 1.0
	if float64(vcpus) > phys && phys > 0 {
		eff = phys * perfmodel.LockHolderPenalty(float64(vcpus)/phys)
	}
	touched := d.refreshEverTouched()
	resident := minf(d.alloc.MemoryMB, touched)
	swapped := touched - resident
	if swapped > 0 {
		locality = blackboxLocalityFactor
	}
	return Env{
		Kind:           substrate.KindHypervisor,
		VCPUs:          vcpus,
		PhysCores:      phys,
		EffectiveCores: eff,
		GuestMemMB:     d.guest.MemoryMB(),
		ResidentMB:     resident,
		SwappedMB:      swapped,
		EverTouchedMB:  touched,
		KernelMemMB:    d.guest.Config().KernelMemMB,
		LocalityFactor: locality,
		DiskMBps:       d.alloc.DiskMBps,
		NetMBps:        d.alloc.NetMBps,
		OOMKilled:      d.guest.OOMKilled(),
	}
}

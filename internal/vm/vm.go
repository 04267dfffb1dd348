// Package vm composes a substrate instance (a hypervisor domain or a
// container cgroup) and an application into a deflatable VM — the unit the
// paper's cascade deflation and cluster manager operate on (§3, §5).
//
// A deflatable VM carries a priority class (high-priority VMs are never
// deflated or preempted), an optional minimum size m_i below which deflation
// is unsafe and preemption is used instead, and the application whose
// deflation policy participates in the cascade.
package vm

import (
	"fmt"
	"time"

	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/substrate"
)

// Priority classifies a VM for reclamation purposes.
type Priority int

const (
	// LowPriority VMs are deflatable (and, past their minimum size,
	// preemptible). These are the transient VMs.
	LowPriority Priority = iota
	// HighPriority VMs are non-deflatable and non-preemptible.
	HighPriority
)

// String returns "low" or "high".
func (p Priority) String() string {
	if p == HighPriority {
		return "high"
	}
	return "low"
}

// Application is implemented by workloads that run inside a deflatable VM.
// Implementations live in internal/apps and internal/spark.
//
// All methods are invoked from the single-threaded simulation loop.
type Application interface {
	// Name identifies the workload (for logs and reports).
	Name() string

	// Footprint returns the application's current memory footprint: its
	// resident set and the page cache it generates. The VM propagates this
	// to the substrate after every change.
	Footprint() (rssMB, pageCacheMB float64)

	// SelfDeflate asks the application to voluntarily relinquish resources
	// toward the reclamation target (absolute amounts). It returns what was
	// actually relinquished — possibly zero for inelastic applications —
	// and the latency of the application-level mechanism (LRU eviction,
	// GC, task termination). Per §3.2.1 this is best-effort: applications
	// may ignore the request entirely.
	SelfDeflate(target restypes.Vector) (relinquished restypes.Vector, latency time.Duration)

	// Reinflate notifies the application that previously reclaimed
	// resources are available again, with its new full environment.
	Reinflate(env hypervisor.Env)

	// Throughput returns the application's normalized performance (1 = full
	// allocation) in the given environment. Returns 0 once OOM-killed.
	Throughput(env hypervisor.Env) float64
}

// EnvObserver is optionally implemented by applications that need to track
// their effective environment as it changes (e.g. a Spark worker updating
// its executor's task speed after VM-level deflation). The cascade
// controller calls ObserveEnv after every deflation and reinflation.
type EnvObserver interface {
	ObserveEnv(env hypervisor.Env)
}

// ObserveEnv pushes the VM's current environment to the application if it
// implements EnvObserver, and moves the generation.
func (v *VM) ObserveEnv() {
	v.gen++
	if obs, ok := v.app.(EnvObserver); ok {
		obs.ObserveEnv(v.inst.Env())
	}
}

// VM is a deflatable (or high-priority, non-deflatable) virtual machine —
// or, on the container substrate, a deflatable container. The historical
// name sticks: the policy layers treat both uniformly.
type VM struct {
	inst     substrate.Instance
	app      Application
	priority Priority
	size     restypes.Vector // M_i: the instance's nominal size, fixed at boot on every substrate
	minSize  restypes.Vector // m_i: deflation floor; zero means "fully deflatable"
	gen      uint64          // see Generation
}

// Config bundles VM creation parameters.
type Config struct {
	Priority Priority
	// MinSize is the minimum viable allocation m_i (§5). Deflating below it
	// is refused by policy; the cluster manager preempts instead. A zero
	// vector (the default) means the VM tolerates arbitrary deflation.
	MinSize restypes.Vector
}

// New wraps a booted hypervisor domain and its application as a deflatable
// VM. NewOn is the substrate-generic spelling.
func New(dom *hypervisor.Domain, app Application, cfg Config) (*VM, error) {
	if dom == nil {
		return nil, fmt.Errorf("vm: nil domain")
	}
	return NewOn(dom, app, cfg)
}

// NewOn wraps a booted substrate instance and its application as a
// deflatable VM.
func NewOn(inst substrate.Instance, app Application, cfg Config) (*VM, error) {
	if inst == nil {
		return nil, fmt.Errorf("vm: nil instance")
	}
	if app == nil {
		return nil, fmt.Errorf("vm: nil application")
	}
	if !cfg.MinSize.Fits(inst.Size()) {
		return nil, fmt.Errorf("vm: min size %v exceeds VM size %v", cfg.MinSize, inst.Size())
	}
	v := &VM{inst: inst, app: app, priority: cfg.Priority, size: inst.Size(), minSize: cfg.MinSize}
	v.SyncFootprint()
	return v, nil
}

// Name returns the underlying instance name.
func (v *VM) Name() string { return v.inst.Name() }

// Instance returns the underlying substrate instance.
func (v *VM) Instance() substrate.Instance { return v.inst }

// Substrate returns the instance's substrate kind.
func (v *VM) Substrate() substrate.Kind { return v.inst.Kind() }

// Domain returns the underlying hypervisor domain, or nil when the VM runs
// on a non-hypervisor substrate. Policy code must treat nil as "no
// VM-level mechanisms" — prefer Instance for substrate-portable paths.
func (v *VM) Domain() *hypervisor.Domain {
	d, _ := v.inst.(*hypervisor.Domain)
	return d
}

// Guest returns the guest OS kernel for guest-backed (hypervisor)
// instances, or nil on substrates without one. The cascade's OS level and
// anything touching hotplug must gate on this.
func (v *VM) Guest() *guestos.GuestOS {
	if gb, ok := v.inst.(substrate.GuestBacked); ok {
		return gb.Guest()
	}
	return nil
}

// App returns the application running in the VM.
func (v *VM) App() Application { return v.app }

// Priority returns the VM's priority class.
func (v *VM) Priority() Priority { return v.priority }

// Size returns the nominal booted size M_i.
func (v *VM) Size() restypes.Vector { return v.size }

// Allocation returns the current physical allocation.
func (v *VM) Allocation() restypes.Vector { return v.inst.Allocation() }

// SetAllocation resizes the instance toward target (substrate.Instance's
// SetAllocation) and moves the generation, whether or not the resize
// succeeds. Every resize of a running VM goes through here.
func (v *VM) SetAllocation(target restypes.Vector) (time.Duration, error) {
	v.gen++
	return v.inst.SetAllocation(target)
}

// Generation counts the VM methods that may change its environment or its
// application's state: SetAllocation, SyncFootprint and ObserveEnv. Code
// that changes the guest or the application through Guest or App must end
// with one of them, as every cascade deflation and reinflation ends with
// ObserveEnv. While the generation stands still, Throughput returns what it
// returned last, so a caller may keep that value instead of re-evaluating.
func (v *VM) Generation() uint64 { return v.gen }

// MinSize returns the deflation floor m_i.
func (v *VM) MinSize() restypes.Vector { return v.minSize }

// Deflatable returns how much can still be reclaimed from this VM before it
// hits its minimum size: allocation − m_i for low-priority VMs, zero for
// high-priority VMs. This is the Deflatable_j term of the placement
// availability vector (§5, Eq. 4). On substrates that report a resize
// floor (containers: live RSS + runtime overhead), the memory component is
// additionally capped at allocation − floor, so planners never target a
// reclamation the substrate would answer with an OOM kill. Hypervisor
// domains report a zero floor, leaving the historical value untouched.
func (v *VM) Deflatable() restypes.Vector {
	if v.priority == HighPriority {
		return restypes.Vector{}
	}
	alloc := v.inst.Allocation()
	d := alloc.Sub(v.minSize).ClampNonNegative()
	if floor := v.inst.ResizeFloorMB(); floor > 0 {
		if maxMem := alloc.MemoryMB - floor; maxMem < d.MemoryMB {
			if maxMem < 0 {
				maxMem = 0
			}
			d.MemoryMB = maxMem
		}
	}
	return d
}

// Env returns the application's current effective environment.
func (v *VM) Env() hypervisor.Env { return v.inst.Env() }

// Throughput returns the application's current normalized performance.
func (v *VM) Throughput() float64 { return v.app.Throughput(v.inst.Env()) }

// SyncFootprint propagates the application's memory footprint to the
// substrate (which uses it to bound safe unplugging, track the resize
// floor, and detect OOM). Call after any operation that may change the
// footprint. It moves the generation.
func (v *VM) SyncFootprint() {
	v.gen++
	rss, cache := v.app.Footprint()
	v.inst.SetAppFootprint(rss, cache)
}

// Preempt destroys the VM — the fail-stop reclamation used by today's
// transient-VM offerings, and the fallback when deflation below m_i would
// be required.
func (v *VM) Preempt() { v.inst.Destroy() }

// Preempted reports whether the VM has been preempted (instance destroyed).
func (v *VM) Preempted() bool { return v.inst.Destroyed() }

// Snapshot is the transferable state of a VM: the substrate snapshot and
// the VM-level policy attributes that must follow it to the destination.
// The field keeps its historical name "domain" (JSON included) — it now
// carries the tagged substrate union.
type Snapshot struct {
	Domain   hypervisor.DomainSnapshot `json:"domain"`
	Priority Priority                  `json:"priority"`
	MinSize  restypes.Vector           `json:"min_size"`
}

// Snapshot captures the VM's transferable state for live migration.
func (v *VM) Snapshot() Snapshot {
	return Snapshot{Domain: v.inst.Snapshot(), Priority: v.priority, MinSize: v.minSize}
}

// RestoreOn materializes a migrated VM on a substrate from a snapshot,
// attaching app as its application. The snapshot's footprint is
// authoritative — it is NOT overwritten from the application's Footprint,
// so a live application object handed off in-process stays exactly in
// sync, and a registry-built replacement converges through later
// deflate/reinflate cycles. The substrate rejects snapshots of a different
// kind with substrate.ErrKindMismatch.
func RestoreOn(sub substrate.Substrate, s Snapshot, app Application) (*VM, error) {
	if app == nil {
		return nil, fmt.Errorf("vm: nil application")
	}
	if !s.MinSize.Fits(s.Domain.Size) {
		return nil, fmt.Errorf("vm: min size %v exceeds VM size %v", s.MinSize, s.Domain.Size)
	}
	inst, err := sub.RestoreInstance(s.Domain)
	if err != nil {
		return nil, err
	}
	return &VM{inst: inst, app: app, priority: s.Priority, size: inst.Size(), minSize: s.MinSize}, nil
}

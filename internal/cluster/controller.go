// Package cluster implements deflation-based cluster management (§5): a
// centralized manager places VMs onto servers with deflation-aware
// bin-packing, and a per-server local deflation controller reclaims
// resources through proportional cascade deflation, preempting VMs only
// when they would be pushed below their minimum sizes.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/guestos"
	"deflation/internal/restypes"
	"deflation/internal/substrate"
	"deflation/internal/vm"
)

// Errors returned by controller and manager operations.
var (
	ErrNoCapacity = errors.New("cluster: insufficient reclaimable capacity")
	ErrVMExists   = errors.New("cluster: VM already exists")
	ErrVMNotFound = errors.New("cluster: VM not found")
	// ErrNodeDown marks operations against a crashed (or unreachable)
	// server; the health monitor will evict and re-place its VMs.
	ErrNodeDown = errors.New("cluster: node is down")
)

// capacityError is a refused launch or reclaim: it unwraps to
// ErrNoCapacity and keeps the vectors that decided the refusal, formatting
// them only when its text is read. The simulator refuses thousands of
// launches and reads none of their texts.
type capacityError struct {
	format     string // after "ErrNoCapacity: "; %[1]v is need, %[2]v have
	need, have restypes.Vector
}

func (e *capacityError) Error() string {
	return ErrNoCapacity.Error() + ": " + fmt.Sprintf(e.format, e.need, e.have)
}

func (e *capacityError) Unwrap() error { return ErrNoCapacity }

// Mode selects the reclamation strategy — deflation (the paper's system) or
// the preemption-only baseline of today's clouds (Fig. 8c).
type Mode int

const (
	// ModeDeflation deflates low-priority VMs proportionally and preempts
	// only below minimum sizes.
	ModeDeflation Mode = iota
	// ModePreemptionOnly preempts low-priority VMs outright to free
	// resources — no deflation.
	ModePreemptionOnly
)

// String returns "deflation" or "preemption-only".
func (m Mode) String() string {
	if m == ModePreemptionOnly {
		return "preemption-only"
	}
	return "deflation"
}

// LaunchSpec describes a VM to start. Specs are JSON-serializable for the
// REST control plane; NewApp is a local-only shortcut, remote launches name
// a registered AppKind instead.
type LaunchSpec struct {
	Name     string          `json:"name"`
	Size     restypes.Vector `json:"size"`
	MinSize  restypes.Vector `json:"min_size"` // m_i; zero = fully deflatable
	Priority vm.Priority     `json:"priority"`
	// AppKind names a factory registered with RegisterAppKind.
	AppKind string `json:"app_kind,omitempty"`
	// NewApp builds the VM's application in-process; it takes precedence
	// over AppKind and does not serialize.
	NewApp func(size restypes.Vector) vm.Application `json:"-"`
	// GuestConfig optionally overrides the guest OS shape (CPUs/memory
	// default from Size).
	GuestConfig guestos.Config `json:"guest_config,omitempty"`
	// Warm marks the guest as long-running (all memory host-resident).
	Warm bool `json:"warm,omitempty"`
	// Substrate pins the VM to nodes of that substrate kind ("hypervisor"
	// or "container"); empty means any. The manager's placement filters by
	// it, and recovery journals it so a container-backed VM is re-placed
	// onto a container node.
	Substrate string `json:"substrate,omitempty"`
}

// LaunchReport describes the reclamation a launch triggered.
type LaunchReport struct {
	Reclaimed restypes.Vector `json:"reclaimed"`
	// Deflations counts cascade deflations: a VM the drain pass deflated
	// again after the proportional pass counts twice.
	Deflations int `json:"deflations,omitempty"`
	// Preempted names the VMs preempted; the manager forgets them.
	Preempted []string `json:"preempted,omitempty"`
	// ReclaimLatency is the end-to-end reclamation time: cascade deflations
	// run concurrently across the server's VMs (§5), so this is the
	// slowest VM's cascade, not the sum.
	ReclaimLatency time.Duration `json:"reclaim_latency,omitempty"`
}

// LocalController is the per-server deflation controller (Fig. 2): it
// tracks the server's VMs, executes proportional cascade deflation to make
// room, and reinflates VMs when resources free up.
type LocalController struct {
	host substrate.Substrate
	casc *cascade.Controller
	mode Mode
	vms  substrate.Table[*vm.VM] // name-ordered; VMs() is its live view

	// streams tracks active migration link-bandwidth reservations (see
	// ReserveStream in migrate.go). Nil until the first reservation.
	streams map[string]*migrationStream

	preemptions int

	// cache memoizes the capacity summary — its derived readings are an
	// O(VMs) walk over host/VM state, and the manager's placement path reads
	// them for every server on every launch. Every mutation clears it
	// (invalidate); every command then notifies the watchers once
	// (notifyCapacity), and the manager's placement index subscribes to keep
	// its per-node snapshots fresh. Memoized values are bit-identical to
	// recomputation: the same code computes them, just once per change
	// instead of once per read.
	cache    ctrlCache
	watchers watchList
	// generation counts notifications, one per command: the version of the
	// capacity summary a ControllerAPI pushes (see CapacitySummary).
	generation uint64
	plan       []planEntry    // Reclaim's and ReinflateAll's scratch, reused across commands
	rep        cascade.Report // the report every cascade call of a command fills
}

// planEntry is one VM of a command's plan: how far the command may move it
// (room: Deflatable() to deflate, the deficit to reinflate), and the drain order.
type planEntry struct {
	v    *vm.VM
	room restypes.Vector
	key  float64
}

// ctrlCache is the memo: sum is the capacity summary, and deflatable and
// nominal are the sums its Availability and Overcommitment derive from.
// have is a bitmask of what is current: Free alone (the cascade re-reads it
// after every deflation), or everything.
type ctrlCache struct {
	have       uint8
	sum        CapacitySummary
	deflatable restypes.Vector
	nominal    restypes.Vector
}

const (
	cacheFree = 1 << iota
	cacheSummary
)

// capacityChanged is what a command that mutates once calls after it.
func (c *LocalController) capacityChanged() {
	c.invalidate()
	c.notifyCapacity()
}

// invalidate runs after every change of VM membership or allocations —
// each deflation of a multi-VM command too, so its next Free() is exact.
func (c *LocalController) invalidate() { c.cache.have = 0 }

// notifyCapacity runs once per command, after its last mutation: twice for
// a launch that deflates k VMs (reclaim, new VM), once for a release.
func (c *LocalController) notifyCapacity() {
	c.generation++
	c.watchers.notify()
}

// WatchCapacity registers fn to run whenever this server's capacity vectors
// may have changed (VM launched/released/preempted, deflation, reinflation,
// migration stream reservations, crash/recovery), once per command rather
// than per VM resized, and returns the func that unregisters it. Used by
// the manager's placement index and the sim's state sampler for push
// invalidation; fn must be O(1) and must not call back into the controller.
func (c *LocalController) WatchCapacity(fn func()) (unwatch func()) {
	return c.watchers.add(fn)
}

// NewLocalController wraps a substrate host — the simulated hypervisor
// (internal/hypervisor) or the container runtime (internal/simcg). The
// cascade levels configure which reclamation levels the server uses
// (AllLevels for the full system; the OS level is a per-VM no-op on
// substrates without a guest kernel).
func NewLocalController(host substrate.Substrate, levels cascade.Levels, mode Mode) *LocalController {
	return &LocalController{
		host: host,
		casc: cascade.New(levels),
		mode: mode,
	}
}

// Name implements Node.
func (c *LocalController) Name() string { return c.host.Name() }

// Has implements Node. In-process controllers are always reachable, so the
// error is always nil.
func (c *LocalController) Has(name string) (bool, error) {
	_, ok := c.vms.Get(name)
	return ok, nil
}

// Ping implements Node; an in-process controller is always alive.
func (c *LocalController) Ping() error { return nil }

// Cascade returns the controller's cascade for configuration (deadlines,
// memory mechanism, fault hooks).
func (c *LocalController) Cascade() *cascade.Controller { return c.casc }

// FailAll models a crash-stop host failure: every VM dies immediately.
// Unlike Release or preemption, nothing reinflates and the deaths do not
// count toward the summary's Preemptions, which tracks capacity-driven
// preemptions only — failure-induced ones are the manager's Stats.
func (c *LocalController) FailAll() {
	for _, v := range c.VMs() {
		v.Preempt()
	}
	c.vms = substrate.Table[*vm.VM]{}
	c.capacityChanged()
}

// VMs returns the server's live VMs sorted by name. The slice is the VM
// table's own array, valid only until the next launch, release or
// preemption: a caller that changes the VM set inside its walk must copy it
// first. Callers must not mutate it.
func (c *LocalController) VMs() []*vm.VM { return c.vms.Ordered() }

// Inventory implements InventoryNode: the ground-truth list of VMs this
// server actually runs, in wire form, sorted by name. The manager's
// anti-entropy reconciliation compares it against the journaled view.
func (c *LocalController) Inventory() ([]VMState, error) {
	vms := c.VMs()
	out := make([]VMState, 0, len(vms))
	for _, v := range vms {
		out = append(out, VMState{
			Name:       v.Name(),
			Priority:   v.Priority().String(),
			Size:       v.Size(),
			Allocation: v.Allocation(),
			MinSize:    v.MinSize(),
			Throughput: v.Throughput(),
			App:        v.App().Name(),
			Substrate:  string(v.Substrate()),
		})
	}
	return out, nil
}

// VM looks up a VM by name.
func (c *LocalController) VM(name string) (*vm.VM, error) {
	v, ok := c.vms.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrVMNotFound, name)
	}
	return v, nil
}

// Free returns the server's unallocated physical capacity.
func (c *LocalController) Free() restypes.Vector {
	if c.cache.have&cacheFree == 0 {
		c.cache.sum.Free = c.host.FreePhysical()
		c.cache.have |= cacheFree
	}
	return c.cache.sum.Free
}

// Deflatable returns the total resources reclaimable from low-priority VMs
// (down to their minimums) without preemption. In preemption-only mode the
// reclaimable pool is instead the lows' entire allocations (they can be
// killed).
func (c *LocalController) Deflatable() restypes.Vector { return c.memo().deflatable }

// NominalSize returns the sum of the server's VMs' nominal sizes — the
// numerator of the server-overcommitment metric (Fig. 8d).
func (c *LocalController) NominalSize() restypes.Vector { return c.memo().nominal }

// Capacity implements Node: an in-process server's capacity is always
// known.
func (c *LocalController) Capacity() (CapacitySummary, bool) { return c.memo().sum, true }

// memo returns c.cache, filled at most once per invalidate by one walk
// over the VMs in name order, and stamped with the current generation:
//   - Availability is §5 Eq. 4, A_j = Free_j + Deflatable_j;
//   - PreemptableCeiling is the absolute maximum reclaimable capacity, free
//     resources plus every low-priority VM's entire allocation (deflation to
//     minimums, then preemption). High-priority placements may use it; the
//     preempted VMs are the Fig. 8c casualties;
//   - Overcommitment is nominal load relative to capacity on the binding
//     (maximum) of the CPU and memory dimensions.
func (c *LocalController) memo() *ctrlCache {
	m := &c.cache
	if m.have&cacheSummary == 0 {
		free := c.Free()
		var deflatable, nominal restypes.Vector
		ceil := free
		for _, v := range c.VMs() {
			nominal = nominal.Add(v.Size())
			if v.Priority() == vm.HighPriority {
				continue
			}
			if v.Priority() == vm.LowPriority {
				ceil = ceil.Add(v.Allocation())
			}
			if c.mode == ModePreemptionOnly {
				deflatable = deflatable.Add(v.Allocation())
			} else {
				deflatable = deflatable.Add(v.Deflatable())
			}
		}
		oc := 0.0
		if cap := c.host.Capacity(); cap.CPU != 0 && cap.MemoryMB != 0 {
			oc = max(nominal.CPU/cap.CPU, nominal.MemoryMB/cap.MemoryMB)
		}
		m.deflatable, m.nominal = deflatable, nominal
		m.sum = CapacitySummary{
			Mode:               c.mode.String(),
			Free:               free,
			Availability:       free.Add(deflatable),
			PreemptableCeiling: ceil,
			Overcommitment:     oc,
			Preemptions:        c.preemptions,
			Substrate:          string(c.host.Kind()),
		}
		m.have |= cacheSummary
	}
	m.sum.Generation = c.generation
	return m
}

// Launch implements Node: LaunchVM without the VM handle.
func (c *LocalController) Launch(spec LaunchSpec) (LaunchReport, error) {
	_, rep, err := c.LaunchVM(spec)
	return rep, err
}

// LaunchVM starts a VM on this server, reclaiming resources from
// low-priority VMs first if the free capacity does not cover the nominal
// size. It returns the VM handle for in-process callers.
func (c *LocalController) LaunchVM(spec LaunchSpec) (*vm.VM, LaunchReport, error) {
	var rep LaunchReport
	if _, ok := c.vms.Get(spec.Name); ok {
		return nil, rep, fmt.Errorf("%w: %q", ErrVMExists, spec.Name)
	}
	newApp, err := spec.ResolveApp()
	if err != nil {
		return nil, rep, err
	}
	if !spec.Size.Fits(c.Free()) {
		// Only high-priority placements may preempt low-priority VMs;
		// low-priority VMs squeeze in through deflation alone.
		allowPreempt := spec.Priority == vm.HighPriority
		rep, err = c.Reclaim(spec.Size, allowPreempt)
		if err != nil {
			return nil, rep, err
		}
	}
	inst, err := c.host.Spawn(spec.Name, spec.Size, spec.GuestConfig)
	if err != nil {
		return nil, rep, fmt.Errorf("cluster: launch %q: %w", spec.Name, err)
	}
	if spec.Warm {
		inst.MarkWarm()
	}
	v, err := vm.NewOn(inst, newApp(spec.Size), vm.Config{Priority: spec.Priority, MinSize: spec.MinSize})
	if err != nil {
		inst.Destroy()
		c.capacityChanged()
		return nil, rep, err
	}
	c.vms.Put(spec.Name, v)
	c.capacityChanged()
	return v, rep, nil
}

// Reclaim drives the server's free capacity up to at least ensureFree: in
// deflation mode by proportionally deflating low-priority VMs ("deflates
// all low-priority VMs by an amount proportional to their size", §5),
// preempting only when deflation to the minimum sizes cannot cover the
// deficit; in preemption-only mode, by preempting outright.
func (c *LocalController) Reclaim(ensureFree restypes.Vector, allowPreempt bool) (LaunchReport, error) {
	var rep LaunchReport
	ensureFree = ensureFree.ClampNonNegative()
	sum := &c.memo().sum
	limit := sum.Availability
	if allowPreempt {
		limit = sum.PreemptableCeiling
	}
	if !ensureFree.Fits(limit) {
		return rep, &capacityError{"need %[1]v, reclaimable %[2]v", ensureFree, limit}
	}

	if c.mode == ModeDeflation {
		err := c.proportionalDeflate(ensureFree, &rep)
		if err != nil || rep.Deflations > 0 { // a cascade ran: notify once for all of them
			c.notifyCapacity()
		}
		if err != nil {
			return rep, err
		}
	}
	if ensureFree.Fits(c.Free()) {
		return rep, nil
	}
	if !allowPreempt {
		return rep, &capacityError{"need %[1]v free, have %[2]v after deflation", ensureFree, c.Free()}
	}
	// Preempt: the remaining deficit can only come from killing VMs (they
	// are already at their minimum sizes in deflation mode).
	if err := c.preemptUntil(ensureFree, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// proportionalDeflate divides the reclamation demand among low-priority
// VMs in proportion to their deflatable resources (the paper's
// x_i ∝ M_i − m_i, §5) and executes cascade deflation, stopping early
// once free capacity covers the requirement. Any residual demand (clamping,
// rounding) is drained largest-first. Each pass reads each VM's
// Deflatable() once: deflating one VM never changes another's. The
// proportional pass's stop test is the host's FitsFree, which decides
// v.Fits(Free()) without a walk over the VMs wherever it can.
func (c *LocalController) proportionalDeflate(ensureFree restypes.Vector, rep *LaunchReport) error {
	need := ensureFree.Sub(c.Free()).ClampNonNegative()
	plan, pool := c.lowPlan()
	if len(plan) == 0 {
		return nil
	}

	ratio := need.FractionOf(pool).Min(restypes.Uniform(1))
	for _, p := range plan {
		if c.host.FitsFree(ensureFree) {
			return nil
		}
		target := p.room.Mul(ratio).Min(p.room).ClampNonNegative()
		if err := c.deflateOne(p.v, target, rep); err != nil {
			return err
		}
	}

	// Drain pass: take the remaining demand from the most-deflatable VMs
	// first.
	if ensureFree.Sub(c.Free()).ClampNonNegative().IsZero() {
		return nil
	}
	for i := range plan {
		plan[i].room = plan[i].v.Deflatable()
		plan[i].key = plan[i].room.Norm()
	}
	// pdqsort reads only cmp < 0, so ties land as sort.Slice with a > b put them.
	slices.SortFunc(plan, func(a, b planEntry) int { return cmp.Compare(b.key, a.key) })
	for _, p := range plan {
		remaining := ensureFree.Sub(c.Free()).ClampNonNegative()
		if remaining.IsZero() {
			return nil
		}
		if err := c.deflateOne(p.v, remaining.Min(p.room), rep); err != nil {
			return err
		}
	}
	return nil
}

// lowPlan fills the plan with the low-priority VMs and their Deflatable(),
// and returns it with their sum: c.Deflatable(), added in the same order.
func (c *LocalController) lowPlan() (plan []planEntry, pool restypes.Vector) {
	plan = c.plan[:0]
	for _, v := range c.VMs() {
		if v.Priority() == vm.LowPriority {
			d := v.Deflatable()
			plan = append(plan, planEntry{v: v, room: d})
			pool = pool.Add(d)
		}
	}
	c.plan = plan
	return plan, pool
}

func (c *LocalController) deflateOne(v *vm.VM, target restypes.Vector, rep *LaunchReport) error {
	target = target.ClampNonNegative()
	if target.IsZero() {
		return nil
	}
	r := &c.rep
	err := c.casc.Deflate(v, target, r)
	c.invalidate() // the cascade resized allocations even on partial failure
	if err != nil {
		return fmt.Errorf("cluster: deflating %q: %w", v.Name(), err)
	}
	rep.Deflations++
	rep.Reclaimed = rep.Reclaimed.Add(target.Sub(r.Shortfall).ClampNonNegative())
	// Per-VM cascades run concurrently (§5): report the slowest.
	if r.TotalLatency > rep.ReclaimLatency {
		rep.ReclaimLatency = r.TotalLatency
	}
	return nil
}

// preemptUntil preempts low-priority VMs (largest allocation first, to
// minimize the preemption count) until free capacity covers the
// requirement.
func (c *LocalController) preemptUntil(ensureFree restypes.Vector, rep *LaunchReport) error {
	for {
		if c.host.FitsFree(ensureFree) {
			return nil
		}
		victim := c.pickPreemptionVictim()
		if victim == nil {
			return &capacityError{"need %[1]v free, have %[2]v, no preemptible VMs", ensureFree, c.Free()}
		}
		rep.Reclaimed = rep.Reclaimed.Add(victim.Allocation())
		rep.Preempted = append(rep.Preempted, victim.Name())
		c.preemptInternal(victim)
	}
}

func (c *LocalController) pickPreemptionVictim() *vm.VM {
	var best *vm.VM
	for _, v := range c.VMs() {
		if v.Priority() == vm.HighPriority {
			continue
		}
		if best == nil || v.Allocation().Norm() > best.Allocation().Norm() {
			best = v
		}
	}
	return best
}

func (c *LocalController) preemptInternal(v *vm.VM) {
	v.Preempt()
	c.vms.Delete(v.Name())
	c.preemptions++
	c.capacityChanged()
}

// Release shuts a VM down normally (its lifetime ended) and reinflates the
// survivors into the freed capacity (§5: "if some resources become
// available, then it reinflates VMs... proportionally").
func (c *LocalController) Release(name string) error {
	v, ok := c.vms.Delete(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrVMNotFound, name)
	}
	v.Preempt() // mechanically identical: destroy the domain
	c.invalidate()
	c.ReinflateAll() // notifies for the release and the reinflations at once
	return nil
}

// ReinflateAll distributes free capacity to deflated VMs proportionally to
// their deficits (nominal size − current allocation), running the cascade
// in reverse, from one walk's deficits, and notifies the watchers once. A
// VM with no deficit gets no share, so the plan leaves it out: adding its
// zero to the total changes no bit of it.
func (c *LocalController) ReinflateAll() {
	defer c.notifyCapacity()
	plan := c.plan[:0]
	var totalDeficit restypes.Vector
	for _, v := range c.VMs() {
		deficit := v.Size().Sub(v.Allocation()).ClampNonNegative()
		if deficit.IsZero() {
			continue
		}
		plan = append(plan, planEntry{v: v, room: deficit})
		totalDeficit = totalDeficit.Add(deficit)
	}
	c.plan = plan
	if totalDeficit.IsZero() {
		return
	}
	ratio := c.Free().FractionOf(totalDeficit).Min(restypes.Uniform(1))
	for _, p := range plan {
		amount := p.room.Mul(ratio)
		if amount.IsZero() {
			continue
		}
		// Reinflation is best-effort: a VM whose growth the host refuses
		// stays deflated until the next release offers it room again.
		_ = c.casc.Reinflate(p.v, amount, &c.rep)
		c.invalidate()
	}
}

package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"deflation/internal/faults"
	"deflation/internal/hypervisor"
	"deflation/internal/migration"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// This file integrates live migration (internal/migration) into the cluster:
// the local controller learns to checkpoint, restore, and reserve migration
// link bandwidth; the manager learns migration-based reclamation policies
// (migrate low-priority VMs out of a high-priority placement's way instead
// of preempting them, optionally deflating them first so they move cheaply),
// a migration-based node drain, and a user-facing Migrate operation.

// Migration-specific errors.
var (
	// ErrNodeNotFound marks operations naming a server the manager does not
	// manage.
	ErrNodeNotFound = errors.New("cluster: node not found")
	// ErrMigrationFailed marks a migration that did not complete: the VM
	// keeps running on its source (rollback), and the error wraps the cause
	// (non-convergence, mid-copy fault, no destination capacity).
	ErrMigrationFailed = errors.New("cluster: migration failed")
)

// ReclaimPolicy selects how the manager frees room for a high-priority
// placement when no server is feasible without disruption. The zero value is
// the existing behavior (preempt), so unconfigured managers take exactly the
// pre-migration code path.
type ReclaimPolicy int

const (
	// ReclaimPreempt preempts low-priority VMs (the existing fallback).
	ReclaimPreempt ReclaimPolicy = iota
	// ReclaimMigrationOnly live-migrates low-priority VMs to other servers
	// to make room, preempting only when no migration target exists.
	ReclaimMigrationOnly
	// ReclaimDeflateThenMigrate first deflates each victim to its minimum
	// footprint, then migrates it — the deflated VM transfers fewer bytes,
	// dirties pages slower, and fits more destinations (Fuerst & Shenoy).
	ReclaimDeflateThenMigrate
)

// String names the policy.
func (p ReclaimPolicy) String() string {
	switch p {
	case ReclaimMigrationOnly:
		return "migration-only"
	case ReclaimDeflateThenMigrate:
		return "deflate-then-migrate"
	}
	return "preempt"
}

// VMCheckpoint is the transferable state of a VM plus the migration-relevant
// rates, produced by Checkpoint on the source and consumed by RestoreVM on
// the destination. The unexported app field carries the live application
// object for in-process hand-off; over the wire it is nil and the
// destination rebuilds the application from AppKind.
type VMCheckpoint struct {
	VM vm.Snapshot `json:"vm"`
	// AppKind names the registered application factory used to rebuild the
	// app when the live object is not available (wire restores).
	AppKind string `json:"app_kind,omitempty"`
	// TransferSetMB is the guest state pre-copy must move: the host-level
	// ever-touched footprint (deflation shrinks it — the deflate-then-
	// migrate advantage).
	TransferSetMB float64 `json:"transfer_set_mb"`
	// DirtyRateMBps is the guest's current dirty-page rate.
	DirtyRateMBps float64 `json:"dirty_rate_mbps"`

	app vm.Application
}

// Checkpoint implements Node: it captures the named VM's transferable state.
// The VM keeps running on the source — pre-copy migration only pauses it for
// the final stop-and-copy, which the manager models separately.
func (c *LocalController) Checkpoint(name string) (VMCheckpoint, error) {
	v, ok := c.vms.Get(name)
	if !ok {
		return VMCheckpoint{}, fmt.Errorf("%w: %q", ErrVMNotFound, name)
	}
	env := v.Env()
	if env.OOMKilled {
		return VMCheckpoint{}, fmt.Errorf("%w: %q is OOM-killed, nothing to migrate", ErrMigrationFailed, name)
	}
	return VMCheckpoint{
		VM:            v.Snapshot(),
		TransferSetMB: env.EverTouchedMB,
		DirtyRateMBps: v.Instance().DirtyRateMBps(),
		app:           v.App(),
	}, nil
}

// RestoreVM implements Node: it materializes a checkpointed VM on this
// server. Admission is by the checkpoint's (possibly deflated) allocation,
// not the nominal size; see hypervisor.RestoreDomain.
func (c *LocalController) RestoreVM(cp VMCheckpoint) error {
	name := cp.VM.Domain.Name
	if _, ok := c.vms.Get(name); ok {
		return fmt.Errorf("%w: %q", ErrVMExists, name)
	}
	app := cp.app
	if app == nil {
		kind := cp.AppKind
		if kind == "" {
			if cp.VM.Priority == vm.HighPriority {
				kind = "inelastic"
			} else {
				kind = "elastic"
			}
		}
		f, err := AppKind(kind)
		if err != nil {
			return err
		}
		app = f(cp.VM.Domain.Size)
	}
	v, err := vm.RestoreOn(c.host, cp.VM, app)
	if err != nil {
		if errors.Is(err, hypervisor.ErrInsufficientCapacity) {
			return fmt.Errorf("%w: restoring %q: %v", ErrNoCapacity, name, err)
		}
		if errors.Is(err, hypervisor.ErrDomainExists) {
			return fmt.Errorf("%w: %q", ErrVMExists, name)
		}
		return err
	}
	c.vms.Put(name, v)
	c.capacityChanged()
	return nil
}

// migrationStream is one active link-bandwidth reservation: the capacity
// reserved from the host plus the per-VM network throttles taken from
// co-located low-priority VMs when the NIC was saturated.
type migrationStream struct {
	granted   float64
	reserved  restypes.Vector
	throttled map[string]restypes.Vector
}

// maxStreamThrottle bounds how much of a co-located low-priority VM's
// network allocation a migration stream may steal (per-VM fraction).
const maxStreamThrottle = 0.5

// ReserveStream implements Node: it reserves up to rateMBps of network
// bandwidth for the named migration stream. Free NIC capacity is taken
// first; any shortfall is throttled from co-located low-priority VMs'
// network allocations (up to half each) — so a migrating node visibly
// degrades its network-bound neighbors for the duration of the copy. It
// returns the granted rate. Reserving an already-reserved stream returns the
// existing grant (idempotent, so wire retries are safe).
func (c *LocalController) ReserveStream(stream string, rateMBps float64) (float64, error) {
	if rateMBps <= 0 {
		return 0, fmt.Errorf("cluster: stream %q needs a positive rate, got %g", stream, rateMBps)
	}
	if s, ok := c.streams[stream]; ok {
		return s.granted, nil
	}
	if c.streams == nil {
		c.streams = make(map[string]*migrationStream)
	}
	s := &migrationStream{throttled: make(map[string]restypes.Vector)}
	granted := rateMBps
	if free := c.host.FreePhysical().NetMBps; granted > free {
		granted = free
		// Shortfall: throttle low-priority VMs' network proportionally.
		short := rateMBps - granted
		lows, _ := c.lowPlan()
		var totalNet float64
		for _, p := range lows {
			totalNet += p.v.Allocation().NetMBps
		}
		if totalNet > 0 {
			frac := short / totalNet
			if frac > maxStreamThrottle {
				frac = maxStreamThrottle
			}
			for _, p := range lows {
				v := p.v
				cut := v.Allocation().NetMBps * frac
				if cut <= 0 {
					continue
				}
				target := v.Allocation()
				target.NetMBps -= cut
				if _, err := v.SetAllocation(target); err != nil {
					continue
				}
				s.throttled[v.Name()] = restypes.Vector{NetMBps: cut}
				granted += cut
			}
		}
	}
	if granted <= 0 {
		c.restoreThrottles(s)
		return 0, fmt.Errorf("%w: no network bandwidth for stream %q", ErrNoCapacity, stream)
	}
	s.reserved = restypes.Vector{NetMBps: granted}
	if err := c.host.Reserve(s.reserved); err != nil {
		c.restoreThrottles(s)
		return 0, err
	}
	s.granted = granted
	c.streams[stream] = s
	c.capacityChanged()
	return granted, nil
}

// ReleaseStream implements Node: it releases a stream reservation and
// restores the throttled VMs' network allocations. Releasing an unknown
// stream is a no-op (idempotent).
func (c *LocalController) ReleaseStream(stream string) error {
	s, ok := c.streams[stream]
	if !ok {
		return nil
	}
	delete(c.streams, stream)
	c.host.Unreserve(s.reserved)
	c.restoreThrottles(s)
	c.capacityChanged()
	return nil
}

func (c *LocalController) restoreThrottles(s *migrationStream) {
	names := make([]string, 0, len(s.throttled))
	for name := range s.throttled {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := c.vms.Get(name)
		if !ok {
			continue // released or preempted mid-stream
		}
		// SetAllocation clamps to the nominal size, so restoring is safe
		// even if the VM reinflated meanwhile; best-effort on error.
		_, _ = v.SetAllocation(v.Allocation().Add(s.throttled[name]))
	}
	s.throttled = make(map[string]restypes.Vector)
	c.capacityChanged()
}

// DeflateFully implements Node: it squeezes the named low-priority VM down
// to its minimum footprint via the cascade — the deflate-then-migrate
// preparation step. High-priority (or already fully deflated) VMs are a
// no-op. It returns the cascade latency.
func (c *LocalController) DeflateFully(name string) (time.Duration, error) {
	v, ok := c.vms.Get(name)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrVMNotFound, name)
	}
	target := v.Deflatable()
	if v.Priority() == vm.HighPriority || target.IsZero() {
		return 0, nil
	}
	err := c.casc.Deflate(v, target, &c.rep)
	c.capacityChanged() // the cascade resized allocations even on partial failure
	if err != nil {
		return 0, fmt.Errorf("cluster: deflating %q: %w", name, err)
	}
	return c.rep.TotalLatency, nil
}

// MigrationReport describes one completed (or attempted) migration.
type MigrationReport struct {
	VM   string `json:"vm"`
	From string `json:"from"`
	To   string `json:"to"`
	// RateMBps is the effective link rate the stream was granted.
	RateMBps float64          `json:"rate_mbps"`
	Result   migration.Result `json:"result"`
}

// MigrationStats aggregates the manager's migration activity.
type MigrationStats struct {
	Migrations          int           `json:"migrations"`
	Failures            int           `json:"failures"`
	ConvergenceFailures int           `json:"convergence_failures"`
	MigratedMB          float64       `json:"migrated_mb"`
	TotalDuration       time.Duration `json:"total_duration"`
	TotalDowntime       time.Duration `json:"total_downtime"`
}

// MigrationStats returns the manager's aggregate migration counters.
func (m *Manager) MigrationStats() MigrationStats {
	return MigrationStats{
		Migrations:          m.fold.Migrations,
		Failures:            m.fold.MigrationFailures,
		ConvergenceFailures: m.convergenceFailures,
		MigratedMB:          m.migratedMB,
		TotalDuration:       m.migrationTime,
		TotalDowntime:       m.migrationDowntime,
	}
}

// SetReclaimPolicy selects the manager's reclamation fallback for
// high-priority placements (default ReclaimPreempt, the existing behavior).
func (m *Manager) SetReclaimPolicy(p ReclaimPolicy) { m.reclaim = p }

// SetMigrationScheduler installs the deferred-work scheduler migrations use
// to hold link-bandwidth reservations for the copy's duration (the
// simulation passes clock.After). With a nil scheduler reservations are
// released as soon as the migration is decided.
func (m *Manager) SetMigrationScheduler(sched func(d time.Duration, f func())) {
	m.migScheduler = sched
}

// SetMigrationFaults installs a fault injector whose MigrationFault stream
// decides mid-copy failures (nil disables injection).
func (m *Manager) SetMigrationFaults(inj *faults.Injector) { m.migFaults = inj }

// Migrate live-migrates a placed VM to the named destination server. On any
// failure the VM keeps running on its source (pre-copy rolls back cleanly).
func (m *Manager) Migrate(name, dest string) (MigrationReport, error) {
	di, ok := m.index[dest]
	if !ok {
		return MigrationReport{}, fmt.Errorf("%w: %q", ErrNodeNotFound, dest)
	}
	return m.migrate(name, di)
}

// migrate runs one pre-copy live migration of a placed VM to server dstIdx.
// Event ordering gives crash safety: the intent (evMigrateStart) journals
// before any state moves, and the placement only changes at evMigrateDone —
// so a manager crash at any intermediate point recovers with the VM
// journaled on its source, and reconciliation resolves the in-flight entry
// by asking the destination whether the copy completed.
func (m *Manager) migrate(name string, dstIdx int) (MigrationReport, error) {
	srcIdx, ok := m.placedOn(name)
	if !ok {
		return MigrationReport{}, fmt.Errorf("%w: %q", ErrVMNotFound, name)
	}
	if srcIdx == dstIdx {
		return MigrationReport{}, fmt.Errorf("%w: %q already runs on %q", ErrMigrationFailed, name, m.servers[dstIdx].Name())
	}
	if !m.alive(srcIdx) || !m.alive(dstIdx) || !capacityKnown(m.servers[dstIdx]) {
		return MigrationReport{}, fmt.Errorf("%w: migrating %q", ErrNodeDown, name)
	}
	src, dst := m.servers[srcIdx], m.servers[dstIdx]
	rep := MigrationReport{VM: name, From: src.Name(), To: dst.Name()}

	// Every node-RPC error below reaches noteDeposed: a migration refused for
	// a stale epoch is proof of a newer leader like any other command.
	cp, err := src.Checkpoint(name)
	if err != nil {
		m.noteDeposed(err)
		return rep, fmt.Errorf("cluster: checkpointing %q: %w", name, err)
	}
	if cp.AppKind == "" {
		if spec, ok := m.fold.Specs[name]; ok && spec.AppKind != "" {
			cp.AppKind = spec.AppKind
		}
	}
	// Journal the intent before anything moves.
	m.emit(Event{Kind: evMigrateStart, VM: name, Node: dst.Name(), From: src.Name()})

	stream := "migrate:" + name
	release := func() {
		m.noteDeposed(src.ReleaseStream(stream))
		m.noteDeposed(dst.ReleaseStream(stream))
	}
	// fail formats cause with %v: wrapped, a destination link's ErrNoCapacity
	// would turn the API's 409 for a failed migration into a 507.
	fail := func(res migration.Result, cause error) (MigrationReport, error) {
		m.noteDeposed(cause)
		m.emit(Event{Kind: evMigrateFail, VM: name, Node: dst.Name(), From: src.Name()})
		m.deferWork(res.Duration, release)
		rep.Result = res
		return rep, fmt.Errorf("%w: %q to %q: %v", ErrMigrationFailed, name, dst.Name(), cause)
	}

	srcRate, err := src.ReserveStream(stream, migration.LinkMBps)
	if err != nil {
		return fail(migration.Result{}, fmt.Errorf("source link: %w", err))
	}
	// The destination must admit the VM itself after the copy, so the stream
	// may not consume the NIC headroom the VM's own allocation needs.
	dstWant := migration.LinkMBps
	if sum, known := dst.Capacity(); !known {
		dstWant = 0
	} else if headroom := sum.Free.NetMBps - cp.VM.Domain.Alloc.NetMBps; headroom < dstWant {
		dstWant = headroom
	}
	if dstWant <= 0 {
		return fail(migration.Result{}, fmt.Errorf("destination link: %w: NIC has no headroom beyond the VM's own allocation", ErrNoCapacity))
	}
	dstRate, err := dst.ReserveStream(stream, dstWant)
	if err != nil {
		return fail(migration.Result{}, fmt.Errorf("destination link: %w", err))
	}
	rep.RateMBps = minf64(srcRate, dstRate)

	res := migration.Simulate(cp.TransferSetMB, cp.DirtyRateMBps, rep.RateMBps)
	if !res.Converged {
		m.convergenceFailures++
		if m.tel != nil {
			m.tel.convergenceFailures.Inc()
		}
		return fail(res, fmt.Errorf("pre-copy cannot converge: dirty %.0f MB/s over a %.0f MB/s link",
			cp.DirtyRateMBps, rep.RateMBps))
	}
	if m.migFaults != nil && m.migFaults.MigrationFault() {
		return fail(res, errors.New("injected mid-copy fault"))
	}

	// Switchover: materialize on the destination, then release the source.
	if err := dst.RestoreVM(cp); err != nil {
		return fail(res, fmt.Errorf("restore on destination: %w", err))
	}
	// The copy is live on the destination; a failed source release leaves at
	// worst a stale copy that anti-entropy reconciliation will find and
	// release. Proceed with the switchover.
	m.noteDeposed(src.Release(name))
	m.migratedMB += res.TransferredMB
	m.migrationTime += res.Duration
	m.migrationDowntime += res.Downtime
	m.emit(Event{Kind: evMigrateDone, VM: name, Node: dst.Name(), From: src.Name()})
	if m.tel != nil {
		m.tel.migrationSeconds.Observe(res.Duration.Seconds())
		m.tel.migrationDowntime.Observe(res.Downtime.Seconds())
		m.tel.migratedMB.Observe(res.TransferredMB)
	}
	// The stream occupies both NICs for the copy's duration.
	m.deferWork(res.Duration, release)
	rep.Result = res
	return rep, nil
}

// deferWork schedules f after d on the migration scheduler, or runs it
// immediately when no scheduler is installed (CLI-driven managers).
func (m *Manager) deferWork(d time.Duration, f func()) {
	if m.migScheduler != nil && d > 0 {
		m.migScheduler(d, f)
		return
	}
	f()
}

// migrateFallback frees room for a high-priority placement by migrating
// low-priority VMs off the most-reclaimable server instead of preempting
// them. It returns the server index once the spec fits there, or -1 when
// migration cannot make room (the caller then falls back to preemption).
func (m *Manager) migrateFallback(spec LaunchSpec) int {
	cand := m.pidx.query(leafPreempt, spec) // the server where reclamation frees the most
	if cand < 0 {
		return -1
	}
	// Each iteration moves one victim away; bounded by the VMs on the node.
	for range [64]struct{}{} {
		if sum, known := m.servers[cand].Capacity(); known && feasible(&sum, spec.Size, spec.Substrate) {
			return cand
		}
		victim := m.pickMigrationVictim(cand)
		if victim == "" {
			return -1
		}
		if m.reclaim == ReclaimDeflateThenMigrate {
			// Shrink the victim first: fewer bytes to move, lower dirty
			// rate, and a smaller footprint that fits more destinations.
			_, err := m.servers[cand].DeflateFully(victim)
			m.noteDeposed(err)
		}
		footprint, kind := m.vmFootprint(cand, victim)
		dst := m.bestMigrationTarget(footprint, kind, cand)
		if dst < 0 {
			return -1
		}
		if _, err := m.migrate(victim, dst); err != nil {
			return -1
		}
	}
	return -1
}

// pickMigrationVictim selects the largest-allocation low-priority VM on
// server idx (mirroring the preemption victim order), by inventory ground
// truth; ties break by name for determinism.
func (m *Manager) pickMigrationVictim(idx int) string {
	inv, err := nodeInventory(m.servers[idx])
	if err != nil {
		return ""
	}
	sort.Slice(inv, func(a, b int) bool { return inv[a].Name < inv[b].Name })
	best, bestNorm := "", -1.0
	for _, vs := range inv {
		if vs.Priority == vm.HighPriority.String() {
			continue
		}
		if _, placed := m.fold.Placements[vs.Name]; !placed {
			continue // not ours to move (mid-reconciliation)
		}
		if n := vs.Allocation.Norm(); n > bestNorm {
			best, bestNorm = vs.Name, n
		}
	}
	return best
}

// vmFootprint returns the capacity a migrated VM needs on its destination —
// its current (possibly deflated) allocation per the node's ground truth,
// falling back to the spec's nominal size — plus the VM's substrate kind
// ("" when unknown), so the destination search can skip kind-incompatible
// nodes (a container checkpoint cannot restore as a hypervisor domain).
func (m *Manager) vmFootprint(idx int, name string) (restypes.Vector, string) {
	if inv, err := nodeInventory(m.servers[idx]); err == nil {
		for _, vs := range inv {
			if vs.Name == name {
				return vs.Allocation, vs.Substrate
			}
		}
	}
	spec := m.fold.Specs[name]
	return spec.Size, spec.Substrate
}

// bestMigrationTarget picks the best-fit destination for a footprint: the
// alive, substrate-compatible server (excluding the source) whose free
// capacity fits it with the highest cosine fitness. Migration admits by
// free capacity only — it never triggers recursive reclamation on the
// destination. Nodes whose substrate is unknown (remote agents predating
// the self-report) are not excluded; the destination's RestoreInstance is
// the authoritative kind check and the migration rolls back cleanly on
// mismatch.
func (m *Manager) bestMigrationTarget(footprint restypes.Vector, kind string, exclude int) int {
	if footprint.IsZero() {
		return -1
	}
	best, bestF := -1, -1.0
	for i, s := range m.servers {
		if i == exclude || !m.alive(i) || !capacityKnown(s) {
			continue
		}
		sum, known := s.Capacity()
		if !known || !substrateCompatible(sum.Substrate, kind) || !footprint.Fits(sum.Free) {
			continue
		}
		if f := footprint.CosineSimilarity(sum.Free); f > bestF {
			best, bestF = i, f
		}
	}
	return best
}

func minf64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

package cluster

import (
	"errors"
	"fmt"
	"time"

	"deflation/internal/apps/curveapp"
	"deflation/internal/cascade"
	"deflation/internal/faults"
	"deflation/internal/hypervisor"
	"deflation/internal/perfmodel"
	"deflation/internal/pricing"
	"deflation/internal/restypes"
	"deflation/internal/simclock"
	"deflation/internal/trace"
	"deflation/internal/vm"
)

// curves cycled across low-priority VMs: the mixed application population
// of the paper's simulation (Spark, memcached, SpecJBB).
func simCurves() []*perfmodel.UtilityCurve {
	return []*perfmodel.UtilityCurve{
		perfmodel.CurveSparkKmeans,
		perfmodel.CurveMemcached,
		perfmodel.CurveSpecJBB,
	}
}

// RunSim executes the trace-driven simulation.
func RunSim(cfg SimConfig) (SimResult, error) {
	s, err := newSim(cfg, nil)
	if err != nil {
		return SimResult{}, err
	}
	return s.run()
}

// sim is one trace-driven run on the shared discrete-event clock. Its
// methods are the clock's handlers: the trace's arrivals stream in through
// one Feed to arrive, each admission schedules depart as a typed event
// keyed by trace index, and sim_faults.go holds the fault and HA handlers.
type sim struct {
	cfg      SimConfig
	events   []trace.Event
	clock    *simclock.Clock
	servers  []*LocalController
	nodes    []Node // the servers as the manager sees them: crashable under fault injection
	mgr      *Manager
	queried  queryHook // installed on every manager the run builds (see Manager.queried)
	sampler  *stateSampler
	capacity restypes.Vector // of the whole cluster
	res      SimResult
	err      error // the first failure, which run returns

	// newApps holds one application factory per (curve, elasticity) pair,
	// built once: every admission shares one instead of capturing its own.
	newApps [][2]func(restypes.Vector) vm.Application
	departs func(int, time.Duration) // depart, bound once: a method value allocates at each use

	books      books
	admitted   int
	reclaimSum time.Duration // over LatentPlacements
	// afterHandler, when non-nil, runs after each arrive, depart, heartbeat
	// and promote: the tests' check that the books match the leader.
	afterHandler func()

	// Fault injection and HA (sim_faults.go), all zero without
	// SimConfig.Faults.
	inj        *faults.Injector
	crashables []*crashableNode
	// horizon is the last arrival (Feed requires the trace sorted). No
	// heartbeat or fault is scheduled past it, so the calendar drains.
	horizon time.Duration
	jdir    string // the journal's directory; "" without one
	// Manager HA (SimConfig.HAStandby): each leadership term wraps the
	// nodes in its own fencedNode set. The guards — one per physical node,
	// shared across terms — are the nodes' memory of the highest epoch they
	// have obeyed, so a deposed leader's commands are provably refused after
	// a partition heals.
	ha         bool
	guards     []*EpochGuard
	diskFailOp func(string) error // journal disk faults, HA only
	// headless marks the window between losing the leader and a takeover or
	// heal: arrivals bounce like refused connections, and departures wait in
	// deferred for the next term. highestEpoch keeps terms strictly
	// monotone even when takeovers overlap; termSeq names their journals.
	headless     bool
	deferred     []int
	highestEpoch uint64
	termSeq      int
}

// newSim builds a run: the trace, the fleet, its first manager and, under
// fault injection, the fault state. The trace is generated first, so the
// journal is the last thing built and the only one that needs cleaning up.
func newSim(cfg SimConfig, queried queryHook) (*sim, error) {
	cfg = cfg.withDefaults()
	events, err := trace.Generate(cfg.Trace)
	if err != nil {
		return nil, err
	}
	s := &sim{cfg: cfg, events: events, clock: simclock.New(), queried: queried,
		servers:  make([]*LocalController, cfg.Servers),
		nodes:    make([]Node, cfg.Servers),
		capacity: cfg.ServerCapacity.Scale(float64(cfg.Servers)),
		books:    books{running: make(map[string]booked)}}
	for i := range s.servers {
		name := fmt.Sprintf("server-%03d", i)
		sub, err := hypervisor.NewHost(hypervisor.Config{Name: name, Capacity: cfg.ServerCapacity})
		if err != nil {
			return nil, err
		}
		s.servers[i] = NewLocalController(sub, cascade.AllLevels(), cfg.Mode)
		s.nodes[i] = s.servers[i]
	}
	// Without fault injection the controllers are used directly — the exact
	// fault-free code path — so zeroed Faults reproduce baseline figures.
	if cfg.Faults.Enabled() {
		s.armFaults()
	}
	m := newManager(s.termNodes(), cfg.Policy, cfg.Seed, queried)
	if err = s.openJournal(m); err != nil {
		return nil, err
	}
	s.install(m)
	s.sampler = newStateSampler(s.servers, s.capacity, len(events), cfg.SampleEvery)
	curves := simCurves()
	s.newApps = make([][2]func(restypes.Vector) vm.Application, len(curves))
	for i, curve := range curves {
		for elastic := range 2 {
			s.newApps[i][elastic] = func(size restypes.Vector) vm.Application {
				return curveapp.New(curveapp.Config{Curve: curve, Size: size, Elastic: elastic == 1})
			}
		}
	}
	s.departs = s.depart
	return s, nil
}

// install makes m the leader, the first manager and every takeover alike:
// it wires migration-based reclamation (with the zero policy the manager is
// left untouched, the exact pre-migration path) and moves the books onto
// m's event stream. The replaced manager's index must not outlive it, and
// nothing it still does — a deposed leader's stale command — reaches the
// books. m is subscribed only after its takeover: the takeover's own
// repairs are reconciled by promote.
func (s *sim) install(m *Manager) {
	if s.cfg.Reclaim != ReclaimPreempt {
		m.SetReclaimPolicy(s.cfg.Reclaim)
		m.SetMigrationScheduler(func(d time.Duration, f func()) {
			s.clock.After(d, func(time.Duration) { f() })
		})
		if s.inj != nil {
			m.SetMigrationFaults(s.inj)
		}
	}
	if s.mgr != nil {
		s.mgr.sub = nil
		s.mgr.pidx.close()
	}
	m.sub = s.books.apply
	s.mgr = m
}

// books is the sim's ledger of admitted VMs still placed, kept as a fold
// of the leader's event stream in emit order, so the class sums add and
// subtract exactly as the manager's transitions happen. Between handlers
// the running set is the leader's fold's Placements (runCheckingBooks
// checks it). Within one, an evicted VM stays on the books until its
// replace or lost event, where the fold drops it at the eviction; and the
// books outlive a leadership term, where each term's manager has its own
// fold.
type books struct {
	running   map[string]booked
	high, low restypes.Vector // nominal load per class
	// lowEvictions counts low-priority VMs killed by node failures.
	lowEvictions int
}

// booked is one running VM's nominal size and class.
type booked struct {
	size restypes.Vector
	high bool
}

// apply folds one event into the books.
func (b *books) apply(e Event) {
	switch e.Kind {
	case evLaunch, VMReplaced, VMAdopted:
		for _, name := range e.Preempted {
			b.drop(name)
		}
		if _, ok := b.running[e.VM]; !ok {
			v := booked{size: e.Spec.Size, high: e.Spec.Priority == vm.HighPriority}
			b.running[e.VM] = v
			if v.high {
				b.high = b.high.Add(v.size)
			} else {
				b.low = b.low.Add(v.size)
			}
		}
	case evRelease, evPreempt, VMLost:
		b.drop(e.VM)
	case VMEvicted:
		if v, ok := b.running[e.VM]; ok && !v.high {
			b.lowEvictions++
		}
	}
}

// drop takes a VM off the books, and reports it and whether it was there.
func (b *books) drop(name string) (booked, bool) {
	v, ok := b.running[name]
	if !ok {
		return v, false
	}
	delete(b.running, name)
	if v.high {
		b.high = b.high.Sub(v.size)
	} else {
		b.low = b.low.Sub(v.size)
	}
	return v, true
}

// handled runs the afterHandler seam, if set.
func (s *sim) handled() {
	if s.afterHandler != nil {
		s.afterHandler()
	}
}

// fail records err as the run's failure unless one is already recorded.
func (s *sim) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// meterSample accrues revenue for the interval that just ended, using the
// allocations in effect up to now.
func (s *sim) meterSample() {
	if s.cfg.Meter == nil {
		return
	}
	var usages []pricing.Usage
	for _, c := range s.servers {
		for _, v := range c.VMs() {
			usages = append(usages, pricing.Usage{
				Nominal:      v.Size(),
				Allocated:    v.Allocation(),
				HighPriority: v.Priority() == vm.HighPriority,
			})
		}
	}
	s.cfg.Meter.Sample(s.clock.Now(), usages)
}

// arrive offers trace VM i to the leader.
func (s *sim) arrive(i int, now time.Duration) {
	defer s.handled()
	e := s.events[i]
	s.meterSample()
	if s.headless {
		// No reachable leader: the launch bounces exactly as a refused
		// connection would.
		s.res.Rejections++
		return
	}
	// Admission control maintains the paper's population mix ("50.0% VMs
	// are low-priority"): each class may hold half the target
	// overcommitment in nominal resources.
	classNominal := s.books.low
	if e.HighPriority {
		classNominal = s.books.high
	}
	if overcommitOf(classNominal, s.capacity) >= s.cfg.TargetOvercommit/2 {
		return // drop: class already at target pressure
	}
	// AppKind is the serializable fallback for the factory: NewApp takes
	// precedence while this manager lives, but a journal replay cannot
	// carry a function, so post-recovery re-placements relaunch the VM
	// from the registered generic kind instead.
	prio, minSize, appKind, elastic := vm.LowPriority, e.Size.Scale(s.cfg.MinSizeFraction), "elastic", 1
	if e.HighPriority {
		prio, minSize, appKind, elastic = vm.HighPriority, restypes.Vector{}, "inelastic", 0
	}
	spec := LaunchSpec{Name: e.ID, Size: e.Size, MinSize: minSize, Priority: prio, Warm: true,
		AppKind: appKind, NewApp: s.newApps[s.admitted%len(s.newApps)][elastic]}
	// The launch's events put the VM on the books and take off any it
	// preempted.
	_, rep, err := s.mgr.Launch(spec)
	if err != nil {
		s.res.Rejections++
		return
	}
	if rep.ReclaimLatency > 0 {
		s.res.LatentPlacements++
		s.reclaimSum += rep.ReclaimLatency
		s.res.MaxReclaimLatency = max(s.res.MaxReclaimLatency, rep.ReclaimLatency)
	}
	if !e.HighPriority {
		s.res.LowPriorityStarted++
	}
	s.clock.AtIndex(now+e.Lifetime, s.departs, i)
	s.admitted++
	s.sampler.admission(s.admitted, s.books.high.Add(s.books.low), s.mgr)
}

// depart ends trace VM i's lifetime. With no reachable leader it waits for
// the next term, or for the partition to heal (see resume).
func (s *sim) depart(i int, _ time.Duration) {
	defer s.handled()
	if s.headless {
		s.deferred = append(s.deferred, i)
		return
	}
	s.meterSample()
	name := s.events[i].ID
	if _, ok := s.books.running[name]; !ok || !s.mgr.Placed(name) {
		return // preempted earlier
	}
	// A VM departing from a crashed-but-undetected node cannot be
	// released over the control plane; the crash already destroyed it.
	if err := s.mgr.Release(name); err != nil && !errors.Is(err, ErrNodeDown) {
		s.fail(err)
	}
}

// run plays the trace to the end and reports the result. Faults are
// scheduled before the arrivals are fed, which fixes the calendar's
// same-instant order.
func (s *sim) run() (SimResult, error) {
	defer s.close()
	if s.inj != nil {
		s.startFaults()
	}
	arrivals := make([]time.Duration, len(s.events))
	for i, e := range s.events {
		arrivals[i] = e.Arrival
	}
	s.clock.Feed(arrivals, s.arrive)
	s.clock.Run()
	if s.err != nil {
		return s.res, s.err
	}
	// Preempted VMs may still have departure events pending; Placed()
	// already reconciled them.
	res := &s.res
	res.Preemptions = s.mgr.Preemptions()
	if res.LowPriorityStarted > 0 {
		res.PreemptionProbability = float64(res.Preemptions+s.books.lowEvictions) / float64(res.LowPriorityStarted)
	}
	res.FailurePreemptions = s.mgr.FailurePreemptions()
	ms := s.mgr.MigrationStats()
	res.Migrations, res.MigrationFailures, res.ConvergenceFailures = ms.Migrations, ms.Failures, ms.ConvergenceFailures
	res.MigratedMB, res.MigrationTime, res.MigrationDowntime = ms.MigratedMB, ms.TotalDuration, ms.TotalDowntime
	final := s.mgr.Snapshot()
	res.VMsReplaced, res.VMsLost = final.ReplacedVMs, final.LostVMs
	s.sampler.report(res)
	if res.LatentPlacements > 0 {
		res.MeanReclaimLatency = s.reclaimSum / time.Duration(res.LatentPlacements)
	}
	return *res, nil
}

// overcommitOf measures nominal load against capacity on the binding
// dimension (the paper's VM mix is CPU-heavy relative to servers, so CPU
// binds; using the max keeps the metric meaningful for any mix).
func overcommitOf(nominal, capacity restypes.Vector) float64 {
	if capacity.CPU == 0 || capacity.MemoryMB == 0 {
		return 0
	}
	cpu := nominal.CPU / capacity.CPU
	mem := nominal.MemoryMB / capacity.MemoryMB
	if cpu > mem {
		return cpu
	}
	return mem
}

package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"deflation/internal/apps/curveapp"
	"deflation/internal/cascade"
	"deflation/internal/faults"
	"deflation/internal/hypervisor"
	"deflation/internal/journal"
	"deflation/internal/migration"
	"deflation/internal/perfmodel"
	"deflation/internal/pricing"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/simclock"
	"deflation/internal/substrate"
	"deflation/internal/telemetry"
	"deflation/internal/trace"
	"deflation/internal/vm"
)

// SimConfig parameterizes the trace-driven 100-node cluster simulation of
// §6.3 (Figs. 8c and 8d).
type SimConfig struct {
	Servers        int             // default 100
	ServerCapacity restypes.Vector // default 32 cores / 128 GB / 4000 / 4000
	Policy         PlacementPolicy
	Mode           Mode
	// TargetOvercommit is the admitted-nominal-to-capacity ratio the
	// admission loop sustains (1.6 = "60% overcommitment").
	TargetOvercommit float64
	// MinSizeFraction sets low-priority VMs' minimum size m_i as a
	// fraction of nominal ("empirically determined minimum levels for
	// Spark, memcached, and SpecJBB", default 0.10).
	MinSizeFraction float64
	// Trace drives arrivals; Count defaults to 2000.
	Trace trace.Config
	Seed  int64
	// Meter, when non-nil, accrues provider revenue over the simulation
	// (§8's pricing discussion; see internal/pricing).
	Meter *pricing.Meter
	// ProactiveHorizon enables predictive deflation (§7's future work):
	// before each arrival, low-priority VMs are pre-deflated so free
	// capacity covers the demand forecast over this horizon. Zero disables.
	ProactiveHorizon time.Duration
	// Faults configures deterministic fault injection: crash-stop node
	// failures detected by the manager's heartbeats, and agent/OS-level
	// cascade faults. The zero value disables injection entirely and the
	// simulation takes exactly the fault-free code path, so a chaos sweep's
	// zero-fault cell reproduces the baseline figures bit for bit.
	Faults faults.Config
	// HeartbeatInterval is the failure detector's probe period (default 30s;
	// only used when Faults is enabled).
	HeartbeatInterval time.Duration
	// HeartbeatMisses overrides the misses-before-dead threshold (default 3).
	HeartbeatMisses int
	// HAStandby enables manager high availability under fault injection: the
	// leader runs under a fencing epoch (every node wraps an epoch guard), a
	// warm standby shadows its WAL, and leader death — crash, partition, or a
	// poisoned journal — triggers a lease-expiry TakeOver from the standby's
	// replica instead of an in-place restart. Requires Faults to be enabled;
	// ignored otherwise, so the zero-fault path stays bit-for-bit identical.
	HAStandby bool
	// LeaseTimeout is the leadership lease: how long the cluster stays
	// headless between leader death and the standby's takeover (default
	// 2×HeartbeatInterval; only used with HAStandby).
	LeaseTimeout time.Duration
	// Reclaim selects the manager's reclamation fallback (see ReclaimPolicy).
	// The zero value (ReclaimPreempt) takes exactly the pre-migration code
	// path, so migration-disabled runs reproduce baseline figures bit for
	// bit.
	Reclaim ReclaimPolicy
	// Migration parameterizes the live-migration performance model; the zero
	// model uses defaults (dedicated 10 GbE link, 300 ms downtime target).
	// Only consulted when Reclaim enables migration.
	Migration migration.Model
	// Telemetry, when non-nil, instruments the simulated cluster: cascade
	// decisions are traced and counted per server, and the manager's
	// failure-detector and placement counters accrue into the sink's
	// registry. Nil (the default) leaves the simulation on the exact
	// uninstrumented hot path.
	Telemetry *telemetry.Sink
	// SampleEvery thins the post-warmup cluster sampling: state (overcommit,
	// per-server quantiles, throughput) is sampled on every SampleEvery-th
	// admission instead of every one. Each sample re-evaluates the servers
	// whose VMs changed and re-adds the cached per-server sums from the
	// lowest changed server on (see stateSampler) — still O(servers + VMs)
	// in the worst case, which XL fleets (the 8c-xl sweep) thin out. The
	// default 1 samples every admission, the exact legacy behavior bit for bit.
	SampleEvery int
	// ContainerFraction is the fraction of servers backed by the cgroup
	// container substrate (internal/simcg) instead of the KVM hypervisor;
	// the substrate is recorded in each launch's journaled placement so a
	// takeover restores container-backed VMs on a compatible node. Container
	// nodes are interleaved evenly across the fleet. Zero (the default)
	// keeps every server on the hypervisor substrate — the exact
	// pre-multi-substrate code path, bit-for-bit.
	ContainerFraction float64
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Servers == 0 {
		c.Servers = 100
	}
	if c.ServerCapacity.IsZero() {
		// 32 cores, 128 GB, and I/O generous enough that CPU and memory
		// are the binding dimensions; the largest trace VM (8 cores) is a
		// quarter of a server, keeping fragmentation realistic.
		c.ServerCapacity = restypes.V(32, 131072, 4000, 4000)
	}
	if c.TargetOvercommit == 0 {
		c.TargetOvercommit = 1.0
	}
	if c.MinSizeFraction == 0 {
		c.MinSizeFraction = 0.10
	}
	if c.Trace.Count == 0 {
		c.Trace.Count = 2000
	}
	if c.Trace.Seed == 0 {
		c.Trace.Seed = c.Seed + 1
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 30 * time.Second
	}
	if c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed + 2
	}
	if c.LeaseTimeout == 0 {
		c.LeaseTimeout = 2 * c.HeartbeatInterval
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 1
	}
	return c
}

// SimResult reports a cluster simulation.
type SimResult struct {
	LowPriorityStarted int
	Preemptions        int
	// PreemptionProbability = (Preemptions + failure-induced evictions of
	// low-priority VMs) / LowPriorityStarted (Fig. 8c's y-axis; the failure
	// term is zero without SimConfig.Faults).
	PreemptionProbability float64
	Rejections            int
	AchievedOvercommit    float64 // time-averaged admitted nominal / capacity
	// ServerOvercommit quantiles across servers, sampled over time
	// (Fig. 8d's y-axis).
	ServerOvercommitMean float64
	ServerOvercommitP95  float64
	// MeanReclaimLatency and MaxReclaimLatency summarize the resource-
	// allocation latency deflation adds to placements that needed
	// reclamation (§6.3, "Latency").
	MeanReclaimLatency time.Duration
	MaxReclaimLatency  time.Duration
	// LatentPlacements counts placements that paid nonzero reclamation
	// latency; proactive deflation reduces it.
	LatentPlacements int
	// ProactiveReclaims counts predictive pre-deflation rounds.
	ProactiveReclaims int
	// MeanLowThroughput is the time-sampled mean normalized throughput of
	// the running low-priority VMs — the performance side of the
	// minimum-size (m_i) tradeoff: smaller minimums mean fewer preemptions
	// but deeper deflation.
	MeanLowThroughput float64
	// Goodput is the time-sampled aggregate normalized throughput summed
	// over all running VMs — the cluster's useful work rate. Crashes and
	// lost VMs lower it directly; deflation and injected agent faults lower
	// it through per-VM throughput.
	Goodput float64
	// NodeCrashes, FailurePreemptions, VMsReplaced, and VMsLost summarize
	// injected crash-stop failures (all zero without SimConfig.Faults).
	// FailurePreemptions = VMsReplaced + VMsLost.
	NodeCrashes        int
	FailurePreemptions int
	VMsReplaced        int
	VMsLost            int
	// ManagerCrashes counts injected manager crash-restart cycles; each one
	// rebuilds the manager from its journal via TakeOver (zero unless
	// Faults.ManagerCrashMTBF is set).
	ManagerCrashes int
	// Manager-HA activity (all zero unless SimConfig.HAStandby): standby
	// takeovers, injected leader partitions, total leaderless time across
	// crash/partition/poison windows, journals fail-stopped by injected disk
	// errors, deposed-leader commands provably refused by the nodes' epoch
	// guards after a partition healed, and healthy VMs a takeover evicted —
	// the HA design target for FailoverEvictions is zero.
	Failovers             int
	Partitions            int
	HeadlessTime          time.Duration
	JournalPoisonings     int
	StaleCommandsRejected int
	FailoverEvictions     int
	// Migration activity (all zero unless SimConfig.Reclaim enables
	// migration-based reclamation): completed migrations, failed/aborted
	// ones, pre-copy convergence failures, bytes moved, and the summed copy
	// duration and stop-and-copy downtime.
	Migrations          int
	MigrationFailures   int
	ConvergenceFailures int
	MigratedMB          float64
	MigrationTime       time.Duration
	MigrationDowntime   time.Duration
}

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
func RunSim(cfg SimConfig) (SimResult, error) { return runSim(cfg, nil, nil) }

// runSim is RunSim with two test hooks, both nil outside tests: the state
// sampler's per-pass check (see stateSampler.check), and the placement
// index's query seam, installed on every manager the run builds (see
// Manager.queried).
func runSim(cfg SimConfig, check func(s *stateSampler, mgr *Manager, gp, tpSum float64, tpN int), queried queryHook) (SimResult, error) {
	cfg = cfg.withDefaults()
	var res SimResult

	servers := make([]*LocalController, cfg.Servers)
	for i := range servers {
		var sub substrate.Substrate
		name := fmt.Sprintf("server-%03d", i)
		// Bresenham interleave: server i is container-backed iff the
		// cumulative container count must advance here, spreading the two
		// substrates evenly instead of splitting the fleet into halves.
		f := cfg.ContainerFraction
		if f > 0 && int(f*float64(i+1)) > int(f*float64(i)) {
			h, err := simcg.NewHost(simcg.Config{
				Name:     name,
				Capacity: cfg.ServerCapacity,
			})
			if err != nil {
				return res, err
			}
			sub = h
		} else {
			h, err := hypervisor.NewHost(hypervisor.Config{
				Name:     name,
				Capacity: cfg.ServerCapacity,
			})
			if err != nil {
				return res, err
			}
			sub = h
		}
		servers[i] = NewLocalController(sub, cascade.AllLevels(), cfg.Mode)
	}
	// Without fault injection the controllers are used directly — the exact
	// fault-free code path — so zeroed Faults reproduce baseline figures.
	injectFaults := cfg.Faults.Enabled()
	var inj *faults.Injector
	var crashables []*crashableNode
	nodes := make([]Node, len(servers))
	for i, s := range servers {
		nodes[i] = s
	}
	if injectFaults {
		inj = faults.New(cfg.Faults)
		crashables = make([]*crashableNode, len(servers))
		for i, s := range servers {
			crashables[i] = newCrashableNode(s)
			nodes[i] = crashables[i]
			// Cascade-level faults: hung or failed deflation agents and
			// partially-failed hot-unplugs, degrading to the next level.
			s.Cascade().SetFaultHook(func(level string) cascade.LevelFault {
				switch level {
				case "app":
					o := inj.AgentFault()
					return cascade.LevelFault{Fail: o.Fail, Hang: o.Hang}
				case "os":
					if o := inj.OSFault(); o.Fail {
						return cascade.LevelFault{Fail: true, Fraction: o.Fraction}
					}
				}
				return cascade.LevelFault{}
			})
		}
	}
	// Manager HA: each leadership term wraps the nodes in its own fencedNode
	// set. The guards — one per physical node, shared across terms — are the
	// nodes' memory of the highest epoch they have obeyed, so a deposed
	// leader's commands are provably refused after a partition heals.
	haActive := injectFaults && cfg.HAStandby
	makeNodes := func() []Node { return nodes }
	if haActive {
		base := make([]Node, len(nodes))
		copy(base, nodes)
		guards := make([]*EpochGuard, len(base))
		for i := range guards {
			guards[i] = &EpochGuard{}
		}
		makeNodes = func() []Node {
			term := make([]Node, len(base))
			for i := range base {
				term[i] = newFencedNode(base[i], guards[i])
			}
			return term
		}
		nodes = makeNodes()
	}
	mgr := newManager(nodes, cfg.Policy, cfg.Seed, queried)
	if injectFaults {
		mgr.SetHealthPolicy(HealthPolicy{MaxMisses: cfg.HeartbeatMisses})
	}
	if cfg.Telemetry != nil {
		mgr.SetTelemetry(cfg.Telemetry)
	}
	// Manager crash-restart faults and HA takeovers need a journal; it lives
	// in a temp dir for the simulation's lifetime. Batched fsyncs and a
	// coarse snapshot cadence keep the sim fast — in-process "crashes" lose
	// nothing the kernel accepted, which is exactly the durability model.
	const simSyncEvery, simSnapshotEvery = 64, 512
	var jdir string
	var diskFailOp func(string) error
	if haActive && cfg.Faults.DiskFailProb > 0 {
		diskFailOp = inj.DiskFault
	}
	if injectFaults && (cfg.Faults.ManagerCrashMTBF > 0 || haActive) {
		var err error
		jdir, err = os.MkdirTemp("", "deflsim-wal-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(jdir)
		j, err := journal.Open(jdir, journal.Options{SyncEvery: simSyncEvery, FailOp: diskFailOp})
		if err != nil {
			return res, err
		}
		defer func() { mgr.Journal().Close() }()
		mgr.AttachJournal(j, simSnapshotEvery)
		if haActive {
			// Term 1: every node RPC from now on carries the fencing epoch.
			mgr.BecomeLeader()
		}
	}

	events, err := trace.Generate(cfg.Trace)
	if err != nil {
		return res, err
	}

	totalCapacity := cfg.ServerCapacity.Scale(float64(cfg.Servers))
	// One application factory per (curve, elasticity) pair, built once:
	// every admission shares one instead of capturing its own closure.
	curves := simCurves()
	newApps := make([][2]func(restypes.Vector) vm.Application, len(curves))
	for i, curve := range curves {
		for elastic := range 2 {
			newApps[i][elastic] = func(size restypes.Vector) vm.Application {
				return curveapp.New(curveapp.Config{Curve: curve, Size: size, Elastic: elastic == 1})
			}
		}
	}

	// Per-class admission targets maintain the paper's population mix
	// ("50.0% VMs are low-priority"): each class may hold half the target
	// overcommitment in nominal resources.
	classTarget := cfg.TargetOvercommit / 2

	running := make(map[string]trace.Event) // admitted and still placed
	nominalHigh, nominalLow := restypes.Vector{}, restypes.Vector{}
	sampler := newStateSampler(servers, totalCapacity, len(events), cfg.SampleEvery)
	sampler.check = check
	var reclaimLatencies []time.Duration
	admitted := 0
	failureEvictions := 0 // low-priority VMs killed by node crashes
	// HA state: headless marks the window between leader death (or partition
	// onset) and takeover/heal; departures landing in it are deferred to the
	// next term, arrivals bounce like refused connections. Always false
	// without HAStandby. highestEpoch keeps terms strictly monotone even
	// when takeovers overlap.
	headless := false
	var deferredDeparts []string
	var highestEpoch uint64
	if haActive {
		highestEpoch = mgr.Epoch()
	}
	var simErr error

	// reconcile drops preempted VMs from the nominal-load accounting.
	reconcile := func(names []string) {
		for _, name := range names {
			e, ok := running[name]
			if !ok {
				continue
			}
			delete(running, name)
			nominalLow = nominalLow.Sub(e.Size) // only lows are preemptible
		}
	}

	// The simulation runs on the shared discrete-event clock: the trace's
	// arrivals stream in through one Feed, and each admission schedules its
	// departure as a typed event keyed by trace index.
	clock := simclock.New()

	// wireMigration configures migration-based reclamation on a manager
	// (including one rebuilt by crash recovery). With the zero policy the
	// manager is left untouched — the exact pre-migration code path.
	wireMigration := func(m *Manager) {
		if cfg.Reclaim == ReclaimPreempt {
			return
		}
		m.SetReclaimPolicy(cfg.Reclaim)
		m.SetMigrationModel(cfg.Migration)
		m.SetMigrationScheduler(func(d time.Duration, f func()) {
			clock.After(d, func(time.Duration) { f() })
		})
		if injectFaults {
			m.SetMigrationFaults(inj)
		}
	}
	wireMigration(mgr)

	// meterSample accrues revenue for the interval that just ended, using
	// the allocations in effect up to now.
	meterSample := func() {
		if cfg.Meter == nil {
			return
		}
		var usages []pricing.Usage
		for _, s := range servers {
			for _, v := range s.VMs() {
				usages = append(usages, pricing.Usage{
					Nominal:      v.Size(),
					Allocated:    v.Allocation(),
					HighPriority: v.Priority() == vm.HighPriority,
				})
			}
		}
		cfg.Meter.Sample(clock.Now(), usages)
	}

	depart := func(name string) {
		if headless {
			// No reachable leader; the departure lands once the new term
			// takes over (or the partition heals).
			deferredDeparts = append(deferredDeparts, name)
			return
		}
		meterSample()
		e, ok := running[name]
		if !ok || !mgr.Placed(name) {
			return // preempted earlier
		}
		delete(running, name)
		if e.HighPriority {
			nominalHigh = nominalHigh.Sub(e.Size)
		} else {
			nominalLow = nominalLow.Sub(e.Size)
		}
		// A VM departing from a crashed-but-undetected node cannot be
		// released over the control plane; the crash already destroyed it.
		if err := mgr.Release(name); err != nil && !errors.Is(err, ErrNodeDown) && simErr == nil {
			simErr = err
		}
	}

	var forecaster *Forecaster
	if cfg.ProactiveHorizon > 0 {
		var err error
		forecaster, err = NewForecaster(0.2)
		if err != nil {
			return res, err
		}
	}

	departIndex := func(i int, _ time.Duration) { depart(events[i].ID) }

	arrive := func(i int, _ time.Duration) {
		e := events[i]
		meterSample()
		if headless {
			// No reachable leader: the launch bounces exactly as a refused
			// connection would.
			res.Rejections++
			return
		}
		// Predictive deflation: make room for the forecast demand before
		// it arrives, so high-priority placements find free capacity.
		if forecaster != nil {
			if proactiveReclaim(servers, forecaster.Forecast(cfg.ProactiveHorizon)) > 0 {
				res.ProactiveReclaims++
			}
			if e.HighPriority {
				forecaster.Observe(clock.Now(), e.Size)
			}
		}
		// Admission control: hold each class at its share of the target.
		classNominal := nominalLow
		if e.HighPriority {
			classNominal = nominalHigh
		}
		if overcommitOf(classNominal, totalCapacity) >= classTarget {
			return // drop: class already at target pressure
		}
		prio := vm.LowPriority
		minSize := e.Size.Scale(cfg.MinSizeFraction)
		if e.HighPriority {
			prio = vm.HighPriority
			minSize = restypes.Vector{}
		}
		// AppKind is the serializable fallback for the factory: NewApp takes
		// precedence while this manager lives, but a journal replay cannot
		// carry a function, so post-recovery re-placements relaunch the VM
		// from the registered generic kind instead.
		appKind, elastic := "elastic", 1
		if e.HighPriority {
			appKind, elastic = "inelastic", 0
		}
		spec := LaunchSpec{
			Name:     e.ID,
			Size:     e.Size,
			MinSize:  minSize,
			Priority: prio,
			Warm:     true,
			AppKind:  appKind,
			NewApp:   newApps[admitted%len(curves)][elastic],
		}
		_, rep, err := mgr.Launch(spec)
		reconcile(rep.Preempted)
		if err != nil {
			res.Rejections++
			return
		}
		if rep.ReclaimLatency > 0 {
			res.LatentPlacements++
			reclaimLatencies = append(reclaimLatencies, rep.ReclaimLatency)
			if rep.ReclaimLatency > res.MaxReclaimLatency {
				res.MaxReclaimLatency = rep.ReclaimLatency
			}
		}
		if !e.HighPriority {
			res.LowPriorityStarted++
		}
		running[e.ID] = e
		if e.HighPriority {
			nominalHigh = nominalHigh.Add(e.Size)
		} else {
			nominalLow = nominalLow.Add(e.Size)
		}
		clock.AtIndex(clock.Now()+e.Lifetime, departIndex, i)

		// Sample cluster state after warmup, thinned by SampleEvery (1 =
		// every admission, the exact legacy cadence).
		admitted++
		sampler.admission(admitted, nominalHigh.Add(nominalLow), mgr)
	}

	if injectFaults {
		// The arrival window bounds both heartbeats and crash scheduling so
		// the event queue drains (an unbounded chain would never terminate).
		var horizon time.Duration
		for _, e := range events {
			if e.Arrival > horizon {
				horizon = e.Arrival
			}
		}
		// Manager takeovers: a crash restart replays the journal in place, an
		// HA promotion starts from the standby's replica. Both go through
		// TakeOver and install its manager the same way. takeOver returns nil
		// (recording the error) when the takeover fails.
		takeOver := func(what, dir string, replica *WALState) *Manager {
			m2, _, err := takeOver(DurabilityConfig{
				Dir: dir, SnapshotEvery: simSnapshotEvery, SyncEvery: simSyncEvery, FailOp: diskFailOp,
			}, replica, makeNodes(), cfg.Policy, cfg.Seed, queried)
			if err != nil && simErr == nil {
				simErr = fmt.Errorf("cluster: sim %s: %w", what, err)
			}
			return m2
		}
		install := func(m2 *Manager) {
			m2.SetHealthPolicy(HealthPolicy{MaxMisses: cfg.HeartbeatMisses})
			if cfg.Telemetry != nil {
				m2.SetTelemetry(cfg.Telemetry)
			}
			wireMigration(m2)
			mgr.pidx.close() // the replaced manager's index must not outlive it
			mgr = m2         // arrive/depart/heartbeat closures see the new manager
		}

		// HA takeover machinery (inert unless haActive).
		//
		// replicaOf reads the standby's warm replica out of the leader's
		// journal — the same snapshot-plus-tail batch a Follower applies over
		// HTTP, at zero lag. A poisoned journal still serves reads: the
		// append that hit the injected disk error never durably wrote, so it
		// is absent here too, which is exactly the replication-lag semantics
		// (the fail-stopped leader's last in-memory mutations are recovered
		// from node ground truth, not from the WAL).
		replicaOf := func(j *journal.Journal) (*WALState, error) {
			b, err := j.RecordsAfter(0)
			if err != nil {
				return nil, err
			}
			return replay(NewWALState(), b)
		}
		// resume ends a headless window and lands the departures it queued.
		resume := func() {
			headless = false
			pending := deferredDeparts
			deferredDeparts = nil
			for _, name := range pending {
				depart(name)
			}
		}
		// promote builds the next term's manager from the standby's frozen
		// replica, in a journal directory of its own, and swaps it in.
		var termSeq int
		promote := func(st *WALState) {
			termSeq++
			m2 := takeOver("standby promotion", filepath.Join(jdir, fmt.Sprintf("standby-term-%03d", termSeq)), st)
			if m2 == nil {
				return
			}
			if m2.Epoch() <= highestEpoch {
				// A takeover during a takeover (a crash inside a partition
				// window) can promote from the replica of an already-
				// superseded term; leadership epochs stay strictly monotone.
				m2.SetEpoch(highestEpoch + 1)
			}
			highestEpoch = m2.Epoch()
			// Healthy-workload accounting across the takeover. A running VM
			// the new term no longer places usually died with its node while
			// the cluster was headless — charged like any heartbeat eviction.
			// Two live-VM cases are distinct: a VM alive on a node the
			// replica still marks dead is merely unreplicated (the old
			// leader saw the node rejoin after its journal stopped); the
			// heartbeat adopts it when the node rejoins this term too, so it
			// stays in the books. A VM alive on a node this term trusts is a
			// genuine takeover eviction — the failure mode fencing and
			// adoption exist to prevent, counted separately (target: zero).
			names := make([]string, 0, len(running))
			for name := range running {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if m2.Placed(name) {
					continue
				}
				aliveOn := -1
				for i, s := range servers {
					if ok, err := s.Has(name); err == nil && ok {
						aliveOn = i
						break
					}
				}
				if aliveOn >= 0 {
					if m2.health[aliveOn].dead {
						continue // re-adopted on rejoin, via ProbeHealth
					}
					res.FailoverEvictions++
				}
				e := running[name]
				delete(running, name)
				if e.HighPriority {
					nominalHigh = nominalHigh.Sub(e.Size)
				} else {
					nominalLow = nominalLow.Sub(e.Size)
					failureEvictions++
				}
			}
			install(m2)
			res.Failovers++
			resume()
		}
		// leaderDown fail-stops the current leader: freeze the standby's
		// replica now (nothing the dead leader did after this instant reached
		// it), close the journal, and schedule the lease-expiry takeover.
		leaderDown := func() {
			if headless {
				return // a takeover is already in progress
			}
			st, err := replicaOf(mgr.Journal())
			if err != nil {
				if simErr == nil {
					simErr = fmt.Errorf("cluster: sim replica read: %w", err)
				}
				return
			}
			mgr.Journal().Close()
			old := mgr
			headless = true
			res.HeadlessTime += cfg.LeaseTimeout
			clock.After(cfg.LeaseTimeout, func(time.Duration) {
				if mgr != old {
					return
				}
				promote(st)
			})
		}
		// staleProbe has a deposed leader act on its stale view — release its
		// first placement — which a correctly fenced node must refuse. A
		// mutation that goes through is a split-brain bug, failed loudly.
		staleProbe := func(old *Manager) {
			defer func() {
				if j := old.Journal(); j != nil {
					j.Close()
				}
			}()
			var names []string
			for name := range old.Placements() {
				names = append(names, name)
			}
			if len(names) == 0 {
				return
			}
			sort.Strings(names)
			if err := old.Release(names[0]); errors.Is(err, ErrStaleEpoch) {
				res.StaleCommandsRejected++
			} else if simErr == nil {
				simErr = fmt.Errorf("cluster: sim deposed leader's command was not fenced (vm %s, err %v)", names[0], err)
			}
		}
		// Heartbeat rounds drive the failure detector; its events feed the
		// sim's nominal-load and preemption accounting. The round also
		// doubles as the leader's own liveness check: a journal poisoned by
		// an injected disk error fail-stops the leader here, bounding
		// poison-detection latency at one heartbeat interval.
		clock.Every(cfg.HeartbeatInterval, func(now time.Duration) bool {
			if headless {
				return now < horizon // no leader to probe
			}
			if haActive && mgr.WALError() != nil {
				res.JournalPoisonings++
				leaderDown()
				return now < horizon
			}
			for _, ev := range mgr.ProbeHealth() {
				switch ev.Kind {
				case VMEvicted:
					if e, ok := running[ev.VM]; ok && !e.HighPriority {
						failureEvictions++
					}
				case VMReplaced:
					// The VM restarted elsewhere and keeps running; any
					// capacity preemptions its re-placement caused are
					// reconciled like any others.
					reconcile(ev.Preempted)
				case VMLost:
					if e, ok := running[ev.VM]; ok {
						delete(running, ev.VM)
						if e.HighPriority {
							nominalHigh = nominalHigh.Sub(e.Size)
						} else {
							nominalLow = nominalLow.Sub(e.Size)
						}
					}
				}
			}
			return now < horizon
		})
		// Crash-stop node failures: exponentially-distributed inter-crash
		// gaps per node; a crashed node recovers empty after RecoveryTime and
		// its next crash is drawn then, from its own stream.
		var scheduleCrash func(i int)
		scheduleCrash = func(i int) {
			gap, ok := inj.NextCrash(servers[i].Name())
			if !ok {
				return
			}
			at := clock.Now() + gap
			if at > horizon {
				return
			}
			clock.At(at, func(time.Duration) {
				crashables[i].crash()
				res.NodeCrashes++
				clock.After(inj.RecoveryTime(servers[i].Name()), func(time.Duration) {
					crashables[i].recover()
					scheduleCrash(i)
				})
			})
		}
		for i := range crashables {
			scheduleCrash(i)
		}
		// Manager crash failures. Without HA the manager process dies and
		// immediately restarts through TakeOver on its own journal. With
		// HAStandby the dead leader stays dead and the standby takes over at
		// lease expiry instead. In both modes the nodes (and their VMs) keep
		// running throughout, exactly like deflagent processes outliving a
		// SIGKILL'd deflated.
		if cfg.Faults.ManagerCrashMTBF > 0 {
			var scheduleMgrCrash func()
			scheduleMgrCrash = func() {
				gap, ok := inj.NextManagerCrash()
				if !ok {
					return
				}
				at := clock.Now() + gap
				if at > horizon {
					return
				}
				clock.At(at, func(time.Duration) {
					if haActive {
						// A crash while already headless hits a process
						// that is not leading anything; nothing to do.
						if !headless {
							res.ManagerCrashes++
							leaderDown()
						}
						scheduleMgrCrash()
						return
					}
					mgr.Journal().Close()
					m2 := takeOver("manager recovery", jdir, nil)
					if m2 == nil {
						return
					}
					install(m2)
					res.ManagerCrashes++
					scheduleMgrCrash()
				})
			}
			scheduleMgrCrash()
		}
		// Network partitions: the leader keeps running but can reach neither
		// agents nor its standby — the classic dual-leader window. The
		// standby's lease expires mid-partition and it takes over under a
		// bumped epoch; when the network heals, the deposed leader retries
		// its queued work and the nodes' epoch guards must refuse it (the
		// rejection is counted; a mutation that lands fails the sim). A
		// partition shorter than the lease just stalls the control plane.
		if haActive && cfg.Faults.PartitionMTBF > 0 {
			var schedulePartition func()
			schedulePartition = func() {
				gap, ok := inj.NextPartition()
				if !ok {
					return
				}
				at := clock.Now() + gap
				if at > horizon {
					return
				}
				clock.At(at, func(time.Duration) {
					if headless {
						schedulePartition() // already failing over; skip
						return
					}
					dur := inj.PartitionDuration()
					old := mgr
					// Freeze the standby's replica at partition onset:
					// nothing the isolated leader journals after this
					// instant replicates.
					st, err := replicaOf(old.Journal())
					if err != nil {
						if simErr == nil {
							simErr = fmt.Errorf("cluster: sim replica read: %w", err)
						}
						return
					}
					res.Partitions++
					headless = true
					if dur > cfg.LeaseTimeout {
						res.HeadlessTime += cfg.LeaseTimeout
						clock.After(cfg.LeaseTimeout, func(time.Duration) {
							if mgr == old {
								promote(st)
							}
						})
					} else {
						// Too short to expire the lease: the leader comes
						// back with its term intact.
						res.HeadlessTime += dur
					}
					clock.After(dur, func(time.Duration) {
						if mgr == old {
							resume()
						} else {
							// Healed into a newer term: the deposed leader
							// must find itself fenced.
							staleProbe(old)
						}
						schedulePartition()
					})
				})
			}
			schedulePartition()
		}
	}

	arrivals := make([]time.Duration, len(events))
	for i, e := range events {
		arrivals[i] = e.Arrival
	}
	clock.Feed(arrivals, arrive)
	clock.Run()
	if simErr != nil {
		return res, simErr
	}

	// Preempted VMs may still have departure events pending; Placed()
	// already reconciled them. Final accounting:
	res.Preemptions = mgr.Preemptions()
	if res.LowPriorityStarted > 0 {
		res.PreemptionProbability = float64(res.Preemptions+failureEvictions) / float64(res.LowPriorityStarted)
	}
	res.FailurePreemptions = mgr.FailurePreemptions()
	ms := mgr.MigrationStats()
	res.Migrations = ms.Migrations
	res.MigrationFailures = ms.Failures
	res.ConvergenceFailures = ms.ConvergenceFailures
	res.MigratedMB = ms.MigratedMB
	res.MigrationTime = ms.TotalDuration
	res.MigrationDowntime = ms.TotalDowntime
	finalStats := mgr.Snapshot()
	res.VMsReplaced = finalStats.ReplacedVMs
	res.VMsLost = finalStats.LostVMs
	sampler.report(&res)
	if len(reclaimLatencies) > 0 {
		var sum time.Duration
		for _, l := range reclaimLatencies {
			sum += l
		}
		res.MeanReclaimLatency = sum / time.Duration(len(reclaimLatencies))
	}
	return res, nil
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

package cluster

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/faults"
	"deflation/internal/journal"
)

// Manager crash-restart faults and HA takeovers need a journal; it lives
// in a temp dir for the simulation's lifetime. Batched fsyncs and a coarse
// snapshot cadence keep the sim fast — in-process "crashes" lose nothing
// the kernel accepted, which is exactly the durability model.
const simSyncEvery, simSnapshotEvery = 64, 512

// forever is a leader death's outage: longer than any lease.
const forever = time.Duration(math.MaxInt64)

// armFaults wraps every server in a crash-stop switch, injects cascade
// faults (hung or failed deflation agents and partially-failed
// hot-unplugs, degrading to the next level) and, with HAStandby, sets up
// the fencing guards.
func (s *sim) armFaults() {
	s.inj = faults.New(s.cfg.Faults)
	s.crashables = make([]*crashableNode, len(s.servers))
	for i, c := range s.servers {
		s.crashables[i] = newCrashableNode(c)
		s.nodes[i] = s.crashables[i]
		c.Cascade().SetFaultHook(s.cascadeFault)
	}
	if n := len(s.events); n > 0 {
		s.horizon = s.events[n-1].Arrival
	}
	if !s.cfg.HAStandby {
		return
	}
	s.ha = true
	s.guards = make([]*EpochGuard, len(s.nodes))
	for i := range s.guards {
		s.guards[i] = &EpochGuard{}
	}
	if s.cfg.Faults.DiskFailProb > 0 {
		s.diskFailOp = s.inj.DiskFault
	}
}

// cascadeFault is every server's cascade fault hook: the app and os levels
// draw their outcomes from the injector.
func (s *sim) cascadeFault(level string) cascade.LevelFault {
	switch level {
	case "app":
		o := s.inj.AgentFault()
		return cascade.LevelFault{Fail: o.Fail, Hang: o.Hang}
	case "os":
		if o := s.inj.OSFault(); o.Fail {
			return cascade.LevelFault{Fail: true, Fraction: o.Fraction}
		}
	}
	return cascade.LevelFault{}
}

// termNodes returns the nodes a new leadership term commands: fenced
// afresh under HA, the sim's nodes as they are otherwise.
func (s *sim) termNodes() []Node {
	if !s.ha {
		return s.nodes
	}
	term := make([]Node, len(s.nodes))
	for i, n := range s.nodes {
		term[i] = newFencedNode(n, s.guards[i])
	}
	return term
}

// openJournal attaches a journal to the first manager when manager crashes
// or HA need one. Under HA it also starts term 1: every node RPC from then
// on carries the fencing epoch.
func (s *sim) openJournal(m *Manager) error {
	if s.inj == nil || (s.cfg.Faults.ManagerCrashMTBF <= 0 && !s.ha) {
		return nil
	}
	dir, err := os.MkdirTemp("", "deflsim-wal-")
	if err != nil {
		return err
	}
	j, err := journal.Open(dir, journal.Options{SyncEvery: simSyncEvery, FailOp: s.diskFailOp})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	s.jdir = dir
	m.AttachJournal(j, simSnapshotEvery)
	if s.ha {
		s.highestEpoch = m.BecomeLeader()
	}
	return nil
}

// close releases the journal and its directory.
func (s *sim) close() {
	if s.jdir != "" {
		s.mgr.Journal().Close()
		os.RemoveAll(s.jdir)
	}
}

// startFaults starts the heartbeat and the fault chains. Without HA a
// manager crash restarts the manager in place through TakeOver on its own
// journal; with HAStandby the dead leader stays dead and the standby takes
// over at lease expiry instead. In both modes the nodes (and their VMs)
// keep running throughout, exactly like deflagent processes outliving a
// SIGKILL'd deflated.
func (s *sim) startFaults() {
	s.clock.Every(s.cfg.HeartbeatInterval, s.heartbeat)
	for i := range s.crashables {
		s.nextCrash(i)
	}
	s.nextManagerCrash()
	if s.ha {
		s.nextPartition()
	}
}

// schedule draws a fault chain's next gap and runs fire at its end, unless
// the chain has ended (more is false) or the gap ends past the horizon.
func (s *sim) schedule(draw func() (gap time.Duration, more bool), fire func(time.Duration)) {
	gap, more := draw()
	if at := s.clock.Now() + gap; more && at <= s.horizon {
		s.clock.At(at, fire)
	}
}

// heartbeat is a round of the failure detector. The round doubles as the
// leader's own liveness check: a journal poisoned by an injected disk error
// fail-stops the leader here, bounding poison-detection latency at one
// heartbeat interval.
func (s *sim) heartbeat(now time.Duration) bool {
	defer s.handled()
	switch {
	case s.headless: // no leader to probe
	case s.ha && s.mgr.WALError() != nil:
		s.res.JournalPoisonings++
		s.leaderDown()
	default:
		s.mgr.ProbeHealth()
	}
	return now < s.horizon
}

// nextCrash draws server i's next crash-stop failure. A crashed server
// recovers empty after RecoveryTime, and its next crash is drawn then, from
// its own stream.
func (s *sim) nextCrash(i int) {
	name := s.servers[i].Name()
	s.schedule(func() (time.Duration, bool) { return s.inj.NextCrash(name) }, func(time.Duration) {
		s.crashables[i].crash()
		s.res.NodeCrashes++
		s.clock.After(s.inj.RecoveryTime(name), func(time.Duration) {
			s.crashables[i].recover()
			s.nextCrash(i)
		})
	})
}

// nextManagerCrash draws the manager's next crash.
func (s *sim) nextManagerCrash() {
	s.schedule(s.inj.NextManagerCrash, func(time.Duration) {
		if s.ha {
			// A crash while already headless hits a process that is not
			// leading anything; nothing to do.
			if !s.headless {
				s.res.ManagerCrashes++
				s.leaderDown()
			}
			s.nextManagerCrash()
			return
		}
		s.mgr.Journal().Close()
		m := s.takeOver("manager recovery", s.jdir, nil)
		if m == nil {
			return
		}
		s.install(m)
		s.res.ManagerCrashes++
		s.nextManagerCrash()
	})
}

// nextPartition draws the next network partition. The leader keeps running
// but can reach neither agents nor its standby — the classic dual-leader
// window. If the partition outlasts the lease, the standby takes over under
// a bumped epoch, and when the network heals the deposed leader retries its
// queued work, which the nodes' epoch guards must refuse (see staleProbe).
// A shorter partition just stalls the control plane.
func (s *sim) nextPartition() {
	s.schedule(s.inj.NextPartition, func(time.Duration) {
		if s.headless {
			s.nextPartition() // already failing over; skip
			return
		}
		dur := s.inj.PartitionDuration()
		old := s.mgr
		if !s.cutOff(dur) {
			return
		}
		s.res.Partitions++
		s.clock.After(dur, func(time.Duration) {
			if s.mgr == old {
				s.resume()
			} else {
				s.staleProbe(old)
			}
			s.nextPartition()
		})
	})
}

// leaderDown fail-stops the leader: an outage that never ends, so the
// standby takes over at lease expiry. Nothing the dead leader does reaches
// its journal.
func (s *sim) leaderDown() {
	if s.cutOff(forever) {
		s.mgr.Journal().Close()
	}
}

// cutOff separates the leader from the cluster for outage. It freezes the
// standby's replica now: nothing the leader journals after this instant
// replicates. The replica is the leader's journal read back — the same
// snapshot-plus-tail batch a Follower applies over HTTP, at zero lag. A
// poisoned journal still serves reads: the append that hit the injected
// disk error never durably wrote, so it is absent here too, which is
// exactly the replication-lag semantics (the fail-stopped leader's last
// in-memory mutations are recovered from node ground truth, not from the
// WAL). The cluster is then headless: for the whole outage if it ends
// within the lease, and until the standby is promoted at lease expiry
// otherwise. cutOff reports false, and fails the run, if the replica
// cannot be read.
func (s *sim) cutOff(outage time.Duration) bool {
	old := s.mgr
	b, err := old.Journal().RecordsAfter(0)
	var st *WALState
	if err == nil {
		st, err = replay(NewWALState(), b)
	}
	if err != nil {
		s.fail(fmt.Errorf("cluster: sim replica read: %w", err))
		return false
	}
	s.headless = true
	if outage <= s.cfg.LeaseTimeout {
		s.res.HeadlessTime += outage
		return true
	}
	s.res.HeadlessTime += s.cfg.LeaseTimeout
	s.clock.After(s.cfg.LeaseTimeout, func(time.Duration) {
		if s.mgr == old {
			s.promote(st)
		}
	})
	return true
}

// takeOver builds a manager through TakeOver: from the journal in dir, or
// from replica when non-nil. On failure it fails the run and returns nil.
func (s *sim) takeOver(what, dir string, replica *WALState) *Manager {
	m, _, err := takeOver(DurabilityConfig{
		Dir: dir, SnapshotEvery: simSnapshotEvery, SyncEvery: simSyncEvery, FailOp: s.diskFailOp,
	}, replica, s.termNodes(), s.cfg.Policy, s.cfg.Seed, s.queried)
	if err != nil {
		s.fail(fmt.Errorf("cluster: sim %s: %w", what, err))
	}
	return m
}

// promote builds the next term's manager from the standby's frozen replica,
// in a journal directory of its own, and makes it the leader.
func (s *sim) promote(st *WALState) {
	defer s.handled()
	s.termSeq++
	m := s.takeOver("standby promotion", filepath.Join(s.jdir, fmt.Sprintf("standby-term-%03d", s.termSeq)), st)
	if m == nil {
		return
	}
	if m.Epoch() <= s.highestEpoch {
		// A takeover during a takeover (a crash inside a partition window)
		// can promote from the replica of an already-superseded term;
		// leadership epochs stay strictly monotone.
		m.SetEpoch(s.highestEpoch + 1)
	}
	s.highestEpoch = m.Epoch()
	// Healthy-workload accounting across the takeover. A running VM the new
	// term no longer places usually died with its node while the cluster
	// was headless — charged like any heartbeat eviction. Two live-VM cases
	// are distinct: a VM alive on a node the replica still marks dead is
	// merely unreplicated (the old leader saw the node rejoin after its
	// journal stopped); the heartbeat adopts it when the node rejoins this
	// term too, so it stays on the books. A VM alive on a node this term
	// trusts is a genuine takeover eviction — the failure mode fencing and
	// adoption exist to prevent, counted separately (target: zero).
	for _, name := range slices.Sorted(maps.Keys(s.books.running)) {
		if m.Placed(name) {
			continue
		}
		aliveOn := -1
		for i, c := range s.servers {
			if ok, err := c.Has(name); err == nil && ok {
				aliveOn = i
				break
			}
		}
		if aliveOn >= 0 {
			if m.health[aliveOn].dead {
				continue // re-adopted on rejoin, via ProbeHealth
			}
			s.res.FailoverEvictions++
		}
		if v, _ := s.books.drop(name); !v.high {
			s.books.lowEvictions++
		}
	}
	s.install(m)
	s.res.Failovers++
	s.resume()
}

// resume ends a headless window and lands the departures it deferred.
func (s *sim) resume() {
	s.headless = false
	pending := s.deferred
	s.deferred = nil
	for _, i := range pending {
		s.depart(i, s.clock.Now())
	}
}

// staleProbe has a deposed leader act on its stale view — release its
// first placement — which a correctly fenced node must refuse. A mutation
// that goes through is a split-brain bug, failed loudly.
func (s *sim) staleProbe(old *Manager) {
	defer func() {
		if j := old.Journal(); j != nil {
			j.Close()
		}
	}()
	names := slices.Sorted(maps.Keys(old.Placements()))
	if len(names) == 0 {
		return
	}
	if err := old.Release(names[0]); errors.Is(err, ErrStaleEpoch) {
		s.res.StaleCommandsRejected++
	} else {
		s.fail(fmt.Errorf("cluster: sim deposed leader's command was not fenced (vm %s, err %v)", names[0], err))
	}
}

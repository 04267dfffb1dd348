package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"deflation/internal/cascade"
	"deflation/internal/faults"
	"deflation/internal/hypervisor"
	"deflation/internal/journal"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// newFencedCluster mirrors newCrashableCluster but wraps every node in an
// epoch guard, and hands back a factory so each leadership term gets its own
// wrapper set over the shared guards — the HA deployment shape.
func newFencedCluster(t *testing.T, n int) ([]*crashableNode, func() []Node) {
	t.Helper()
	nodes := make([]*crashableNode, n)
	guards := make([]*EpochGuard, n)
	for i := range nodes {
		h, err := hypervisor.NewHost(hypervisor.Config{
			Name:     fmt.Sprintf("s%d", i),
			Capacity: restypes.V(16, 65536, 400, 400),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = newCrashableNode(NewLocalController(h, cascade.AllLevels(), ModeDeflation))
		guards[i] = &EpochGuard{}
	}
	return nodes, func() []Node {
		term := make([]Node, n)
		for i := range nodes {
			term[i] = newFencedNode(nodes[i], guards[i])
		}
		return term
	}
}

// replicaFromJournal reads the standby's warm replica out of the leader's
// journal — the snapshot-plus-tail batch stream a Follower applies, at zero
// lag.
func replicaFromJournal(t *testing.T, j *journal.Journal) *WALState {
	t.Helper()
	st := NewWALState()
	b, err := j.RecordsAfter(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Snapshot != nil {
		if err := json.Unmarshal(b.Snapshot, st); err != nil {
			t.Fatal(err)
		}
		if st.AppliedSeq < b.SnapshotSeq {
			st.AppliedSeq = b.SnapshotSeq
		}
	}
	for _, rec := range b.Records {
		if err := st.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// failoverSteps drives a leader through every journaled transition kind —
// launches, a release, both migration outcomes, a rejection, a node death
// with eviction and re-placement, and an empty rejoin. The property test
// kills the leader after each step.
func failoverSteps(t *testing.T, nodes []*crashableNode) []func(m *Manager) {
	t.Helper()
	mustLaunch := func(m *Manager, spec LaunchSpec) {
		if _, _, err := m.Launch(spec); err != nil {
			t.Fatal(err)
		}
	}
	migrateOff := func(m *Manager, name string) string {
		src := m.Placements()[name]
		for _, s := range m.Servers() {
			if s.Name() != src {
				return s.Name()
			}
		}
		t.Fatalf("no migration target for %s", name)
		return ""
	}
	return []func(m *Manager){
		func(m *Manager) { mustLaunch(m, durSpec("vm-0", vm.LowPriority, 0.25)) },
		func(m *Manager) { mustLaunch(m, durSpec("vm-1", vm.LowPriority, 0.25)) },
		func(m *Manager) { mustLaunch(m, durSpec("vm-2", vm.LowPriority, 0.25)) },
		func(m *Manager) { mustLaunch(m, durSpec("hp-0", vm.HighPriority, 0)) },
		func(m *Manager) {
			if err := m.Release("vm-2"); err != nil {
				t.Fatal(err)
			}
		},
		func(m *Manager) {
			if _, err := m.Migrate("vm-0", migrateOff(m, "vm-0")); err != nil {
				t.Fatal(err)
			}
		},
		func(m *Manager) {
			m.SetMigrationFaults(faults.New(faults.Config{MigrationFailProb: 1, Seed: 5}))
			if _, err := m.Migrate("vm-1", migrateOff(m, "vm-1")); err == nil {
				t.Fatal("fault-injected migration unexpectedly succeeded")
			}
			m.SetMigrationFaults(nil)
		},
		func(m *Manager) {
			huge := durSpec("huge", vm.LowPriority, 1.0)
			huge.Size = restypes.V(1024, 1<<30, 1, 1)
			huge.MinSize = huge.Size
			if _, _, err := m.Launch(huge); err == nil {
				t.Fatal("huge launch unexpectedly admitted")
			}
		},
		func(m *Manager) { nodes[0].crash(); probeUntilDead(t, m) },
		func(m *Manager) { nodes[0].recover(); m.ProbeHealth() },
	}
}

// inventoryByNode maps every VM actually alive in the cluster to the node
// running it (crashed nodes report nothing — their VMs are dead).
func inventoryByNode(t *testing.T, nodes []*crashableNode) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, n := range nodes {
		inv, err := n.Inventory()
		if err != nil {
			continue
		}
		for _, vs := range inv {
			out[vs.Name] = n.Name()
		}
	}
	return out
}

// TestFailoverAtEveryCrashPoint is the HA property test: kill the leader
// after every scripted WAL transition and promote a standby from its warm
// replica. At every crash point the promoted manager must (a) converge to
// exactly the leader's state at death, (b) keep every healthy workload
// running where it was — zero evictions, zero restarts — and (c) fence the
// deposed leader off the cluster with a bumped epoch.
func TestFailoverAtEveryCrashPoint(t *testing.T) {
	nSteps := len(failoverSteps(t, nil)) // script length; closures unused
	for k := 0; k <= nSteps; k++ {
		nodes, termNodes := newFencedCluster(t, 3)
		leader, err := NewManager(termNodes(), BestFit, 7)
		if err != nil {
			t.Fatal(err)
		}
		j, err := journal.Open(t.TempDir(), journal.Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		leader.AttachJournal(j, 1<<30)
		if got := leader.BecomeLeader(); got != 1 {
			t.Fatalf("first term epoch = %d, want 1", got)
		}
		steps := failoverSteps(t, nodes)
		for i := 0; i < k; i++ {
			steps[i](leader)
		}

		// The leader dies here. Freeze ground truth and the standby's
		// replica, then promote.
		before := inventoryByNode(t, nodes)
		st := replicaFromJournal(t, j)
		j.Close()
		// (a) Convergence: the replica (and therefore the promoted state)
		// is exactly the leader's fold at death, and reconciliation found
		// nothing to repair — the replica was not stale.
		requireSameFold(t, fmt.Sprintf("step %d: replica", k), st, leader.fold)

		m2, rep, err := TakeOver(DurabilityConfig{Dir: t.TempDir()},
			st, termNodes(), BestFit, 7)
		if err != nil {
			t.Fatalf("step %d: promote: %v", k, err)
		}
		requireFoldReplays(t, fmt.Sprintf("step %d: promoted", k), m2)
		if rep.Lost != 0 || rep.Replaced != 0 || rep.StaleReleased != 0 {
			t.Errorf("step %d: takeover repaired a non-stale replica: %+v", k, rep)
		}

		// (b) No healthy-workload disruption: every VM alive before the
		// takeover is still alive on the same node, and the new term places
		// all of them.
		after := inventoryByNode(t, nodes)
		for name, node := range before {
			if after[name] != node {
				t.Errorf("step %d: healthy VM %s disrupted by takeover (%s -> %q)",
					k, name, node, after[name])
			}
			if !m2.Placed(name) {
				t.Errorf("step %d: alive VM %s not placed after takeover", k, name)
			}
		}

		// (c) Fencing: the new term runs at a higher epoch and the deposed
		// leader's next command is provably refused.
		if m2.Epoch() != 2 {
			t.Errorf("step %d: promoted epoch = %d, want 2", k, m2.Epoch())
		}
		var stale []string
		for name := range leader.Placements() {
			stale = append(stale, name)
		}
		sort.Strings(stale)
		if len(stale) > 0 {
			if err := leader.Release(stale[0]); !errors.Is(err, ErrStaleEpoch) {
				t.Errorf("step %d: deposed leader's release of %s not fenced: %v",
					k, stale[0], err)
			}
		}
	}
}

// watchedNode logs every mutating command that reaches a fenced node: the
// epoch it carried, and what each guard in the fleet read at that moment.
type watchedNode struct {
	*fencedNode
	guards []*EpochGuard
	calls  *[]watchedCall
}

type watchedCall struct {
	op     string
	epoch  uint64
	guards []uint64
}

func (n *watchedNode) note(op string) {
	n.mu.Lock()
	c := watchedCall{op: op, epoch: n.epoch}
	n.mu.Unlock()
	for _, g := range n.guards {
		c.guards = append(c.guards, g.Current())
	}
	*n.calls = append(*n.calls, c)
}

func (n *watchedNode) Launch(spec LaunchSpec) (LaunchReport, error) {
	n.note("launch " + spec.Name)
	return n.fencedNode.Launch(spec)
}

func (n *watchedNode) Release(name string) error {
	n.note("release " + name)
	return n.fencedNode.Release(name)
}

// TestTakeOverFencesBeforeReconcile: while the manager is down, a rival
// identity fences the fleet at epoch 5, one journaled VM dies, and a stale
// copy of another appears on a second node. From either state source, the
// manager's own journal or a follower's replica, the new term must raise
// every guard before its first repair command, and every repair must carry
// an epoch above the rival's.
func TestTakeOverFencesBeforeReconcile(t *testing.T) {
	for _, source := range []string{"journal", "replica"} {
		t.Run(source, func(t *testing.T) {
			nodes, termNodes := newFencedCluster(t, 2)
			leader, err := NewManager(termNodes(), BestFit, 7)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			j, err := journal.Open(dir, journal.Options{SyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			leader.AttachJournal(j, 1<<30)
			leader.BecomeLeader()
			for _, name := range []string{"a", "b"} {
				if _, _, err := leader.Launch(durSpec(name, vm.LowPriority, 0.25)); err != nil {
					t.Fatal(err)
				}
			}
			api, err := NewManagerAPI(leader)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(api.Handler())
			f, err := NewFollower(FollowerConfig{Leader: srv.URL})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.PollOnce(); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			j.Close()

			// Behind the dead manager's back.
			var calls []watchedCall
			var guards []*EpochGuard
			for _, n := range termNodes() {
				guards = append(guards, n.(*fencedNode).guard)
			}
			for _, g := range guards {
				if err := g.Check(5, "rival"); err != nil {
					t.Fatal(err)
				}
			}
			idx := map[string]int{}
			for i, n := range nodes {
				idx[n.Name()] = i
			}
			placed := leader.Placements()
			if err := nodes[idx[placed["a"]]].LocalController.Release("a"); err != nil {
				t.Fatal(err)
			}
			stale := nodes[1-idx[placed["b"]]]
			if _, err := stale.LocalController.Launch(durSpec("b", vm.LowPriority, 0.25)); err != nil {
				t.Fatal(err)
			}

			cfg := DurabilityConfig{Dir: dir, LeaderID: "successor"}
			var replica *WALState
			if source == "replica" {
				cfg.Dir, replica = t.TempDir(), f.ReplicaState()
			}
			var watched []Node
			for _, n := range termNodes() {
				watched = append(watched, &watchedNode{fencedNode: n.(*fencedNode), guards: guards, calls: &calls})
			}
			m2, rep, err := TakeOver(cfg, replica, watched, BestFit, 7)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Journal().Close()
			// The new term's repairs change its own state, not the copy
			// the follower keeps serving.
			if replica != nil && reflect.DeepEqual(*f.ReplicaState(), *replica) {
				t.Error("the follower's replica moved with the promoted manager's state")
			}
			if m2.Epoch() != 6 {
				t.Errorf("new term at epoch %d, want 6", m2.Epoch())
			}
			if rep.Replaced != 1 || rep.StaleReleased != 1 {
				t.Fatalf("repairs %+v, want 1 replaced and 1 stale released", rep)
			}
			if len(calls) < 2 {
				t.Fatalf("reconciliation sent %d mutating commands, want the repair launch and the stale release", len(calls))
			}
			for _, c := range calls {
				if c.epoch <= 5 {
					t.Errorf("%s carried epoch %d, not above the rival's 5", c.op, c.epoch)
				}
				for i, e := range c.guards {
					if e != m2.Epoch() {
						t.Errorf("%s went out while guard %d read epoch %d, want the new term's %d", c.op, i, e, m2.Epoch())
					}
				}
			}
		})
	}
}

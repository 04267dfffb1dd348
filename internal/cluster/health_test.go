package cluster

import (
	"fmt"
	"testing"

	"deflation/internal/cascade"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// newCrashableCluster builds a manager over crash-stop-capable servers and
// returns both so tests can flip nodes down.
func newCrashableCluster(t *testing.T, n int, policy PlacementPolicy) (*Manager, []*crashableNode) {
	t.Helper()
	nodes := make([]*crashableNode, n)
	servers := make([]Node, n)
	for i := range servers {
		h, err := hypervisor.NewHost(hypervisor.Config{
			Name:     fmt.Sprintf("s%d", i),
			Capacity: restypes.V(16, 65536, 400, 400),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = newCrashableNode(NewLocalController(h, cascade.AllLevels(), ModeDeflation))
		servers[i] = nodes[i]
	}
	m, err := NewManager(servers, policy, 7)
	if err != nil {
		t.Fatal(err)
	}
	return m, nodes
}

// probeUntilDead runs heartbeat rounds up to the miss threshold and returns
// the events of the round that crossed it.
func probeUntilDead(t *testing.T, m *Manager) []Event {
	t.Helper()
	for i := 0; i < m.healthPolicy.MaxMisses-1; i++ {
		if evs := m.ProbeHealth(); len(evs) != 0 {
			t.Fatalf("round %d below threshold produced events: %v", i, evs)
		}
	}
	return m.ProbeHealth()
}

// crashVMs crashes n and returns the names of the VMs that died with it.
func crashVMs(t *testing.T, n *crashableNode) []string {
	t.Helper()
	var names []string
	for _, v := range n.VMs() {
		names = append(names, v.Name())
	}
	n.crash()
	if left := len(n.VMs()); left != 0 {
		t.Fatalf("crashed node %s still runs %d VMs", n.Name(), left)
	}
	return names
}

func TestHeartbeatDetectsCrashAndReplacesVMs(t *testing.T) {
	m, nodes := newCrashableCluster(t, 3, BestFit)
	for i := 0; i < 6; i++ {
		if _, _, err := m.Launch(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	// Find a server actually hosting VMs and crash it.
	victim := -1
	hosted := map[int]int{}
	for _, idx := range placedIndexes(m) {
		hosted[idx]++
	}
	for idx, n := range hosted {
		if n > 0 {
			victim = idx
			break
		}
	}
	if victim < 0 {
		t.Fatal("no server hosts a VM")
	}
	dead := crashVMs(t, nodes[victim])
	if len(dead) != hosted[victim] {
		t.Fatalf("crash killed %d VMs, server hosted %d", len(dead), hosted[victim])
	}

	events := probeUntilDead(t, m)
	var downs, evicted, replaced int
	for _, ev := range events {
		switch ev.Kind {
		case NodeDown:
			downs++
			if ev.Node != nodes[victim].Name() {
				t.Errorf("NodeDown for %s, want %s", ev.Node, nodes[victim].Name())
			}
		case VMEvicted:
			evicted++
		case VMReplaced:
			replaced++
		case VMLost:
			t.Errorf("VM lost with two healthy servers spare: %+v", ev)
		}
	}
	if downs != 1 || evicted != len(dead) || replaced != len(dead) {
		t.Fatalf("events: %d down, %d evicted, %d replaced; want 1/%d/%d (%v)",
			downs, evicted, replaced, len(dead), len(dead), events)
	}
	if m.DeadServers() != 1 {
		t.Errorf("DeadServers = %d, want 1", m.DeadServers())
	}
	if m.FailurePreemptions() != len(dead) {
		t.Errorf("FailurePreemptions = %d, want %d", m.FailurePreemptions(), len(dead))
	}
	// Every evicted VM landed on a healthy server and is still placed.
	for _, name := range dead {
		if !m.Placed(name) {
			t.Errorf("VM %s not re-placed", name)
		}
		if idx, _ := m.placedOn(name); idx == victim {
			t.Errorf("VM %s re-placed on the dead server", name)
		}
	}
	st := m.Snapshot()
	if st.DeadServers != 1 || st.FailurePreemptions != len(dead) || st.ReplacedVMs != len(dead) || st.LostVMs != 0 {
		t.Errorf("stats: %+v", st)
	}

	// New launches skip the dead server.
	idx, _, err := m.Launch(spec("post-crash", vm.LowPriority, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if idx == victim {
		t.Error("new VM placed on dead server")
	}
}

func TestMissesBelowThresholdThenRecoveryResets(t *testing.T) {
	m, nodes := newCrashableCluster(t, 2, BestFit)
	if _, _, err := m.Launch(spec("a", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	nodes[0].crash()
	nodes[1].crash()
	// Two misses — one short of the default threshold of three.
	for i := 0; i < 2; i++ {
		if evs := m.ProbeHealth(); len(evs) != 0 {
			t.Fatalf("premature events: %v", evs)
		}
	}
	nodes[0].recover()
	nodes[1].recover()
	// The blip healed: the miss counters reset and nothing was evacuated.
	if evs := m.ProbeHealth(); len(evs) != 0 {
		t.Fatalf("events after recovery: %v", evs)
	}
	if m.DeadServers() != 0 || m.FailurePreemptions() != 0 {
		t.Errorf("detector state after blip: %d dead, %d preemptions",
			m.DeadServers(), m.FailurePreemptions())
	}
}

func TestDeadNodeRejoinsEmpty(t *testing.T) {
	m, nodes := newCrashableCluster(t, 2, FirstFit)
	if _, _, err := m.Launch(spec("a", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	nodes[0].crash()
	probeUntilDead(t, m)
	if m.DeadServers() != 1 {
		t.Fatalf("DeadServers = %d after crash", m.DeadServers())
	}

	nodes[0].recover()
	evs := m.ProbeHealth()
	if len(evs) != 1 || evs[0].Kind != NodeUp || evs[0].Node != nodes[0].Name() {
		t.Fatalf("rejoin events: %v", evs)
	}
	if m.DeadServers() != 0 {
		t.Errorf("DeadServers = %d after rejoin", m.DeadServers())
	}
	// The rejoined node is empty and back in the placement pool: first-fit
	// puts the next VM on it.
	idx, _, err := m.Launch(spec("b", vm.LowPriority, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Errorf("post-rejoin placement on server %d, want 0", idx)
	}
}

func TestEvictedVMsLostWhenClusterFull(t *testing.T) {
	m, nodes := newCrashableCluster(t, 2, BestFit)
	// Fill both servers with undeflatable VMs (min = nominal).
	for i := 0; i < 8; i++ {
		if _, _, err := m.Launch(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	dead := crashVMs(t, nodes[0])
	if len(dead) == 0 {
		t.Fatal("crashed server hosted nothing")
	}
	events := probeUntilDead(t, m)
	var lost int
	for _, ev := range events {
		if ev.Kind == VMLost {
			lost++
		}
		if ev.Kind == VMReplaced {
			t.Errorf("VM replaced with no spare capacity: %+v", ev)
		}
	}
	if lost != len(dead) {
		t.Errorf("lost = %d, want %d", lost, len(dead))
	}
	st := m.Snapshot()
	if st.LostVMs != len(dead) || st.ReplacedVMs != 0 {
		t.Errorf("stats: %+v", st)
	}
	for _, name := range dead {
		if m.Placed(name) {
			t.Errorf("lost VM %s still placed", name)
		}
	}
	// Losing VMs to failures is not a user-facing admission rejection.
	if m.Rejected() != 0 {
		t.Errorf("Rejected = %d after failure losses, want 0", m.Rejected())
	}
}

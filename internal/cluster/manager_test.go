package cluster

import (
	"errors"
	"fmt"
	"testing"

	"deflation/internal/cascade"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

func newCluster(t *testing.T, n int, policy PlacementPolicy) *Manager {
	t.Helper()
	servers := make([]Node, n)
	for i := range servers {
		h, err := hypervisor.NewHost(hypervisor.Config{
			Name:     fmt.Sprintf("s%d", i),
			Capacity: restypes.V(16, 65536, 400, 400),
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = NewLocalController(h, cascade.AllLevels(), ModeDeflation)
	}
	m, err := NewManager(servers, policy, 7)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	// An empty fleet is legal: a federated shard starts with zero nodes and
	// grows through AddNode. It must refuse work, not panic.
	m, err := NewManager(nil, BestFit, 1)
	if err != nil {
		t.Fatalf("empty manager rejected: %v", err)
	}
	if _, _, err := m.Launch(spec("a", vm.LowPriority, 0.25)); err == nil {
		t.Error("empty manager accepted a launch")
	}
	if snap := m.Snapshot(); len(snap.ServerOvercommitment) != 0 {
		t.Errorf("empty manager snapshot servers = %d", len(snap.ServerOvercommitment))
	}
}

func TestLaunchAndRelease(t *testing.T) {
	m := newCluster(t, 3, BestFit)
	idx, _, err := m.Launch(spec("a", vm.LowPriority, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 || idx > 2 {
		t.Errorf("server index = %d", idx)
	}
	if !m.Placed("a") {
		t.Error("launched VM not placed")
	}
	if _, _, err := m.Launch(spec("a", vm.LowPriority, 0.25)); !errors.Is(err, ErrVMExists) {
		t.Errorf("duplicate err = %v", err)
	}
	if err := m.Release("a"); err != nil {
		t.Fatal(err)
	}
	if m.Placed("a") {
		t.Error("released VM still placed")
	}
	if err := m.Release("a"); !errors.Is(err, ErrVMNotFound) {
		t.Errorf("double release err = %v", err)
	}
}

func TestFirstFitPicksFirstFeasible(t *testing.T) {
	m := newCluster(t, 3, FirstFit)
	for i := 0; i < 3; i++ {
		idx, _, err := m.Launch(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 0))
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 {
			t.Errorf("first-fit placed on server %d, want 0 (still feasible)", idx)
		}
	}
}

func TestBestFitSpreadsByFitness(t *testing.T) {
	m := newCluster(t, 4, BestFit)
	placed := map[int]int{}
	for i := 0; i < 8; i++ {
		idx, _, err := m.Launch(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 0.25))
		if err != nil {
			t.Fatal(err)
		}
		placed[idx]++
	}
	if len(placed) == 0 {
		t.Fatal("nothing placed")
	}
	snap := m.Snapshot()
	if snap.VMs != 8 {
		t.Errorf("snapshot VMs = %d, want 8", snap.VMs)
	}
	if snap.MeanOvercommitment <= 0 || snap.MaxOvercommitment < snap.MeanOvercommitment {
		t.Errorf("snapshot overcommit: %+v", snap)
	}
	if len(snap.ServerOvercommitment) != 4 {
		t.Errorf("per-server stats = %d entries", len(snap.ServerOvercommitment))
	}
}

func TestTwoChoicesIsDeterministicPerSeed(t *testing.T) {
	run := func() []int {
		m := newCluster(t, 8, TwoChoices)
		var idxs []int
		for i := 0; i < 10; i++ {
			idx, _, err := m.Launch(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 0.25))
			if err != nil {
				t.Fatal(err)
			}
			idxs = append(idxs, idx)
		}
		return idxs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("2-choices differs across identical seeds: %v vs %v", a, b)
		}
	}
}

func TestRejectionWhenFull(t *testing.T) {
	m := newCluster(t, 1, BestFit)
	// Minimum size = nominal: nothing deflatable at all.
	for i := 0; i < 4; i++ {
		if _, _, err := m.Launch(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := m.Launch(spec("overflow", vm.LowPriority, 1.0))
	if !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
	if m.Rejected() != 1 {
		t.Errorf("rejected = %d, want 1", m.Rejected())
	}
}

func TestHighPriorityFallbackPreempts(t *testing.T) {
	m := newCluster(t, 2, BestFit)
	for i := 0; i < 8; i++ {
		if _, _, err := m.Launch(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	// Lows barely deflatable: high must preempt somewhere.
	_, rep, err := m.Launch(spec("hi", vm.HighPriority, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Preempted) == 0 {
		t.Error("no preemption on forced high-priority placement")
	}
	if m.Preemptions() != len(rep.Preempted) {
		t.Errorf("manager preemptions %d != %d", m.Preemptions(), len(rep.Preempted))
	}
	// Preempted VMs are no longer placed.
	for _, name := range rep.Preempted {
		if m.Placed(name) {
			t.Errorf("preempted VM %s still placed", name)
		}
	}
}

// TestRefusedLaunchDropsItsPreemptions: a node may preempt for a launch and
// then refuse the launch itself (here vm.NewOn rejects a minimum above the
// size). The preempted VMs are gone either way, so the manager drops them
// from its placement and emits a preempt event for each.
func TestRefusedLaunchDropsItsPreemptions(t *testing.T) {
	c := newServer(t, ModePreemptionOnly)
	m, err := NewManager([]Node{c}, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, _, err := m.Launch(spec(n, vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	var preempted []string
	m.sub = func(e Event) {
		if e.Kind == evPreempt {
			preempted = append(preempted, e.VM)
		}
	}
	hi := spec("hi", vm.HighPriority, 0)
	hi.MinSize = hi.Size.Scale(2)
	if _, _, err := m.Launch(hi); err == nil {
		t.Fatal("launch with a minimum above its size succeeded")
	}
	if m.Preemptions() == 0 {
		t.Fatal("the node preempted nothing; the scenario is vacuous")
	}
	for _, n := range []string{"a", "b", "c", "d"} {
		_, placed := m.fold.Placements[n]
		if has, _ := c.Has(n); placed != has {
			t.Errorf("%s: placed %v, on the node %v", n, placed, has)
		}
	}
	if len(preempted) != m.Preemptions() {
		t.Errorf("preempt events for %q, want one per the node's %d preemptions", preempted, m.Preemptions())
	}
}

// TestDownNodeCapacityUnknown: a crashed or isolated server reads unknown,
// with zero vectors and overcommitment but its mode, preemption history and
// substrate kept. Placement skips it even for a zero-size demand, which a
// zero vector would fit, and the manager still counts the preemptions it
// made before it went down. Healing makes it known again.
func TestDownNodeCapacityUnknown(t *testing.T) {
	for _, fault := range []string{"crash", "isolate"} {
		t.Run(fault, func(t *testing.T) {
			f := newCheckedFleet(t, 2, FirstFit, 1)
			down := f.crash[0]
			for _, n := range []string{"a", "b", "c", "d"} {
				if _, _, err := down.LaunchVM(spec(n, vm.LowPriority, 0.9)); err != nil {
					t.Fatal(err)
				}
			}
			if _, rep, err := down.LaunchVM(spec("hi", vm.HighPriority, 0)); err != nil || len(rep.Preempted) == 0 {
				t.Fatalf("setup: high-priority launch preempted %v, err %v", rep.Preempted, err)
			}
			up := capOf(down)
			if fault == "crash" {
				down.crash()
			} else {
				down.isolate()
			}
			sum, known := down.Capacity()
			want := CapacitySummary{Generation: sum.Generation, Mode: up.Mode, Preemptions: up.Preemptions, Substrate: up.Substrate}
			if known || sum != want || up.Preemptions == 0 {
				t.Fatalf("down: %+v (known %v), want %+v unknown", sum, known, want)
			}
			if got := f.m.Preemptions(); got != up.Preemptions {
				t.Errorf("manager preemptions %d, want the down node's %d", got, up.Preemptions)
			}
			// First-fit takes the earliest feasible server: server 1, never 0.
			for _, size := range []restypes.Vector{{}, restypes.V(1, 1024, 10, 10)} {
				demand := LaunchSpec{Size: size, Priority: vm.HighPriority}
				for _, kind := range []leafKind{leafFirstFit, leafPreempt} {
					if got := f.m.pidx.query(kind, demand); got != 1 {
						t.Errorf("%s query for %v chose server %d, want 1", leafKindNames[kind], size, got)
					}
				}
			}
			if idx, _, err := f.m.Launch(spec("x", vm.LowPriority, 0.5)); err != nil || idx != 1 {
				t.Errorf("launch landed on server %d (err %v), want 1", idx, err)
			}
			if fault == "crash" {
				down.recover()
			} else {
				down.heal()
			}
			if _, known := down.Capacity(); !known || f.m.pidx.query(leafFirstFit, LaunchSpec{}) != 0 {
				t.Error("a healed node is not a placement candidate again")
			}
		})
	}
}

func TestPlacementPolicyString(t *testing.T) {
	if BestFit.String() != "best-fit" || FirstFit.String() != "first-fit" || TwoChoices.String() != "2-choices" {
		t.Error("policy strings wrong")
	}
}

// placedIndexes maps each VM the fold places on a fleet server to that
// server's index.
func placedIndexes(m *Manager) map[string]int {
	out := make(map[string]int, len(m.fold.Placements))
	for name := range m.fold.Placements {
		if idx, ok := m.placedOn(name); ok {
			out[name] = idx
		}
	}
	return out
}

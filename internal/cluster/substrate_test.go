package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"deflation/internal/cascade"
	"deflation/internal/hypervisor"
	"deflation/internal/journal"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/substrate"
	"deflation/internal/vm"
)

// newMixedCrashableCluster builds nHyp hypervisor nodes followed by nCtr
// container nodes, all crashable.
func newMixedCrashableCluster(t *testing.T, nHyp, nCtr int) (*Manager, []*crashableNode) {
	t.Helper()
	n := nHyp + nCtr
	nodes := make([]*crashableNode, n)
	servers := make([]Node, n)
	for i := 0; i < n; i++ {
		var (
			sub substrate.Substrate
			err error
		)
		if i < nHyp {
			sub, err = hypervisor.NewHost(hypervisor.Config{
				Name:     fmt.Sprintf("hyp%d", i),
				Capacity: restypes.V(16, 65536, 400, 400),
			})
		} else {
			sub, err = simcg.NewHost(simcg.Config{
				Name:     fmt.Sprintf("cg%d", i-nHyp),
				Capacity: restypes.V(16, 65536, 400, 400),
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = newCrashableNode(NewLocalController(sub, cascade.AllLevels(), ModeDeflation))
		servers[i] = nodes[i]
	}
	m, err := NewManager(servers, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	return m, nodes
}

func TestLaunchStampsSubstrateAndFiltersPlacement(t *testing.T) {
	m, nodes := newMixedCrashableCluster(t, 1, 1)

	// A spec pinned to "container" must land on the container node even
	// though the hypervisor node has identical free capacity.
	pinned := durSpec("ctr-0", vm.LowPriority, 0.25)
	pinned.Substrate = string(substrate.KindContainer)
	idx, _, err := m.Launch(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if kind := capOf(m.Servers()[idx]).Substrate; kind != string(substrate.KindContainer) {
		t.Fatalf("container-pinned VM landed on a %q node", kind)
	}

	// An unpinned spec is stamped with the landing node's kind so the
	// journaled placement pin survives recovery.
	free := durSpec("free-0", vm.LowPriority, 0.25)
	idx, _, err = m.Launch(free)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.fold.Specs["free-0"].Substrate; got != capOf(m.Servers()[idx]).Substrate {
		t.Errorf("stamped substrate %q != landing node's %q", got, capOf(m.Servers()[idx]).Substrate)
	}
	if got := m.fold.Specs["ctr-0"].Substrate; got != string(substrate.KindContainer) {
		t.Errorf("pinned substrate %q lost at launch", got)
	}

	// Inventory reports each VM's backend.
	for _, n := range nodes {
		inv, err := n.Inventory()
		if err != nil {
			t.Fatal(err)
		}
		for _, vs := range inv {
			if want := capOf(n).Substrate; vs.Substrate != want {
				t.Errorf("VM %s reports substrate %q on a %q node", vs.Name, vs.Substrate, want)
			}
		}
	}

	// Substrate kinds surface in the manager's operator view.
	subs := m.Substrates()
	if subs["hyp0"] != "hypervisor" || subs["cg0"] != "container" {
		t.Errorf("Substrates() = %v", subs)
	}
}

func TestMixedClusterRejectsUnplaceableSubstrate(t *testing.T) {
	m, _ := newMixedCrashableCluster(t, 1, 0)
	pinned := durSpec("ctr-0", vm.LowPriority, 0.25)
	pinned.Substrate = string(substrate.KindContainer)
	if _, _, err := m.Launch(pinned); err == nil {
		t.Fatal("container-pinned launch admitted on an all-hypervisor fleet")
	}
}

// newDurableMixedCluster is newDurableCluster over a mixed fleet.
func newDurableMixedCluster(t *testing.T, dir string, nHyp, nCtr int) (*Manager, []*crashableNode) {
	t.Helper()
	m, nodes := newMixedCrashableCluster(t, nHyp, nCtr)
	j, err := journal.Open(dir, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachJournal(j, 1<<30)
	return m, nodes
}

// TestRecoverRestoresContainerBackedVMs is the crash-point property for the
// container substrate: a SIGKILLed manager recovering over a mixed fleet
// must restore every VM's substrate kind from the journal, and a container
// node's death must re-place its VMs only onto container nodes.
func TestRecoverRestoresContainerBackedVMs(t *testing.T) {
	dir := t.TempDir()
	m, nodes := newDurableMixedCluster(t, dir, 2, 2)
	for i := 0; i < 8; i++ {
		s := durSpec(fmt.Sprintf("vm-%d", i), vm.LowPriority, 0.25)
		// Half the fleet explicitly container-backed so both substrates
		// carry VMs regardless of how the policy packs the rest.
		if i%2 == 0 {
			s.Substrate = string(substrate.KindContainer)
		}
		if _, _, err := m.Launch(s); err != nil {
			t.Fatal(err)
		}
	}
	want := m.Placements()
	wantSub := make(map[string]string)
	for name := range want {
		wantSub[name] = m.fold.Specs[name].Substrate
		if wantSub[name] == "" {
			t.Fatalf("launch left %s without a substrate stamp", name)
		}
	}
	m.Journal().Close()

	servers := make([]Node, len(nodes))
	for i, n := range nodes {
		servers[i] = n
	}
	m2, rep, err := TakeOver(DurabilityConfig{Dir: dir}, nil, servers, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Journal().Close()
	if rep.Replaced != 0 || rep.Lost != 0 {
		t.Fatalf("clean mixed recovery repaired something: %+v", rep)
	}
	if got := m2.Placements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered placements = %v, want %v", got, want)
	}
	for name, sub := range wantSub {
		if got := m2.fold.Specs[name].Substrate; got != sub {
			t.Errorf("VM %s recovered with substrate %q, want %q", name, got, sub)
		}
	}

	// Crash a container node: its VMs carry a "container" pin, so every
	// re-placement must land on the surviving container node.
	var ctrIdx int
	for i, n := range nodes {
		if capOf(n).Substrate == string(substrate.KindContainer) {
			ctrIdx = i
			break
		}
	}
	var victims []string
	for name, node := range m2.Placements() {
		if node == nodes[ctrIdx].Name() {
			victims = append(victims, name)
		}
	}
	if len(victims) == 0 {
		t.Fatal("no VM landed on the first container node")
	}
	nodes[ctrIdx].crash()
	probeUntilDead(t, m2)
	for _, name := range victims {
		node, ok := m2.Placements()[name]
		if !ok {
			continue // lost for capacity reasons, not substrate ones
		}
		for i, n := range nodes {
			if n.Name() == node && capOf(nodes[i]).Substrate != string(substrate.KindContainer) {
				t.Errorf("container VM %s re-placed onto %q node %s", name, capOf(nodes[i]).Substrate, node)
			}
		}
	}
}

// TestRecoverMidMigrationContainer: the in-flight-resolution property holds
// on the container substrate too — a manager SIGKILLed between a container
// checkpoint landing on the destination and the journal recording the move
// adopts the copy and releases the stale source.
func TestRecoverMidMigrationContainer(t *testing.T) {
	dir := t.TempDir()
	m, nodes := newDurableMixedCluster(t, dir, 0, 2)
	if _, _, err := m.Launch(durSpec("a", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	srcIdx := 0
	if m.Placements()["a"] == nodes[1].Name() {
		srcIdx = 1
	}
	dstIdx := 1 - srcIdx

	m.emit(Event{Kind: evMigrateStart, VM: "a", Node: nodes[dstIdx].Name(), From: nodes[srcIdx].Name()})
	cp, err := nodes[srcIdx].Checkpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if cp.VM.Domain.Kind != substrate.KindContainer || cp.VM.Domain.Container == nil {
		t.Fatalf("container checkpoint kind/state = %q/%v", cp.VM.Domain.Kind, cp.VM.Domain.Container)
	}
	if err := nodes[dstIdx].RestoreVM(cp); err != nil {
		t.Fatal(err)
	}
	m.Journal().Close()

	m2, rep, err := TakeOver(DurabilityConfig{Dir: dir}, nil, []Node{nodes[0], nodes[1]}, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Journal().Close()
	if rep.MigrationsResolved != 1 {
		t.Fatalf("report: %+v, want the in-flight container move resolved", rep)
	}
	if m2.Placements()["a"] != nodes[dstIdx].Name() {
		t.Errorf("placement %q, want destination", m2.Placements()["a"])
	}
	if has, _ := nodes[srcIdx].Has("a"); has {
		t.Error("stale source container not released")
	}
	// The restored instance is still container-backed.
	v, ok := nodes[dstIdx].LocalController.vms.Get("a")
	if !ok {
		t.Fatal("restored VM a not on the destination")
	}
	if v.Substrate() != substrate.KindContainer {
		t.Errorf("restored instance kind = %q", v.Substrate())
	}
}

// TestMigrationTargetsRespectSubstrate asks for a migration target for a
// container VM and verifies it is the other container node, never one of
// the (emptier) hypervisor nodes.
func TestMigrationTargetsRespectSubstrate(t *testing.T) {
	m, _ := newMixedCrashableCluster(t, 2, 2)
	pinned := durSpec("c0", vm.LowPriority, 0.25)
	pinned.Substrate = string(substrate.KindContainer)
	src, _, err := m.Launch(pinned)
	if err != nil {
		t.Fatal(err)
	}
	footprint, kind := m.vmFootprint(src, "c0")
	dst := m.bestMigrationTarget(footprint, kind, src)
	if dst < 0 || dst == src {
		t.Fatalf("migration target %d for c0 on %d", dst, src)
	}
	if got := capOf(m.Servers()[dst]).Substrate; got != string(substrate.KindContainer) {
		t.Errorf("container VM c0 targeted at %q node %s", got, m.Servers()[dst].Name())
	}
}

package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"deflation/internal/faults"
	"deflation/internal/journal"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// durSpec is a fully-serializable launch spec (AppKind, no closure), as a
// durable deployment would use: replayed and re-placed specs must relaunch
// from the registry.
func durSpec(name string, prio vm.Priority, minFrac float64) LaunchSpec {
	size := restypes.V(4, 16384, 100, 100)
	kind := "elastic"
	if prio == vm.HighPriority {
		kind = "inelastic"
	}
	return LaunchSpec{
		Name: name, Size: size, MinSize: size.Scale(minFrac), Priority: prio,
		AppKind: kind, Warm: true,
	}
}

// newDurableCluster builds a crashable cluster whose manager journals every
// transition into dir. snapshotEvery <= 0 disables compaction so tests can
// slice the raw log.
func newDurableCluster(t *testing.T, dir string, n int, snapshotEvery int) (*Manager, []*crashableNode) {
	t.Helper()
	m, nodes := newCrashableCluster(t, n, BestFit)
	j, err := journal.Open(dir, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if snapshotEvery <= 0 {
		snapshotEvery = 1 << 30
	}
	m.AttachJournal(j, snapshotEvery)
	return m, nodes
}

// scriptedRun drives a manager through every journaled transition kind:
// launches, a release, a rejection, a node crash with eviction and
// re-placement, and an empty rejoin.
func scriptedRun(t *testing.T, m *Manager, nodes []*crashableNode) {
	t.Helper()
	for i := 0; i < 6; i++ {
		if _, _, err := m.Launch(durSpec(fmt.Sprintf("vm-%d", i), vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.Launch(durSpec("hp-0", vm.HighPriority, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.Release("vm-5"); err != nil {
		t.Fatal(err)
	}
	// A completed and a failed live migration, exercising all three
	// migration event kinds.
	migrateOff := func(name string) string {
		src := m.Placements()[name]
		for _, s := range m.Servers() {
			if s.Name() != src {
				return s.Name()
			}
		}
		t.Fatalf("no migration target for %s", name)
		return ""
	}
	if _, err := m.Migrate("vm-0", migrateOff("vm-0")); err != nil {
		t.Fatal(err)
	}
	m.SetMigrationFaults(faults.New(faults.Config{MigrationFailProb: 1, Seed: 5}))
	if _, err := m.Migrate("vm-1", migrateOff("vm-1")); err == nil {
		t.Fatal("fault-injected migration unexpectedly succeeded")
	}
	m.SetMigrationFaults(nil)
	// A rejection: far larger than any server.
	huge := durSpec("huge", vm.LowPriority, 1.0)
	huge.Size = restypes.V(1024, 1<<30, 1, 1)
	huge.MinSize = huge.Size
	if _, _, err := m.Launch(huge); err == nil {
		t.Fatal("huge launch unexpectedly admitted")
	}
	nodes[0].crash()
	probeUntilDead(t, m)
	nodes[0].recover()
	m.ProbeHealth() // rejoin (empty after crash-stop)
}

func TestRecoverRestoresPlacementsWithoutEvictions(t *testing.T) {
	dir := t.TempDir()
	m, nodes := newDurableCluster(t, dir, 3, 0)
	scriptedRun(t, m, nodes)
	want := m.Placements()
	wantStats := m.Snapshot()
	preempts := make([]int, len(nodes))
	vmCounts := make([]int, len(nodes))
	for i, n := range nodes {
		preempts[i] = capOf(n).Preemptions
		vmCounts[i] = len(n.VMs())
	}
	if err := m.Journal().Close(); err != nil {
		t.Fatal(err)
	}

	// SIGKILL-equivalent: the manager object is dropped with no farewell
	// write; TakeOver rebuilds from the same dir against the same (still
	// running) nodes.
	servers := make([]Node, len(nodes))
	for i, n := range nodes {
		servers[i] = n
	}
	m2, rep, err := TakeOver(DurabilityConfig{Dir: dir}, nil, servers, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Journal().Close()
	if got := m2.Placements(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered placements = %v, want %v", got, want)
	}
	// Healthy VMs must survive recovery untouched: no repairs, no new
	// preemptions, node inventories unchanged.
	if rep.Adopted != 0 || rep.Replaced != 0 || rep.Lost != 0 || rep.Reasserted != 0 || rep.StaleReleased != 0 {
		t.Errorf("clean recovery repaired something: %+v", rep)
	}
	for i, n := range nodes {
		if capOf(n).Preemptions != preempts[i] {
			t.Errorf("node %d preemptions %d != %d after recovery", i, capOf(n).Preemptions, preempts[i])
		}
		if len(n.VMs()) != vmCounts[i] {
			t.Errorf("node %d runs %d VMs != %d after recovery", i, len(n.VMs()), vmCounts[i])
		}
	}
	// Counters carry over.
	got := m2.Snapshot()
	if got.FailurePreemptions != wantStats.FailurePreemptions ||
		got.ReplacedVMs != wantStats.ReplacedVMs || got.LostVMs != wantStats.LostVMs {
		t.Errorf("recovered stats %+v, want %+v", got, wantStats)
	}
	if m2.Rejected() != 1 {
		t.Errorf("Rejected = %d after recovery, want 1", m2.Rejected())
	}
	if rep.Placements != len(want) {
		t.Errorf("report placements = %d, want %d", rep.Placements, len(want))
	}

	// The recovered manager keeps journaling: a new launch survives another
	// recovery.
	if _, _, err := m2.Launch(durSpec("post-recovery", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	m2.Journal().Close()
	m3, _, err := TakeOver(DurabilityConfig{Dir: dir}, nil, servers, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Journal().Close()
	if _, ok := m3.Placements()["post-recovery"]; !ok {
		t.Error("post-recovery launch lost by second recovery")
	}
}

// TestReplayCrashPointInsensitive is the satellite property test: replaying
// any prefix of the journal truncated at a record boundary (and with a torn
// final record) yields a consistent state, and double-replay equals
// single-replay at every crash point.
func TestReplayCrashPointInsensitive(t *testing.T) {
	dir := t.TempDir()
	m, nodes := newDurableCluster(t, dir, 3, 0)
	scriptedRun(t, m, nodes)
	requireFoldReplays(t, "scripted run", m)
	if err := m.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Split keeping each record's terminating newline so every prefix is a
	// well-formed log ending at a record boundary.
	lines := strings.SplitAfter(string(raw), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) < 10 {
		t.Fatalf("scripted run journaled only %d records", len(lines))
	}

	replay := func(t *testing.T, dir string) (*WALState, *journal.Journal) {
		t.Helper()
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := NewWALState()
		for _, rec := range j.Tail() {
			if err := st.Apply(rec); err != nil {
				t.Fatal(err)
			}
		}
		return st, j
	}

	for k := 0; k <= len(lines); k++ {
		pdir := t.TempDir()
		prefix := strings.Join(lines[:k], "")
		if err := os.WriteFile(filepath.Join(pdir, "journal.log"), []byte(prefix), 0o644); err != nil {
			t.Fatal(err)
		}
		once, j := replay(t, pdir)
		// Idempotency: replaying the same records again must change nothing,
		// counters included.
		twice := *once
		twice.Placements = copyMap(once.Placements)
		twice.Specs = copySpecs(once.Specs)
		twice.Dead = copyMap2(once.Dead)
		twice.Migrating = copyIntents(once.Migrating)
		for _, rec := range j.Tail() {
			if err := twice.Apply(rec); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		if !reflect.DeepEqual(*once, twice) {
			t.Fatalf("prefix %d: double-replay diverged:\n%+v\n%+v", k, *once, twice)
		}
		if k > 0 && once.AppliedSeq == 0 {
			t.Fatalf("prefix %d: nothing applied", k)
		}
		// Consistency: every placement has a spec and vice versa.
		for name := range once.Placements {
			if _, ok := once.Specs[name]; !ok {
				t.Fatalf("prefix %d: placement %q has no spec", k, name)
			}
		}
		for name := range once.Specs {
			if _, ok := once.Placements[name]; !ok {
				t.Fatalf("prefix %d: spec %q has no placement", k, name)
			}
		}

		// Torn crash point: the next record half-written. Replay must land on
		// exactly the k-record state.
		if k < len(lines) {
			tdir := t.TempDir()
			torn := prefix + lines[k][:len(lines[k])/2]
			if err := os.WriteFile(filepath.Join(tdir, "journal.log"), []byte(torn), 0o644); err != nil {
				t.Fatal(err)
			}
			tornState, tj := replay(t, tdir)
			tj.Close()
			if !reflect.DeepEqual(*once, *tornState) {
				t.Fatalf("prefix %d + torn record diverged from clean prefix:\n%+v\n%+v", k, *once, *tornState)
			}
		}
	}
}

// replayable is st as a replay of its journal would rebuild it: specs
// without their in-process app factory, and no journal position.
func replayable(st *WALState) WALState {
	c := *st
	c.AppliedSeq = 0
	c.Specs = make(map[string]LaunchSpec, len(st.Specs))
	for name, spec := range st.Specs {
		spec.NewApp = nil
		c.Specs[name] = spec
	}
	return c
}

// foldDiff describes, field by field, where the replayed fold differs from
// the live one; nil when they are equal.
func foldDiff(replayed, live *WALState) []string {
	var diff []string
	got, want := reflect.ValueOf(replayable(replayed)), reflect.ValueOf(replayable(live))
	for i := range got.NumField() {
		if g, w := got.Field(i).Interface(), want.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			diff = append(diff, fmt.Sprintf("replayed %s %+v, live %+v", got.Type().Field(i).Name, g, w))
		}
	}
	return diff
}

// requireSameFold fails t where the replayed fold differs from the live one.
func requireSameFold(t *testing.T, what string, replayed, live *WALState) {
	t.Helper()
	for _, d := range foldDiff(replayed, live) {
		t.Errorf("%s: %s", what, d)
	}
}

// requireFoldReplays replays m's journal from its start and requires the
// result to equal m's live fold.
func requireFoldReplays(t *testing.T, what string, m *Manager) {
	t.Helper()
	b, err := m.Journal().RecordsAfter(0)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	st, err := replay(NewWALState(), b)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	requireSameFold(t, what, st, m.fold)
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copySpecs(m map[string]LaunchSpec) map[string]LaunchSpec {
	out := make(map[string]LaunchSpec, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyMap2(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyIntents(m map[string]MigrationIntent) map[string]MigrationIntent {
	out := make(map[string]MigrationIntent, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestRecoverMidMigration SIGKILLs the manager at the two decisive points of
// a live migration. The journal records the intent (evMigrateStart) before
// anything moves and the placement change (evMigrateDone) only after the
// destination holds the copy, so recovery resolves the in-flight entry by
// asking the destination: copy absent → roll back to the source; copy
// present → adopt the move and release the stale source copy. Either way
// the VM is neither lost nor double-placed.
func TestRecoverMidMigration(t *testing.T) {
	setup := func(t *testing.T, dir string) (m *Manager, nodes []*crashableNode, srcIdx, dstIdx int) {
		m, nodes = newDurableCluster(t, dir, 2, 0)
		if _, _, err := m.Launch(durSpec("a", vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
		srcIdx = 0
		if m.Placements()["a"] == nodes[1].Name() {
			srcIdx = 1
		}
		return m, nodes, srcIdx, 1 - srcIdx
	}
	recover2 := func(t *testing.T, dir string, nodes []*crashableNode) (*Manager, *RecoveryReport) {
		t.Helper()
		m2, rep, err := TakeOver(DurabilityConfig{Dir: dir}, nil, []Node{nodes[0], nodes[1]}, BestFit, 7)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m2.Journal().Close() })
		return m2, rep
	}

	t.Run("before switchover rolls back", func(t *testing.T) {
		dir := t.TempDir()
		m, nodes, srcIdx, dstIdx := setup(t, dir)
		// The intent journals, then the manager dies before any state moves.
		m.emit(Event{Kind: evMigrateStart, VM: "a", Node: nodes[dstIdx].Name(), From: nodes[srcIdx].Name()})
		m.Journal().Close()

		m2, rep := recover2(t, dir, nodes)
		if rep.MigrationsRolledBack != 1 || rep.MigrationsResolved != 0 {
			t.Fatalf("report: %+v, want 1 rolled back / 0 resolved", rep)
		}
		if m2.Placements()["a"] != nodes[srcIdx].Name() {
			t.Errorf("placement %q, want source %q", m2.Placements()["a"], nodes[srcIdx].Name())
		}
		if has, _ := nodes[srcIdx].Has("a"); !has {
			t.Error("VM lost from source")
		}
		if has, _ := nodes[dstIdx].Has("a"); has {
			t.Error("VM double-placed on destination")
		}
		if st := m2.MigrationStats(); st.Migrations != 0 || st.Failures != 1 {
			t.Errorf("stats: %+v", st)
		}
	})

	t.Run("after destination restore adopts the move", func(t *testing.T) {
		dir := t.TempDir()
		m, nodes, srcIdx, dstIdx := setup(t, dir)
		// The copy landed on the destination, but the manager died before
		// journaling evMigrateDone (and before releasing the source).
		m.emit(Event{Kind: evMigrateStart, VM: "a", Node: nodes[dstIdx].Name(), From: nodes[srcIdx].Name()})
		cp, err := nodes[srcIdx].Checkpoint("a")
		if err != nil {
			t.Fatal(err)
		}
		if err := nodes[dstIdx].RestoreVM(cp); err != nil {
			t.Fatal(err)
		}
		m.Journal().Close()

		m2, rep := recover2(t, dir, nodes)
		if rep.MigrationsResolved != 1 || rep.MigrationsRolledBack != 0 {
			t.Fatalf("report: %+v, want 1 resolved / 0 rolled back", rep)
		}
		if m2.Placements()["a"] != nodes[dstIdx].Name() {
			t.Errorf("placement %q, want destination %q", m2.Placements()["a"], nodes[dstIdx].Name())
		}
		if has, _ := nodes[dstIdx].Has("a"); !has {
			t.Error("VM lost from destination")
		}
		if has, _ := nodes[srcIdx].Has("a"); has {
			t.Error("stale source copy not released — VM double-placed")
		}
		if rep.StaleReleased != 1 {
			t.Errorf("StaleReleased = %d, want 1", rep.StaleReleased)
		}
		if st := m2.MigrationStats(); st.Migrations != 1 || st.Failures != 0 {
			t.Errorf("stats: %+v", st)
		}
	})
}

func TestRecoverReconciliationRepairs(t *testing.T) {
	dir := t.TempDir()
	m, nodes := newDurableCluster(t, dir, 3, 0)
	placedOn := make(map[string]int)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("vm-%d", i)
		idx, _, err := m.Launch(durSpec(name, vm.LowPriority, 0.25))
		if err != nil {
			t.Fatal(err)
		}
		placedOn[name] = idx
	}
	m.Journal().Close()

	// Divergence injected behind the dead manager's back:
	// 1. vm-0's node lost it (journal-has / node-lost → re-place).
	if err := nodes[placedOn["vm-0"]].LocalController.Release("vm-0"); err != nil {
		t.Fatal(err)
	}
	// 2. A VM the journal never saw (node-has / journal-missing → adopt).
	if _, err := nodes[2].LocalController.Launch(durSpec("orphan", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	// 3. vm-1 was resized out-of-band: the node's ground truth wins
	//    (conflict → re-assert).
	n1 := nodes[placedOn["vm-1"]]
	if err := n1.LocalController.Release("vm-1"); err != nil {
		t.Fatal(err)
	}
	resized := durSpec("vm-1", vm.LowPriority, 0.25)
	resized.Size = restypes.V(2, 8192, 50, 50)
	resized.MinSize = resized.Size.Scale(0.25)
	if _, err := n1.LocalController.Launch(resized); err != nil {
		t.Fatal(err)
	}
	// 4. A stale copy of vm-2 on a node the journal does not place it on.
	staleHost := (placedOn["vm-2"] + 1) % 3
	if _, err := nodes[staleHost].LocalController.Launch(durSpec("vm-2", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}

	servers := make([]Node, len(nodes))
	for i, n := range nodes {
		servers[i] = n
	}
	m2, rep, err := TakeOver(DurabilityConfig{Dir: dir}, nil, servers, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Journal().Close()

	if rep.Replaced != 1 || rep.Adopted != 1 || rep.Reasserted != 1 || rep.StaleReleased != 1 || rep.Lost != 0 {
		t.Fatalf("repairs = %+v, want 1 replaced / 1 adopted / 1 reasserted / 1 stale / 0 lost", rep)
	}
	pl := m2.Placements()
	if _, ok := pl["vm-0"]; !ok {
		t.Error("lost vm-0 not re-placed")
	}
	if has, _ := nodes[placedOn["vm-0"]].Has("vm-0"); !has {
		// Re-placement may land anywhere; wherever it is, it must be real.
		if node, ok := pl["vm-0"]; ok {
			found := false
			for _, n := range nodes {
				if n.Name() == node {
					found, _ = n.Has("vm-0")
				}
			}
			if !found {
				t.Errorf("vm-0 placement %q does not actually run it", node)
			}
		}
	}
	if node, ok := pl["orphan"]; !ok || node != nodes[2].Name() {
		t.Errorf("orphan not adopted in place: %v", pl)
	}
	if sz := m2.fold.Specs["vm-1"].Size; sz != resized.Size {
		t.Errorf("vm-1 spec not re-asserted from ground truth: %v", sz)
	}
	if has, _ := nodes[staleHost].Has("vm-2"); has {
		t.Error("stale vm-2 copy still running on the wrong node")
	}
	if node := pl["vm-2"]; node != servers[placedOn["vm-2"]].Name() {
		t.Errorf("vm-2 moved by stale-release: on %s", node)
	}
	st := m2.Snapshot()
	if st.AdoptedVMs != 1 || st.StaleReleases != 1 {
		t.Errorf("stats: adopted=%d stale=%d", st.AdoptedVMs, st.StaleReleases)
	}
}

// TestReassertSurvivesTakeover re-asserts a VM's size from its node's
// ground truth in one takeover, then takes over again from that term's
// journal with the node unreachable: the second term cannot ask the node,
// so the size it sees is the one the first term journaled.
func TestReassertSurvivesTakeover(t *testing.T) {
	dir := t.TempDir()
	m, nodes := newDurableCluster(t, dir, 2, 0)
	idx, _, err := m.Launch(durSpec("vm-0", vm.LowPriority, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	m.Journal().Close()
	resized := durSpec("vm-0", vm.LowPriority, 0.25)
	resized.Size = restypes.V(2, 8192, 50, 50)
	resized.MinSize = resized.Size.Scale(0.25)
	if err := nodes[idx].LocalController.Release("vm-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[idx].LocalController.Launch(resized); err != nil {
		t.Fatal(err)
	}
	servers := []Node{nodes[0], nodes[1]}
	m2, rep, err := TakeOver(DurabilityConfig{Dir: dir}, nil, servers, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reasserted != 1 {
		t.Fatalf("first takeover reasserted %d specs, want 1", rep.Reasserted)
	}
	m2.Journal().Close()

	nodes[idx].isolate()
	m3, rep, err := TakeOver(DurabilityConfig{Dir: dir}, nil, servers, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Journal().Close()
	if rep.Reasserted != 0 {
		t.Errorf("second takeover reasserted %d specs from an unreachable node", rep.Reasserted)
	}
	if got := m3.fold.Specs["vm-0"]; got.Size != resized.Size || got.MinSize != resized.MinSize {
		t.Errorf("second takeover sees size %v min %v, want the node's %v min %v",
			got.Size, got.MinSize, resized.Size, resized.MinSize)
	}
}

func TestRecoverEmptyDirIsFirstBoot(t *testing.T) {
	dir := t.TempDir()
	_, nodes := newCrashableCluster(t, 2, BestFit)
	// One VM already runs on a node (an agent that started first).
	if _, err := nodes[1].LocalController.Launch(durSpec("pre-existing", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	servers := []Node{nodes[0], nodes[1]}
	m, rep, err := TakeOver(DurabilityConfig{Dir: dir}, nil, servers, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Journal().Close()
	if rep.RecordsReplayed != 0 || rep.SnapshotSeq != 0 {
		t.Errorf("first boot replayed state: %+v", rep)
	}
	if rep.Adopted != 1 {
		t.Errorf("first boot adopted %d VMs, want 1", rep.Adopted)
	}
	if node := m.Placements()["pre-existing"]; node != nodes[1].Name() {
		t.Errorf("pre-existing VM adopted on %q", node)
	}
}

func TestRecoverAfterThousandEventsUnderOneSecond(t *testing.T) {
	dir := t.TempDir()
	m, nodes := newDurableCluster(t, dir, 3, 0)
	// 1k+ journal records: churn launches and releases, keeping a stable
	// core of survivors.
	for i := 0; i < 8; i++ {
		if _, _, err := m.Launch(durSpec(fmt.Sprintf("core-%d", i), vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("churn-%d", i)
		if _, _, err := m.Launch(durSpec(name, vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
		if err := m.Release(name); err != nil {
			t.Fatal(err)
		}
	}
	if seq := m.Journal().Seq(); seq < 1000 {
		t.Fatalf("journal holds %d records, want >= 1000", seq)
	}
	want := m.Placements()
	m.Journal().Close()

	servers := make([]Node, len(nodes))
	for i, n := range nodes {
		servers[i] = n
	}
	start := time.Now()
	m2, rep, err := TakeOver(DurabilityConfig{Dir: dir}, nil, servers, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Journal().Close()
	elapsed := time.Since(start)
	if rep.RecordsReplayed < 1000 {
		t.Errorf("replayed %d records, want >= 1000", rep.RecordsReplayed)
	}
	if elapsed >= time.Second {
		t.Errorf("recovery of a 1k-event journal took %v, want < 1s", elapsed)
	}
	if !reflect.DeepEqual(m2.Placements(), want) {
		t.Errorf("placements diverged after 1k-event recovery")
	}
}

// TestRejoinWithVMsReconciles covers the satellite fix: a partitioned node
// whose VMs kept running rejoins and is reconciled — stale copies of
// re-placed VMs are released, and VMs the manager wrote off are re-adopted —
// instead of being treated as fresh empty capacity.
func TestRejoinWithVMsReconciles(t *testing.T) {
	m, nodes := newCrashableCluster(t, 3, BestFit)
	for i := 0; i < 6; i++ {
		if _, _, err := m.Launch(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	victim := -1
	for _, idx := range placedIndexes(m) {
		victim = idx
		break
	}
	var victimVMs []string
	for name, idx := range placedIndexes(m) {
		if idx == victim {
			victimVMs = append(victimVMs, name)
		}
	}
	if len(victimVMs) == 0 {
		t.Fatal("victim hosts nothing")
	}

	// Partition (not crash): VMs keep running on the isolated node. The
	// manager declares it dead and re-places its VMs elsewhere.
	nodes[victim].isolate()
	probeUntilDead(t, m)
	for _, name := range victimVMs {
		if idx, ok := m.placedOn(name); !ok || idx == victim {
			t.Fatalf("VM %s not re-placed off the partitioned node", name)
		}
	}

	// Heal: the node rejoins still holding the old copies; every one is now
	// stale (placed elsewhere) and must be released, not double-run.
	nodes[victim].heal()
	events := m.ProbeHealth()
	var ups, stale, adopted int
	for _, ev := range events {
		switch ev.Kind {
		case NodeUp:
			ups++
		case VMStaleReleased:
			stale++
			if ev.Node != nodes[victim].Name() {
				t.Errorf("stale release on %s, want %s", ev.Node, nodes[victim].Name())
			}
		case VMAdopted:
			adopted++
		}
	}
	if ups != 1 || stale != len(victimVMs) || adopted != 0 {
		t.Fatalf("rejoin events: %d up / %d stale / %d adopted, want 1/%d/0 (%v)",
			ups, stale, adopted, len(victimVMs), events)
	}
	if n := len(nodes[victim].VMs()); n != 0 {
		t.Errorf("partitioned node still runs %d stale VMs after reconciliation", n)
	}
	if st := m.Snapshot(); st.StaleReleases != len(victimVMs) {
		t.Errorf("StaleReleases = %d, want %d", st.StaleReleases, len(victimVMs))
	}
}

func TestRejoinAdoptsUnplaceableVMs(t *testing.T) {
	m, nodes := newCrashableCluster(t, 2, BestFit)
	// Fill both servers with undeflatable VMs so evicted VMs cannot be
	// re-placed anywhere.
	for i := 0; i < 8; i++ {
		if _, _, err := m.Launch(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	var victimVMs []string
	for name, idx := range placedIndexes(m) {
		if idx == 0 {
			victimVMs = append(victimVMs, name)
		}
	}
	if len(victimVMs) == 0 {
		t.Fatal("server 0 hosts nothing")
	}
	nodes[0].isolate()
	events := probeUntilDead(t, m)
	var lost int
	for _, ev := range events {
		if ev.Kind == VMLost {
			lost++
		}
	}
	if lost != len(victimVMs) {
		t.Fatalf("lost %d VMs, want %d", lost, len(victimVMs))
	}

	// The node rejoins with its VMs intact: they were written off as lost,
	// so reconciliation re-adopts every one.
	nodes[0].heal()
	var adopted int
	for _, ev := range m.ProbeHealth() {
		if ev.Kind == VMAdopted {
			adopted++
		}
	}
	if adopted != len(victimVMs) {
		t.Fatalf("adopted %d VMs on rejoin, want %d", adopted, len(victimVMs))
	}
	for _, name := range victimVMs {
		if idx, ok := m.placedOn(name); !ok || idx != 0 {
			t.Errorf("VM %s not re-adopted onto server 0", name)
		}
	}
	if st := m.Snapshot(); st.AdoptedVMs != len(victimVMs) {
		t.Errorf("AdoptedVMs = %d, want %d", st.AdoptedVMs, len(victimVMs))
	}
}

func TestSnapshotCompactionPreservesRecovery(t *testing.T) {
	dir := t.TempDir()
	// Snapshot every 4 records: the scripted run compacts several times, so
	// recovery exercises snapshot + tail replay rather than pure log replay.
	m, nodes := newDurableCluster(t, dir, 3, 4)
	scriptedRun(t, m, nodes)
	want := m.Placements()
	m.Journal().Close()

	servers := make([]Node, len(nodes))
	for i, n := range nodes {
		servers[i] = n
	}
	m2, rep, err := TakeOver(DurabilityConfig{Dir: dir, SnapshotEvery: 4}, nil, servers, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Journal().Close()
	if rep.SnapshotSeq == 0 {
		t.Error("no snapshot was compacted at SnapshotEvery=4")
	}
	if !reflect.DeepEqual(m2.Placements(), want) {
		t.Errorf("placements after snapshot+tail recovery = %v, want %v", m2.Placements(), want)
	}
}

// recordHook calls after each time the wrapped recorder has taken an event.
type recordHook struct {
	Recorder
	after func()
}

func (r recordHook) Record(e Event) {
	r.Recorder.Record(e)
	r.after()
}

// TestReplayReadersAgree pins the compaction boundary. A seeded run
// compacts a snapshot every 3 records, and after every record the three
// journal readers must rebuild the same state: a takeover replaying the
// reopened journal (snapshot + tail), a standby's first poll
// (RecordsAfter(0)), and a follower that polls after every append.
func TestReplayReadersAgree(t *testing.T) {
	dir := t.TempDir()
	m, nodes := newCrashableCluster(t, 3, BestFit)
	j, err := journal.Open(dir, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m.AttachJournal(j, 3)

	follower := NewWALState()
	replayed := func(st *WALState, b journal.Batch) *WALState {
		t.Helper()
		st, err := replay(st, b)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	reopened := func() *WALState {
		t.Helper()
		rdir := t.TempDir()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(rdir, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rj, err := journal.Open(rdir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rj.Close()
		js := rj.Stats()
		return replayed(NewWALState(), journal.Batch{
			SnapshotSeq: js.SnapshotSeq, Snapshot: rj.SnapshotData(), Records: rj.Tail()})
	}
	snapshots := 0
	m.rec = recordHook{Recorder: m.rec, after: func() {
		t.Helper()
		batch, err := j.RecordsAfter(0)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Snapshot != nil && batch.SnapshotSeq == j.Seq() {
			snapshots++
		}
		standby := replayed(NewWALState(), batch)
		if batch, err = j.RecordsAfter(follower.AppliedSeq); err != nil {
			t.Fatal(err)
		}
		follower = replayed(follower, batch)
		takeover := reopened()
		if takeover.AppliedSeq != j.Seq() {
			t.Fatalf("seq %d: reopened journal replayed to %d", j.Seq(), takeover.AppliedSeq)
		}
		if !reflect.DeepEqual(takeover, standby) || !reflect.DeepEqual(takeover, follower) {
			t.Fatalf("seq %d: readers disagree:\ntakeover %+v\nstandby  %+v\nfollower %+v",
				j.Seq(), *takeover, *standby, *follower)
		}
	}}

	m.BecomeLeader()
	rng := rand.New(rand.NewSource(11))
	var names []string
	for i := 0; i < 60; i++ {
		switch op := rng.Intn(6); {
		case op <= 1 || len(names) == 0:
			prio := vm.LowPriority
			if op == 1 {
				prio = vm.HighPriority
			}
			name := fmt.Sprintf("vm-%d", i)
			if _, _, err := m.Launch(durSpec(name, prio, 0.25)); err == nil {
				names = append(names, name)
			}
		case op == 2:
			k := rng.Intn(len(names))
			m.Release(names[k])
			names = append(names[:k], names[k+1:]...)
		case op == 3:
			name := names[rng.Intn(len(names))]
			if src, ok := m.Placements()[name]; ok {
				dst := nodes[rng.Intn(len(nodes))].Name()
				if dst != src {
					m.Migrate(name, dst)
				}
			}
		case op == 4:
			huge := durSpec(fmt.Sprintf("huge-%d", i), vm.LowPriority, 1.0)
			huge.Size = restypes.V(1024, 1<<30, 1, 1)
			huge.MinSize = huge.Size
			m.Launch(huge)
		default:
			n := nodes[rng.Intn(len(nodes))]
			n.crash()
			probeUntilDead(t, m)
			n.recover()
			m.ProbeHealth()
		}
	}
	if j.Seq() < 40 || snapshots < 10 {
		t.Fatalf("run journaled %d records and %d snapshots; the test needs more of both", j.Seq(), snapshots)
	}
}

package cluster

import (
	"errors"
	"fmt"
	"testing"

	"deflation/internal/cascade"
	"deflation/internal/faults"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/substrate"
	"deflation/internal/vm"
)

// newMigCluster builds a FirstFit cluster with a generous NIC so migration
// streams get the full link, and FirstFit placement so tests control where
// VMs land (earlier servers fill first).
func newMigCluster(t *testing.T, n int) *Manager {
	t.Helper()
	servers := make([]Node, n)
	for i := range servers {
		h, err := hypervisor.NewHost(hypervisor.Config{
			Name:     fmt.Sprintf("s%d", i),
			Capacity: restypes.V(16, 65536, 800, 4000),
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = NewLocalController(h, cascade.AllLevels(), ModeDeflation)
	}
	m, err := NewManager(servers, FirstFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reservedOn is the capacity a host holds outside its instances: what its
// free physical capacity lacks of capacity minus allocations.
func reservedOn(h substrate.Substrate) restypes.Vector {
	return h.Capacity().Sub(h.Allocated()).Sub(h.FreePhysical())
}

// totalAllocated sums every placed VM's physical allocation cluster-wide.
func totalAllocated(t *testing.T, m *Manager) restypes.Vector {
	t.Helper()
	var sum restypes.Vector
	for _, s := range m.Servers() {
		inv, err := nodeInventory(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, vs := range inv {
			sum = sum.Add(vs.Allocation)
		}
	}
	return sum
}

func TestMigrateMovesVMAndConservesAllocation(t *testing.T) {
	m := newMigCluster(t, 2)
	for i := 0; i < 3; i++ {
		if _, _, err := m.Launch(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	before := totalAllocated(t, m)

	rep, err := m.Migrate("v0", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != "s0" || rep.To != "s1" {
		t.Errorf("report route %s→%s, want s0→s1", rep.From, rep.To)
	}
	if !rep.Result.Converged || rep.Result.TransferredMB <= 0 || rep.Result.Downtime <= 0 {
		t.Errorf("implausible migration result: %+v", rep.Result)
	}
	if has, _ := m.Servers()[0].Has("v0"); has {
		t.Error("v0 still on source after migration")
	}
	if has, _ := m.Servers()[1].Has("v0"); !has {
		t.Error("v0 not on destination after migration")
	}
	if !m.Placed("v0") {
		t.Error("migrated VM no longer placed")
	}

	// Conservation: a completed migration moves allocation, never creates or
	// destroys it.
	if after := totalAllocated(t, m); after != before {
		t.Errorf("allocation not conserved:\nbefore %+v\nafter  %+v", before, after)
	}
	st := m.MigrationStats()
	if st.Migrations != 1 || st.Failures != 0 || st.MigratedMB != rep.Result.TransferredMB {
		t.Errorf("stats: %+v", st)
	}

	// The VM can keep living its lifecycle on the destination.
	if err := m.Release("v0"); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateValidation(t *testing.T) {
	m := newMigCluster(t, 2)
	if _, _, err := m.Launch(spec("a", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Migrate("ghost", "s1"); !errors.Is(err, ErrVMNotFound) {
		t.Errorf("unknown VM err = %v", err)
	}
	if _, err := m.Migrate("a", "nowhere"); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("unknown node err = %v", err)
	}
	if _, err := m.Migrate("a", "s0"); !errors.Is(err, ErrMigrationFailed) {
		t.Errorf("same-node err = %v", err)
	}
}

func TestMigrationFaultRollsBackToSource(t *testing.T) {
	m := newMigCluster(t, 2)
	if _, _, err := m.Launch(spec("a", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	m.SetMigrationFaults(faults.New(faults.Config{MigrationFailProb: 1, Seed: 3}))
	before := totalAllocated(t, m)

	if _, err := m.Migrate("a", "s1"); !errors.Is(err, ErrMigrationFailed) {
		t.Fatalf("err = %v, want ErrMigrationFailed", err)
	}
	// Rollback: the VM never left its source, nothing landed on the
	// destination, and stream reservations were released.
	if has, _ := m.Servers()[0].Has("a"); !has {
		t.Error("VM lost from source after failed migration")
	}
	if has, _ := m.Servers()[1].Has("a"); has {
		t.Error("VM leaked onto destination after failed migration")
	}
	if !m.Placed("a") {
		t.Error("placement lost after failed migration")
	}
	if after := totalAllocated(t, m); after != before {
		t.Errorf("allocation changed by failed migration:\nbefore %+v\nafter  %+v", before, after)
	}
	for i, s := range m.Servers() {
		if r := reservedOn(s.(*LocalController).host); !r.IsZero() {
			t.Errorf("server %d still holds stream reservation %+v", i, r)
		}
	}
	if st := m.MigrationStats(); st.Migrations != 0 || st.Failures != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestMigrationOnlyFallbackMigratesInsteadOfPreempting(t *testing.T) {
	// s0 holds four undeflatable lows (full); s1 holds one. A full-server
	// high-priority arrival fits nowhere. Under ReclaimMigrationOnly the
	// manager migrates s0's lows to s1 until s1 is full, then — as the last
	// resort — preempts the remainder. Net effect: most victims keep
	// running, strictly fewer preemptions than preempt-only.
	launchAll := func(m *Manager) {
		for i := 0; i < 4; i++ {
			if _, _, err := m.Launch(spec(fmt.Sprintf("a%d", i), vm.LowPriority, 1.0)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := m.Launch(spec("b0", vm.LowPriority, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	hi := LaunchSpec{
		Name: "hi", Size: restypes.V(16, 65536, 100, 100), Priority: vm.HighPriority,
		NewApp: spec("hi", vm.HighPriority, 0).NewApp,
	}

	base := newMigCluster(t, 2)
	launchAll(base)
	_, baseRep, err := base.Launch(hi)
	if err != nil {
		t.Fatal(err)
	}

	mig := newMigCluster(t, 2)
	mig.SetReclaimPolicy(ReclaimMigrationOnly)
	launchAll(mig)
	_, migRep, err := mig.Launch(hi)
	if err != nil {
		t.Fatal(err)
	}

	st := mig.MigrationStats()
	if st.Migrations == 0 {
		t.Fatal("migration-only policy performed no migrations")
	}
	if len(migRep.Preempted) >= len(baseRep.Preempted) {
		t.Errorf("migration-only preempted %d, preempt-only %d — migration saved nothing",
			len(migRep.Preempted), len(baseRep.Preempted))
	}
	if got := mig.Preemptions() + st.Migrations; got != len(baseRep.Preempted) {
		t.Errorf("victims: %d preempted + %d migrated != %d displaced under preempt-only",
			mig.Preemptions(), st.Migrations, len(baseRep.Preempted))
	}
}

func TestDeflateThenMigrateMovesFewerBytes(t *testing.T) {
	// A full-server high-priority arrival fits nowhere, so the fallback
	// migrates s0's one low-priority VM next to s1's high-priority one.
	// Under deflate-then-migrate the VM is squeezed first: it must transfer
	// fewer bytes and pause for less downtime (smaller resident set, lower
	// dirty rate) than under migration-only.
	full := func(name string, prio vm.Priority) LaunchSpec {
		s := spec(name, prio, 1.0)
		s.Size = restypes.V(16, 65536, 100, 100)
		s.MinSize = s.Size
		return s
	}
	fallback := func(policy ReclaimPolicy) MigrationStats {
		m := newMigCluster(t, 2)
		m.SetReclaimPolicy(policy)
		// x fills s0 so that b lands on s1; a then takes s0 alone.
		for _, sp := range []LaunchSpec{full("x", vm.LowPriority), spec("b", vm.HighPriority, 1.0)} {
			if _, _, err := m.Launch(sp); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Release("x"); err != nil {
			t.Fatal(err)
		}
		for _, sp := range []LaunchSpec{spec("a", vm.LowPriority, 0.25), full("hi", vm.HighPriority)} {
			if _, _, err := m.Launch(sp); err != nil {
				t.Fatal(err)
			}
		}
		if has, _ := m.Servers()[1].Has("a"); !has {
			t.Fatal("a was not migrated to s1")
		}
		st := m.MigrationStats()
		if st.Migrations != 1 {
			t.Fatalf("%d migrations, want 1", st.Migrations)
		}
		return st
	}
	plain := fallback(ReclaimMigrationOnly)
	deflated := fallback(ReclaimDeflateThenMigrate)
	if deflated.MigratedMB >= plain.MigratedMB {
		t.Errorf("deflate-then-migrate moved %.0f MB, migration-only %.0f MB",
			deflated.MigratedMB, plain.MigratedMB)
	}
	if deflated.TotalDowntime >= plain.TotalDowntime {
		t.Errorf("deflate-then-migrate downtime %v, migration-only %v",
			deflated.TotalDowntime, plain.TotalDowntime)
	}
}

func TestReserveStreamThrottlesAndRestores(t *testing.T) {
	c := newServer(t, ModeDeflation) // capacity 400 net; each VM takes 100
	for i := 0; i < 4; i++ {
		if _, _, err := c.LaunchVM(spec(fmt.Sprintf("v%d", i), vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	// NIC fully allocated: the stream can only get throttled low-priority
	// bandwidth, at most half of each VM's 100 MB/s.
	granted, err := c.ReserveStream("migrate:x", 1250)
	if err != nil {
		t.Fatal(err)
	}
	if granted <= 0 || granted > 200 {
		t.Errorf("granted %.0f MB/s, want (0, 200]", granted)
	}
	for _, v := range c.VMs() {
		if net := v.Allocation().NetMBps; net >= 100 {
			t.Errorf("%s network allocation %.0f not throttled", v.Name(), net)
		}
	}
	// Idempotent: re-reserving the same stream returns the same grant
	// without throttling further.
	again, err := c.ReserveStream("migrate:x", 1250)
	if err != nil || again != granted {
		t.Errorf("re-reserve = %.0f, %v; want %.0f, nil", again, err, granted)
	}
	if err := c.ReleaseStream("migrate:x"); err != nil {
		t.Fatal(err)
	}
	for _, v := range c.VMs() {
		if net := v.Allocation().NetMBps; net != 100 {
			t.Errorf("%s network allocation %.0f not restored", v.Name(), net)
		}
	}
	if r := reservedOn(c.host); !r.IsZero() {
		t.Errorf("reservation leaked: %+v", r)
	}
	// Releasing an unknown stream is a no-op.
	if err := c.ReleaseStream("migrate:ghost"); err != nil {
		t.Errorf("unknown release err = %v", err)
	}
}

func TestCheckpointRestoreRejectsBadInputs(t *testing.T) {
	c := newServer(t, ModeDeflation)
	if _, _, err := c.LaunchVM(spec("a", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint("ghost"); !errors.Is(err, ErrVMNotFound) {
		t.Errorf("checkpoint ghost err = %v", err)
	}
	cp, err := c.Checkpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if cp.TransferSetMB <= 0 || cp.DirtyRateMBps <= 0 {
		t.Errorf("checkpoint rates: %+v", cp)
	}
	// Restoring onto a server that already runs the VM must conflict.
	if err := c.RestoreVM(cp); !errors.Is(err, ErrVMExists) {
		t.Errorf("duplicate restore err = %v", err)
	}
	if _, err := c.DeflateFully("ghost"); !errors.Is(err, ErrVMNotFound) {
		t.Errorf("deflate-fully ghost err = %v", err)
	}
}

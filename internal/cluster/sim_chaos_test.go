package cluster

import (
	"testing"
	"time"

	"deflation/internal/faults"
)

func chaosSim() SimConfig {
	cfg := smallSim(ModeDeflation, 1.6)
	cfg.Faults = faults.Config{
		CrashMTBF:     20 * time.Minute, // aggressive: several crashes per run
		RecoveryTime:  2 * time.Minute,
		AgentFailProb: 0.05,
		AgentHangProb: 0.05,
		OSFailProb:    0.05,
	}
	cfg.HeartbeatInterval = 10 * time.Second
	return cfg
}

func TestChaosSimDeterministic(t *testing.T) {
	// The acceptance bar: two chaos runs with identical seeds produce
	// byte-identical results — crashes, evictions, goodput, everything.
	a, err := RunSim(chaosSim())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(chaosSim())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("chaos sim not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestChaosSimWithManagerCrashesDeterministic(t *testing.T) {
	// Manager crash-restart cycles recover the manager from the write-ahead
	// journal mid-simulation. Same seed must still mean byte-identical
	// results, and crashes must actually fire at an aggressive MTBF (the
	// small trace spans well under an hour of simulated time).
	mgrChaos := func() SimConfig {
		cfg := chaosSim()
		cfg.Faults.ManagerCrashMTBF = 5 * time.Minute
		return cfg
	}
	a, err := RunSim(mgrChaos())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(mgrChaos())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("manager-crash chaos sim not deterministic:\n%+v\n%+v", a, b)
	}
	if a.ManagerCrashes == 0 {
		t.Fatal("no manager crashes injected at 5m MTBF")
	}
	if a.FailurePreemptions != a.VMsReplaced+a.VMsLost {
		t.Errorf("accounting: %d preemptions != %d replaced + %d lost",
			a.FailurePreemptions, a.VMsReplaced, a.VMsLost)
	}
}

func TestZeroedFaultsReproduceBaseline(t *testing.T) {
	// A Faults struct with every rate zeroed must take the exact fault-free
	// code path: the chaos sweep's zero-fault cell IS the Fig. 8c baseline.
	baseline, err := RunSim(smallSim(ModeDeflation, 1.6))
	if err != nil {
		t.Fatal(err)
	}
	zeroed := smallSim(ModeDeflation, 1.6)
	zeroed.Faults = faults.Config{Seed: 999} // seed alone enables nothing
	got, err := RunSim(zeroed)
	if err != nil {
		t.Fatal(err)
	}
	if got != baseline {
		t.Errorf("zeroed faults diverge from baseline:\n%+v\n%+v", got, baseline)
	}
}

func TestMigrationChaosSimDeterministic(t *testing.T) {
	// Migration-enabled chaos runs — crash-stop nodes, manager crashes, and
	// injected mid-copy migration faults on top of deflate-then-migrate
	// reclamation — must still be byte-identical across same-seed runs.
	migChaos := func() SimConfig {
		cfg := chaosSim()
		cfg.Reclaim = ReclaimDeflateThenMigrate
		cfg.Faults.ManagerCrashMTBF = 5 * time.Minute
		cfg.Faults.MigrationFailProb = 0.2
		return cfg
	}
	a, err := RunSim(migChaos())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(migChaos())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("migration chaos sim not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Migrations == 0 {
		t.Error("deflate-then-migrate chaos run performed no migrations")
	}
}

func TestZeroMigrationReproducesFig8cBaseline(t *testing.T) {
	// With the zero ReclaimPreempt policy the simulation must take exactly
	// the pre-migration code path — the migration-disabled deflation and
	// preemption-only rows ARE the existing Fig. 8c curves, bit for bit.
	for _, mode := range []Mode{ModeDeflation, ModePreemptionOnly} {
		baseline, err := RunSim(smallSim(mode, 1.6))
		if err != nil {
			t.Fatal(err)
		}
		disabled := smallSim(mode, 1.6)
		disabled.Reclaim = ReclaimPreempt
		got, err := RunSim(disabled)
		if err != nil {
			t.Fatal(err)
		}
		if got != baseline {
			t.Errorf("mode %v: migration-disabled run diverges from baseline:\n%+v\n%+v",
				mode, got, baseline)
		}
		if got.Migrations != 0 || got.MigratedMB != 0 {
			t.Errorf("mode %v: migrations occurred with migration disabled: %+v", mode, got)
		}
	}
}

// haChaosSim layers every control-plane fault the HA design defends against
// on top of the node/agent chaos mix: leader crashes, leader partitions long
// enough to expire the lease, and journal disk errors.
func haChaosSim() SimConfig {
	cfg := chaosSim()
	cfg.HAStandby = true
	cfg.LeaseTimeout = 30 * time.Second
	cfg.Faults.ManagerCrashMTBF = 5 * time.Minute
	cfg.Faults.PartitionMTBF = 10 * time.Minute
	cfg.Faults.PartitionDuration = 2 * time.Minute
	cfg.Faults.DiskFailProb = 0.001
	return cfg
}

func TestHAChaosSimDeterministic(t *testing.T) {
	// Failover chaos — leader crashes, partition-induced dual-leader windows,
	// poisoned journals — must stay byte-identical across same-seed runs.
	a, err := RunSim(haChaosSim())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(haChaosSim())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("HA chaos sim not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestHAChaosSimFailsOverWithoutEvictions(t *testing.T) {
	res, err := RunSim(haChaosSim())
	if err != nil {
		t.Fatal(err)
	}
	if res.ManagerCrashes == 0 {
		t.Fatal("no leader crashes injected at 5m MTBF")
	}
	if res.Failovers == 0 {
		t.Fatal("leader deaths triggered no standby takeovers")
	}
	if res.Partitions == 0 {
		t.Fatal("no leader partitions injected at 20m MTBF")
	}
	if res.StaleCommandsRejected == 0 {
		t.Error("no deposed leader was ever provably fenced after a heal")
	}
	if res.HeadlessTime == 0 {
		t.Error("failovers accrued no headless time")
	}
	// The HA acceptance property: takeovers never evict a healthy workload.
	// VMs lost to node crashes are charged to the crash paths; a VM alive on
	// its node that a new term dropped would land here.
	if res.FailoverEvictions != 0 {
		t.Errorf("takeovers evicted %d healthy VMs", res.FailoverEvictions)
	}
}

func TestHAJournalPoisoningFailsOver(t *testing.T) {
	// Disk faults alone (no crashes, no partitions): the first injected
	// write/fsync error poisons the journal, the leader fail-stops, and the
	// standby must take over — still with zero healthy-VM evictions.
	poison := func() SimConfig {
		cfg := chaosSim()
		cfg.HAStandby = true
		cfg.LeaseTimeout = 30 * time.Second
		cfg.Faults.DiskFailProb = 0.01
		return cfg
	}
	a, err := RunSim(poison())
	if err != nil {
		t.Fatal(err)
	}
	if a.JournalPoisonings == 0 {
		t.Fatal("no journal poisonings at 1% disk-fault probability")
	}
	if a.Failovers < a.JournalPoisonings {
		t.Errorf("%d poisonings but only %d failovers", a.JournalPoisonings, a.Failovers)
	}
	if a.FailoverEvictions != 0 {
		t.Errorf("poison takeovers evicted %d healthy VMs", a.FailoverEvictions)
	}
	b, err := RunSim(poison())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("poison chaos sim not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestHAStandbyZeroFaultsReproduceBaseline(t *testing.T) {
	// HAStandby without fault injection must change nothing: the flag only
	// has meaning under chaos, and the zero-fault cell stays the Fig. 8c
	// baseline bit for bit.
	baseline, err := RunSim(smallSim(ModeDeflation, 1.6))
	if err != nil {
		t.Fatal(err)
	}
	ha := smallSim(ModeDeflation, 1.6)
	ha.HAStandby = true
	ha.LeaseTimeout = time.Minute
	got, err := RunSim(ha)
	if err != nil {
		t.Fatal(err)
	}
	if got != baseline {
		t.Errorf("idle HAStandby diverges from baseline:\n%+v\n%+v", got, baseline)
	}
}

func TestChaosSimInjectsAndRecovers(t *testing.T) {
	res, err := RunSim(chaosSim())
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeCrashes == 0 {
		t.Fatal("no node crashes injected at 20m MTBF over a multi-hour trace")
	}
	if res.FailurePreemptions == 0 {
		t.Error("crashes killed no VMs")
	}
	if res.FailurePreemptions != res.VMsReplaced+res.VMsLost {
		t.Errorf("accounting: %d preemptions != %d replaced + %d lost",
			res.FailurePreemptions, res.VMsReplaced, res.VMsLost)
	}
	if res.VMsReplaced == 0 {
		t.Error("no evicted VM was ever re-placed despite spare capacity")
	}
	if res.Goodput <= 0 {
		t.Error("goodput not sampled")
	}

	// Failures raise the effective preemption probability above the
	// fault-free baseline at the same overcommitment.
	baseline, err := RunSim(smallSim(ModeDeflation, 1.6))
	if err != nil {
		t.Fatal(err)
	}
	if res.PreemptionProbability <= baseline.PreemptionProbability {
		t.Errorf("chaos preemption probability %.4f not above baseline %.4f",
			res.PreemptionProbability, baseline.PreemptionProbability)
	}
}

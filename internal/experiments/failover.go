package experiments

import (
	"time"

	"deflation/internal/cluster"
	"deflation/internal/faults"
)

// failover runs the Fig. 8c trace-driven deflation cluster with a hot
// standby, swept over overcommitment under four control-plane fault
// regimes — leader crashes, network partitions of the leader, journal disk
// faults, and all three at once — against the zero-fault baseline, one
// series per regime. The claim under test is that failover is invisible
// to healthy workloads: the standby adopts the cluster without evicting a
// single running VM (the healthy-evictions panel must be all zero), and a
// deposed leader's commands are fenced off by the promotion epoch.
//
// The cluster runs headless for at most the lease after a leader failure
// before the standby adopts. The zero-fault row carries a zero
// faults.Config, so injection is fully disabled and the cell is exactly
// the Fig. 8c deflation baseline, HA standby and all.
func failover(o Options) (Result, error) {
	lease, crash, partition, partitionFor, diskFail := time.Minute, 20*time.Minute, 30*time.Minute, 3*time.Minute, 0.0005
	if o.Quick {
		lease, crash, partition, partitionFor, diskFail = 30*time.Second, 5*time.Minute, 10*time.Minute, 2*time.Minute, 0.002
	}
	base := simBase(o.Quick)
	base.Mode, base.HAStandby, base.LeaseTimeout = cluster.ModeDeflation, true, lease
	row := func(name string, f faults.Config) simRow {
		return simRow{name, func(c *cluster.SimConfig) { c.Faults = f }}
	}
	return simSweep(o, "failover", base, overcommits(o, 1.1, 1.3, 1.5, 1.7, 1.9), []simRow{
		row("no faults", faults.Config{}),
		row("leader crashes", faults.Config{ManagerCrashMTBF: crash}),
		row("partitions", faults.Config{PartitionMTBF: partition, PartitionDuration: partitionFor}),
		row("disk faults", faults.Config{DiskFailProb: diskFail}),
		row("full chaos", faults.Config{
			ManagerCrashMTBF: crash, PartitionMTBF: partition, PartitionDuration: partitionFor, DiskFailProb: diskFail,
		}),
	}, []simPanel{
		{"Failover: preemption probability vs overcommitment by control-plane fault regime", preemption},
		{"Failover: cluster goodput (aggregate normalized throughput)", goodput},
		{"Failover: standby takeovers", func(r cluster.SimResult) float64 { return float64(r.Failovers) }},
		{"Failover: healthy VMs evicted by takeovers (must be zero)", func(r cluster.SimResult) float64 { return float64(r.FailoverEvictions) }},
		{"Failover: stale-epoch commands fenced off", func(r cluster.SimResult) float64 { return float64(r.StaleCommandsRejected) }},
	})
}

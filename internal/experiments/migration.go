package experiments

import "deflation/internal/cluster"

// figMigration sweeps the Fig. 8c trace-driven cluster over
// overcommitment under four reclamation policies: preemption-only,
// migration-only (live-migrate victims instead of killing them),
// deflation (the paper's mechanism), and deflate-then-migrate (shrink the
// victim first so it moves cheaply), on the default live-migration model
// (dedicated 10 GbE link, 300 ms downtime target). It reports preemption
// probability, cluster goodput, migrations completed, gigabytes moved, and
// total stop-and-copy downtime, one series per policy.
//
// Preempt-only and Deflation are exactly the two Fig. 8c curves: the zero
// ReclaimPreempt policy takes the pre-migration code path bit for bit.
func figMigration(o Options) (Result, error) {
	row := func(name string, mode cluster.Mode, reclaim cluster.ReclaimPolicy) simRow {
		return simRow{name, func(c *cluster.SimConfig) { c.Mode, c.Reclaim = mode, reclaim }}
	}
	return simSweep(o, "migration", simBase(o.Quick), overcommits(o, 1.1, 1.3, 1.5, 1.6, 1.7, 1.9, 2.1), []simRow{
		row("Preempt-only", cluster.ModePreemptionOnly, cluster.ReclaimPreempt),
		row("Migration-only", cluster.ModePreemptionOnly, cluster.ReclaimMigrationOnly),
		row("Deflation", cluster.ModeDeflation, cluster.ReclaimPreempt),
		row("Deflate+migrate", cluster.ModeDeflation, cluster.ReclaimDeflateThenMigrate),
	}, []simPanel{
		{"Migration vs deflation: preemption probability vs overcommitment", preemption},
		{"Migration vs deflation: cluster goodput (aggregate normalized throughput)", goodput},
		{"Migration vs deflation: live migrations completed", func(r cluster.SimResult) float64 { return float64(r.Migrations) }},
		{"Migration vs deflation: data moved (GB)", func(r cluster.SimResult) float64 { return r.MigratedMB / 1024 }},
		{"Migration vs deflation: total stop-and-copy downtime (s)", func(r cluster.SimResult) float64 { return r.MigrationDowntime.Seconds() }},
	})
}

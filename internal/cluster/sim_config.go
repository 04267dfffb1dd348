package cluster

import (
	"time"

	"deflation/internal/faults"
	"deflation/internal/pricing"
	"deflation/internal/restypes"
	"deflation/internal/trace"
)

// SimConfig parameterizes the trace-driven 100-node cluster simulation of
// §6.3 (Figs. 8c and 8d).
type SimConfig struct {
	Servers        int             // default 100
	ServerCapacity restypes.Vector // default 32 cores / 128 GB / 4000 / 4000
	Policy         PlacementPolicy
	Mode           Mode
	// TargetOvercommit is the admitted-nominal-to-capacity ratio the
	// admission loop sustains (1.6 = "60% overcommitment").
	TargetOvercommit float64
	// MinSizeFraction sets low-priority VMs' minimum size m_i as a
	// fraction of nominal ("empirically determined minimum levels for
	// Spark, memcached, and SpecJBB", default 0.10).
	MinSizeFraction float64
	// Trace drives arrivals; Count defaults to 2000.
	Trace trace.Config
	Seed  int64
	// Meter, when non-nil, accrues provider revenue over the simulation
	// (§8's pricing discussion; see internal/pricing).
	Meter *pricing.Meter
	// Faults configures deterministic fault injection: crash-stop node
	// failures detected by the manager's heartbeats, and agent/OS-level
	// cascade faults. The zero value disables injection entirely and the
	// simulation takes exactly the fault-free code path, so a chaos sweep's
	// zero-fault cell reproduces the baseline figures bit for bit.
	Faults faults.Config
	// HeartbeatInterval is the failure detector's probe period (default 30s;
	// only used when Faults is enabled).
	HeartbeatInterval time.Duration
	// HAStandby enables manager high availability under fault injection: the
	// leader runs under a fencing epoch (every node wraps an epoch guard), a
	// warm standby shadows its WAL, and leader death — crash, partition, or a
	// poisoned journal — triggers a lease-expiry TakeOver from the standby's
	// replica instead of an in-place restart. Requires Faults to be enabled;
	// ignored otherwise, so the zero-fault path stays bit-for-bit identical.
	HAStandby bool
	// LeaseTimeout is the leadership lease: how long the cluster stays
	// headless between leader death and the standby's takeover (default
	// 2×HeartbeatInterval; only used with HAStandby).
	LeaseTimeout time.Duration
	// Reclaim selects the manager's reclamation fallback (see ReclaimPolicy).
	// The zero value (ReclaimPreempt) takes exactly the pre-migration code
	// path, so migration-disabled runs reproduce baseline figures bit for
	// bit.
	Reclaim ReclaimPolicy
	// SampleEvery thins the post-warmup cluster sampling: state (overcommit,
	// per-server quantiles, throughput) is sampled on every SampleEvery-th
	// admission instead of every one. Each sample re-evaluates the servers
	// whose VMs changed and re-adds the cached per-server sums from the
	// lowest changed server on (see stateSampler) — still O(servers + VMs)
	// in the worst case, which XL fleets (the 8c-xl sweep) thin out. The
	// default 1 samples every admission, the exact legacy behavior bit for bit.
	SampleEvery int
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Servers == 0 {
		c.Servers = 100
	}
	if c.ServerCapacity.IsZero() {
		// 32 cores, 128 GB, and I/O generous enough that CPU and memory
		// are the binding dimensions; the largest trace VM (8 cores) is a
		// quarter of a server, keeping fragmentation realistic.
		c.ServerCapacity = restypes.V(32, 131072, 4000, 4000)
	}
	if c.TargetOvercommit == 0 {
		c.TargetOvercommit = 1.0
	}
	if c.MinSizeFraction == 0 {
		c.MinSizeFraction = 0.10
	}
	if c.Trace.Count == 0 {
		c.Trace.Count = 2000
	}
	if c.Trace.Seed == 0 {
		c.Trace.Seed = c.Seed + 1
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 30 * time.Second
	}
	if c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed + 2
	}
	if c.LeaseTimeout == 0 {
		c.LeaseTimeout = 2 * c.HeartbeatInterval
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 1
	}
	return c
}

// SimResult reports a cluster simulation.
type SimResult struct {
	LowPriorityStarted int
	Preemptions        int
	// PreemptionProbability = (Preemptions + failure-induced evictions of
	// low-priority VMs) / LowPriorityStarted (Fig. 8c's y-axis; the failure
	// term is zero without SimConfig.Faults).
	PreemptionProbability float64
	Rejections            int
	AchievedOvercommit    float64 // time-averaged admitted nominal / capacity
	// ServerOvercommit quantiles across servers, sampled over time
	// (Fig. 8d's y-axis).
	ServerOvercommitMean float64
	ServerOvercommitP95  float64
	// MeanReclaimLatency and MaxReclaimLatency summarize the resource-
	// allocation latency deflation adds to placements that needed
	// reclamation (§6.3, "Latency").
	MeanReclaimLatency time.Duration
	MaxReclaimLatency  time.Duration
	// LatentPlacements counts placements that paid nonzero reclamation
	// latency.
	LatentPlacements int
	// MeanLowThroughput is the time-sampled mean normalized throughput of
	// the running low-priority VMs — the performance side of the
	// minimum-size (m_i) tradeoff: smaller minimums mean fewer preemptions
	// but deeper deflation.
	MeanLowThroughput float64
	// Goodput is the time-sampled aggregate normalized throughput summed
	// over all running VMs — the cluster's useful work rate. Crashes and
	// lost VMs lower it directly; deflation and injected agent faults lower
	// it through per-VM throughput.
	Goodput float64
	// NodeCrashes, FailurePreemptions, VMsReplaced, and VMsLost summarize
	// injected crash-stop failures (all zero without SimConfig.Faults).
	// FailurePreemptions = VMsReplaced + VMsLost.
	NodeCrashes        int
	FailurePreemptions int
	VMsReplaced        int
	VMsLost            int
	// ManagerCrashes counts injected manager crash-restart cycles; each one
	// rebuilds the manager from its journal via TakeOver (zero unless
	// Faults.ManagerCrashMTBF is set).
	ManagerCrashes int
	// Manager-HA activity (all zero unless SimConfig.HAStandby): standby
	// takeovers, injected leader partitions, total leaderless time across
	// crash/partition/poison windows, journals fail-stopped by injected disk
	// errors, deposed-leader commands provably refused by the nodes' epoch
	// guards after a partition healed, and healthy VMs a takeover evicted —
	// the HA design target for FailoverEvictions is zero.
	Failovers             int
	Partitions            int
	HeadlessTime          time.Duration
	JournalPoisonings     int
	StaleCommandsRejected int
	FailoverEvictions     int
	// Migration activity (all zero unless SimConfig.Reclaim enables
	// migration-based reclamation): completed migrations, failed/aborted
	// ones, pre-copy convergence failures, bytes moved, and the summed copy
	// duration and stop-and-copy downtime.
	Migrations          int
	MigrationFailures   int
	ConvergenceFailures int
	MigratedMB          float64
	MigrationTime       time.Duration
	MigrationDowntime   time.Duration
}

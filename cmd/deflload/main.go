// Command deflload is the chaos load harness for the sharded control
// plane (§4 at production scale). It multiplexes a fleet of simulated
// node agents — each a real controller behind a real HTTP endpoint — and
// drives open-loop registrations, heartbeats, launches, and migrations
// against federated managers over real HTTP, measuring placement
// throughput, heartbeat fan-in, and launch/migrate p50/p99.
//
// By default it boots an in-process federation of -shards managers (each
// with its own journal under -state-root, so adoption is possible) and
// tears it down at exit; point -manager at external deflated processes to
// drive a remote plane instead.
//
// Chaos: -kill-shard crash-stops the busiest shard leader mid-run (or a
// named shard), keeps offered load arriving while it is down, has a peer
// adopt the dead shard's journal, and then verifies the invariants that
// make the run a pass/fail test rather than a benchmark:
//
//   - no lost acknowledged registrations or launches,
//   - zero failure-induced preemptions (no healthy-VM evictions),
//   - the dead leader's endpoint never acks a write (no split brain),
//   - the fleet reconverges within -converge-within.
//
// Usage:
//
//	deflload -shards 3 -agents 200 -rps 100 -ticks 40           # load only
//	deflload -shards 3 -agents 200 -kill-shard busiest \
//	    -json report.json                                       # chaos run
//	deflload -manager http://10.0.0.1:7000 -agents 500          # remote plane
//
// Exit status: 0 when every invariant held, 1 on harness error, 2 when an
// invariant was violated.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/faults"
	"deflation/internal/interactive"
	"deflation/internal/shard"
)

type urlList []string

func (u *urlList) String() string     { return strings.Join(*u, ",") }
func (u *urlList) Set(s string) error { *u = append(*u, s); return nil }

// report is the JSON document written by -json: the load report plus the
// chaos outcome, consumed by scripts/takeover_smoke.sh adopt.
type report struct {
	Load            shard.LoadReport        `json:"load"`
	Invariants      shard.InvariantReport   `json:"invariants"`
	InvariantsOK    bool                    `json:"invariants_ok"`
	KilledShard     string                  `json:"killed_shard,omitempty"`
	Adopter         string                  `json:"adopter,omitempty"`
	Recovery        *cluster.RecoveryReport `json:"recovery,omitempty"`
	SplitBrainAcked bool                    `json:"split_brain_acked"`
	ConvergedIn     string                  `json:"converged_in,omitempty"`
}

func main() {
	var managers urlList
	var (
		shards     = flag.Int("shards", 3, "in-process federation size (ignored with -manager)")
		stateRoot  = flag.String("state-root", "", "federation journal root (default: a temp dir, removed at exit)")
		vnodes     = flag.Int("vnodes", 0, "ring virtual nodes per shard (0 = default)")
		agents     = flag.Int("agents", 64, "simulated node agents")
		agentCPUs  = flag.Float64("agent-cpus", 16, "per-agent CPU cores")
		agentMemGB = flag.Float64("agent-mem-gb", 64, "per-agent memory (GB)")
		rps        = flag.Float64("rps", 50, "open-loop launch arrival rate")
		profile    = flag.String("profile", "steady", "arrival profile: steady, diurnal, bursty")
		ticks      = flag.Int("ticks", 30, "generator ticks per load phase")
		tick       = flag.Duration("tick", 100*time.Millisecond, "generator tick interval")
		heartbeat  = flag.Duration("heartbeat", 250*time.Millisecond, "agent heartbeat base interval (full-jitter)")
		seed       = flag.Int64("seed", 1, "harness seed (agents, arrivals, jitter)")
		killShard  = flag.String("kill-shard", "", "chaos: crash-stop this shard mid-run (\"busiest\" picks the most loaded; requires in-process federation)")
		partitions = flag.Int("partitions", 0, "chaos: agents partitioned during the kill window")
		diskSlow   = flag.Float64("disk-slow-prob", 0, "chaos: per-op probability of a slow journal write")
		agentFlake = flag.Float64("agent-error-prob", 0, "chaos: per-request probability an agent 500s")
		converge   = flag.Duration("converge-within", 15*time.Second, "post-adoption convergence bound")
		timeout    = flag.Duration("timeout", 5*time.Minute, "whole-run deadline")
		jsonOut    = flag.String("json", "", "write the machine-readable report to this file")
	)
	flag.Var(&managers, "manager", "external manager base URL (repeatable; disables the in-process federation)")
	flag.Parse()

	prof, err := interactive.ProfileFromString(*profile)
	if err != nil {
		log.Fatalf("deflload: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Control plane: in-process federation unless -manager is given.
	var fed *shard.Federation
	targets := []string(managers)
	if len(targets) == 0 {
		root := *stateRoot
		if root == "" {
			tmp, err := os.MkdirTemp("", "deflload-*")
			if err != nil {
				log.Fatalf("deflload: %v", err)
			}
			defer os.RemoveAll(tmp)
			root = tmp
		}
		ids := make([]string, *shards)
		for i := range ids {
			ids[i] = fmt.Sprintf("shard-%d", i)
		}
		cfg := shard.FederationConfig{
			Shards:    ids,
			StateRoot: root,
			VNodes:    *vnodes,
			Policy:    cluster.BestFit,
			Seed:      *seed,
		}
		if *diskSlow > 0 {
			slow := faults.New(faults.Config{Seed: *seed + 1, DiskSlowProb: *diskSlow})
			cfg.FailOp = func(_, op string) error { return slow.DiskFault(op) }
		}
		fed, err = shard.NewFederation(cfg)
		if err != nil {
			log.Fatalf("deflload: %v", err)
		}
		defer fed.Close()
		targets = fed.URLs()
		log.Printf("deflload: booted %d-shard federation under %s", *shards, root)
	} else if *killShard != "" {
		log.Fatalf("deflload: -kill-shard needs the in-process federation (drop -manager)")
	}

	lcfg := shard.LoadConfig{
		Agents:        *agents,
		AgentCPUs:     *agentCPUs,
		AgentMemGB:    *agentMemGB,
		Seed:          *seed,
		HeartbeatBase: *heartbeat,
		ArrivalRPS:    *rps,
		Profile:       prof,
		TickInterval:  *tick,
	}
	if *agentFlake > 0 {
		lcfg.Faults = faults.New(faults.Config{Seed: *seed + 2, HTTPErrorProb: *agentFlake})
	}
	l, err := shard.NewLoad(lcfg, targets)
	if err != nil {
		log.Fatalf("deflload: %v", err)
	}
	defer l.Close()

	if err := l.RegisterAll(ctx); err != nil {
		log.Fatalf("deflload: registering fleet: %v", err)
	}
	log.Printf("deflload: registered %d agents with %d managers", *agents, len(targets))
	l.StartHeartbeats(ctx)

	if err := l.Run(ctx, *ticks); err != nil {
		log.Fatalf("deflload: load phase: %v", err)
	}

	var rpt report
	if *killShard != "" {
		victim := *killShard
		if victim == "busiest" {
			victim = busiestShard(fed, l)
		}
		dead := fed.Shard(victim)
		if dead == nil {
			log.Fatalf("deflload: unknown shard %q", victim)
		}
		deadURL := dead.URL
		names := l.AgentNames()
		for i := 0; i < *partitions && i < len(names); i++ {
			l.Partition(names[i], true)
		}
		log.Printf("deflload: crash-stopping %s (%d agents partitioned)", victim, *partitions)
		if err := fed.Kill(victim); err != nil {
			log.Fatalf("deflload: %v", err)
		}
		killedAt := time.Now()
		rpt.KilledShard = victim

		// Offered load keeps arriving while the shard is down.
		if err := l.Run(ctx, *ticks/3+1); err != nil {
			log.Fatalf("deflload: load-while-down phase: %v", err)
		}
		adopter, rec, err := fed.Adopt(ctx, victim, "")
		if err != nil {
			log.Fatalf("deflload: adoption: %v", err)
		}
		rpt.Adopter, rpt.Recovery = adopter, rec
		log.Printf("deflload: %s adopted %s (replayed %d records; %d lost, %d replaced)",
			adopter, victim, rec.RecordsReplayed, rec.Lost, rec.Replaced)
		for i := 0; i < *partitions && i < len(names); i++ {
			l.Partition(names[i], false)
		}
		if err := l.Run(ctx, *ticks/3+1); err != nil {
			log.Fatalf("deflload: post-adoption phase: %v", err)
		}

		// The dead leader's endpoint must never ack a write.
		if acked, err := shard.ProbeWrite(ctx, deadURL, "deflload-split-brain-probe"); err == nil && acked {
			rpt.SplitBrainAcked = true
		}
		convCtx, convCancel := context.WithTimeout(ctx, *converge)
		conv, err := l.AwaitConvergence(convCtx, killedAt)
		convCancel()
		if err != nil {
			log.Printf("deflload: fleet did not reconverge within %v: %v", *converge, err)
		} else {
			rpt.ConvergedIn = conv.String()
			log.Printf("deflload: fleet reconverged %v after the kill", conv)
		}
	}

	l.StopHeartbeats()
	rpt.Load = l.Report()
	// Invariant sweep: through the in-process federation's map, or — for an
	// external plane — through the shard map gossiped by any live manager.
	// A non-federated external manager serves no map; such runs are
	// measured, not swept.
	view := (*shard.View)(nil)
	if fed != nil {
		view = fed.View()
	} else {
		client := &http.Client{Timeout: 10 * time.Second}
		for _, t := range targets {
			mgr := shard.Client{ManagerClient: cluster.ManagerClient{Base: t, HTTP: client}}
			if m, err := mgr.ShardMap(ctx); err == nil {
				view = shard.NewView(m)
				break
			}
		}
		if view == nil {
			log.Printf("deflload: no manager served a shard map; skipping invariant sweep")
		}
	}
	rpt.InvariantsOK = !rpt.SplitBrainAcked
	if view != nil {
		inv, err := l.CheckInvariants(ctx, view)
		if err != nil {
			log.Fatalf("deflload: invariant sweep: %v", err)
		}
		rpt.Invariants = inv
		rpt.InvariantsOK = inv.Ok() && !rpt.SplitBrainAcked
	}

	log.Printf("deflload: %d/%d launches acked (%.1f/s), launch p50=%.1fms p99=%.1fms, migrate p99=%.1fms, hb ok=%.0f fail=%.0f",
		rpt.Load.LaunchesAcked, rpt.Load.LaunchesSent, rpt.Load.ThroughputRPS,
		rpt.Load.LaunchP50MS, rpt.Load.LaunchP99MS, rpt.Load.MigrateP99MS,
		rpt.Load.HeartbeatsOK, rpt.Load.HeartbeatsFail)
	if view != nil {
		log.Printf("deflload: invariants: %d shards swept, %d nodes, %d VMs placed, lost regs=%d, lost VMs=%d, double-owned=%d, failure preemptions=%d, split-brain acked=%v",
			rpt.Invariants.ShardsSwept, rpt.Invariants.NodesRegistered, rpt.Invariants.PlacedVMs,
			len(rpt.Invariants.LostRegistrations), len(rpt.Invariants.LostVMNames),
			len(rpt.Invariants.DoubleOwnedNodes), rpt.Invariants.FailurePreemptions,
			rpt.SplitBrainAcked)
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rpt, "", "  ")
		if err != nil {
			log.Fatalf("deflload: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatalf("deflload: %v", err)
		}
		log.Printf("deflload: wrote %s", *jsonOut)
	}
	if !rpt.InvariantsOK {
		log.Printf("deflload: INVARIANT VIOLATION")
		os.Exit(2)
	}
	log.Printf("deflload: all invariants held")
}

// busiestShard picks the live shard owning the most registered agents —
// killing it maximizes the blast radius the adoption must absorb.
func busiestShard(fed *shard.Federation, l *shard.Load) string {
	v := fed.View()
	counts := make(map[string]int)
	for _, name := range l.AgentNames() {
		counts[v.RingOwner(name)]++
	}
	best, bestN := "", -1
	for _, id := range fed.Live() {
		if counts[id] > bestN {
			best, bestN = id, counts[id]
		}
	}
	return best
}

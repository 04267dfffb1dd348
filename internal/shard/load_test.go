package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/faults"
	"deflation/internal/interactive"
)

// TestDeflloadChaosRun is the full harness exercise from the issue: a
// 3-shard federation with slow disks, a fleet with flaky agent HTTP and a
// partitioned agent, live open-loop load, a shard-leader SIGKILL mid-run,
// adoption, and then the invariant sweep: zero lost acked registrations,
// zero healthy-VM evictions, no split-brain write path, convergence.
func TestDeflloadChaosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	slow := faults.New(faults.Config{Seed: 21, DiskSlowProb: 0.05})
	fed, err := NewFederation(FederationConfig{
		Shards:    []string{"shard-0", "shard-1", "shard-2"},
		StateRoot: t.TempDir(),
		Policy:    cluster.BestFit,
		Seed:      7,
		FailOp:    func(_, op string) error { return slow.DiskFault(op) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()

	agentFaults := faults.New(faults.Config{Seed: 33, HTTPErrorProb: 0.01})
	l, err := NewLoad(LoadConfig{
		Agents:        12,
		Seed:          9,
		HeartbeatBase: 40 * time.Millisecond,
		ArrivalRPS:    80,
		Profile:       interactive.Bursty,
		TickInterval:  25 * time.Millisecond,
		Faults:        agentFaults,
	}, fed.URLs())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if err := l.RegisterAll(ctx); err != nil {
		t.Fatal(err)
	}
	l.StartHeartbeats(ctx)
	if err := l.Run(ctx, 15); err != nil {
		t.Fatal(err)
	}

	// Chaos: partition one agent, then SIGKILL a shard leader mid-load.
	partitioned := l.AgentNames()[0]
	l.Partition(partitioned, true)
	victim := busiestShard(fed, l)
	deadURL := fed.Shard(victim).URL
	if err := fed.Kill(victim); err != nil {
		t.Fatal(err)
	}
	killedAt := time.Now()
	if err := l.Run(ctx, 5); err != nil { // offered load keeps arriving while down
		t.Fatal(err)
	}
	if _, _, err := fed.Adopt(ctx, victim, ""); err != nil {
		t.Fatal(err)
	}
	l.Partition(partitioned, false)
	if err := l.Run(ctx, 10); err != nil {
		t.Fatal(err)
	}

	// Split-brain probe: the dead leader's endpoint must not ack writes.
	if acked, err := ProbeWrite(ctx, deadURL, "chaos-split-brain-probe"); err == nil && acked {
		t.Fatal("crash-stopped shard acked a write")
	}

	convCtx, convCancel := context.WithTimeout(ctx, 15*time.Second)
	defer convCancel()
	conv, err := l.AwaitConvergence(convCtx, killedAt)
	if err != nil {
		t.Fatalf("convergence after adoption: %v", err)
	}

	inv, err := l.CheckInvariants(ctx, fed.View())
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Ok() {
		t.Fatalf("chaos run violated invariants: %+v", inv)
	}
	rep := l.Report()
	if rep.LaunchesAcked == 0 || rep.HeartbeatsOK == 0 {
		t.Fatalf("no load generated: %+v", rep)
	}
	t.Logf("chaos run: %d/%d launches acked, hb ok=%.0f fail=%.0f, launch p99=%.1fms, migrate p99=%.1fms, converged %v",
		rep.LaunchesAcked, rep.LaunchesSent, rep.HeartbeatsOK, rep.HeartbeatsFail,
		rep.LaunchP99MS, rep.MigrateP99MS, conv)
}

// TestHeartbeatJitterSpreadAndDeterminism pins the satellite contract for
// agent heartbeat pacing: every drawn interval stays inside the full-jitter
// window [base/2, 3·base/2), identical seeds reproduce identical streams,
// and a synchronized fleet de-phases (the draws do not cluster).
func TestHeartbeatJitterSpreadAndDeterminism(t *testing.T) {
	const base = 100 * time.Millisecond
	lo, hi := base/2, base+base/2

	draw := func(seed int64, n int) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = cluster.HeartbeatInterval(rng, base)
		}
		return out
	}

	a, b := draw(42, 500), draw(42, 500)
	buckets := make(map[int]int)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d not deterministic: %v vs %v", i, a[i], b[i])
		}
		if a[i] < lo || a[i] >= hi {
			t.Fatalf("draw %d = %v outside [%v, %v)", i, a[i], lo, hi)
		}
		buckets[int(a[i]/(10*time.Millisecond))]++
	}
	// Spread: the window spans 10 buckets of 10ms; a degenerate jitter
	// would pile everything into a few.
	if len(buckets) < 8 {
		t.Errorf("jitter clusters into %d buckets: %v", len(buckets), buckets)
	}
	// Distinct agents (per-name seeds) must not share a stream.
	c := draw(43, 500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 50 {
		t.Errorf("distinct seeds collide on %d/500 draws", same)
	}
	// Nil rng falls back to fixed cadence.
	if got := cluster.HeartbeatInterval(nil, base); got != base {
		t.Errorf("nil rng interval = %v, want %v", got, base)
	}
}

// BenchmarkDeflloadHeartbeat measures heartbeat fan-in: one ring-routed
// POST /v1/nodes/{name}/heartbeat per op, round-robin across agents and
// managers, so ns/op is the end-to-end cost of one liveness report.
func BenchmarkDeflloadHeartbeat(b *testing.B) {
	fed, err := NewFederation(FederationConfig{
		Shards:    []string{"shard-0", "shard-1", "shard-2"},
		StateRoot: b.TempDir(),
		Policy:    cluster.BestFit,
		Seed:      7,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fed.Close()
	l, err := NewLoad(LoadConfig{Agents: 12, Seed: 5}, fed.URLs())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	if err := l.RegisterAll(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		l.beatOnce(ctx, l.agents[i%len(l.agents)])
	}
	elapsed := time.Since(start)
	b.StopTimer()
	rep := l.Report()
	if rep.HeartbeatsOK == 0 {
		b.Fatalf("no heartbeats acked: %+v", rep)
	}
	b.ReportMetric(rep.HeartbeatsOK/elapsed.Seconds(), "heartbeats/s")
}

// BenchmarkDeflloadThroughput measures placement throughput of a 3-shard
// federation under the deflload driver: acked launches per second, end to
// end through routing, journaling, and simulated hypervisors.
func BenchmarkDeflloadThroughput(b *testing.B) {
	fed, err := NewFederation(FederationConfig{
		Shards:    []string{"shard-0", "shard-1", "shard-2"},
		StateRoot: b.TempDir(),
		Policy:    cluster.BestFit,
		Seed:      7,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fed.Close()
	l, err := NewLoad(LoadConfig{Agents: 12, Seed: 5, AgentCPUs: 64, AgentMemGB: 256}, fed.URLs())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	if err := l.RegisterAll(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		l.launchOne(ctx, fmt.Sprintf("bench-vm-%06d", i))
	}
	elapsed := time.Since(start)
	b.StopTimer()
	rep := l.Report()
	if rep.LaunchesAcked == 0 {
		b.Fatalf("no launches acked: %+v", rep)
	}
	b.ReportMetric(float64(rep.LaunchesAcked)/elapsed.Seconds(), "launches/s")
	b.ReportMetric(rep.LaunchP99MS, "p99-ms")
}

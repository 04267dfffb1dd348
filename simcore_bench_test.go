// BenchmarkSimCore is the simulator-core benchmark suite: the discrete-event
// engine (ns/event, allocs/event), the manager's placement path at fleet
// scale (ns/placement), and an end-to-end simulation cell (ns per trace
// event). scripts/bench_check.sh runs it against the committed BENCH_PR10.json
// baseline and fails CI on >25% regression, so core-speed wins cannot
// silently rot.
package deflation_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/cluster"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/simclock"
	"deflation/internal/trace"
	"deflation/internal/vm"
)

// BenchmarkSimCoreEventQueue measures the event engine's steady-state
// schedule+fire cost under the classic hold model: a fixed population of
// pending events, each iteration pops the earliest and schedules a
// replacement a pseudo-random distance in the future.
func BenchmarkSimCoreEventQueue(b *testing.B) {
	clock := simclock.New()
	nop := func(time.Duration) {}
	const hold = 4096
	for i := 0; i < hold; i++ {
		clock.At(time.Duration(i)*time.Millisecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Step()
		// Pseudo-random gap in [0.5ms, 2.5ms): enough spread to exercise
		// bucket traversal without degenerating to one bucket.
		gap := time.Duration(500+(i*2654435761)%2000) * time.Microsecond
		clock.At(clock.Now()+gap, nop)
	}
}

// BenchmarkSimCorePlacement measures the manager's launch path on a
// 1000-node deflation-mode fleet at steady state: each iteration places one
// low-priority VM, recycling the oldest placements when the fleet
// saturates. This is the path the placement index takes from O(nodes)
// vector recomputation to an indexed descent.
func BenchmarkSimCorePlacement(b *testing.B) {
	const nodes = 1000
	servers := make([]cluster.Node, nodes)
	for j := range servers {
		h, err := hypervisor.NewHost(hypervisor.Config{
			Name: fmt.Sprintf("s%03d", j), Capacity: restypes.V(32, 131072, 4000, 4000),
		})
		if err != nil {
			b.Fatal(err)
		}
		servers[j] = cluster.NewLocalController(h, cascade.AllLevels(), cluster.ModeDeflation)
	}
	mgr, err := cluster.NewManager(servers, cluster.BestFit, 7)
	if err != nil {
		b.Fatal(err)
	}
	size := restypes.V(2, 4096, 50, 50)
	var live []string
	launch := func(i int) error {
		name := fmt.Sprintf("vm-%d", i)
		_, _, err := mgr.Launch(cluster.LaunchSpec{
			Name: name, Size: size, MinSize: size.Scale(0.25),
			Priority: vm.LowPriority, AppKind: "elastic",
		})
		if err == nil {
			live = append(live, name)
		}
		return err
	}
	// Pre-fill to ~half capacity so every placement scans a loaded fleet.
	for i := 0; i < nodes*8; i++ {
		if err := launch(-i - 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := launch(i); err != nil {
			b.StopTimer()
			// Saturated: recycle the oldest placements.
			for k := 0; k < 64 && len(live) > 0; k++ {
				_ = mgr.Release(live[0])
				live = live[1:]
			}
			b.StartTimer()
			if err := launch(i); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimCoreSimulation is the end-to-end cell: a 300-node, 10k-event
// trace-driven simulation. It reports ns/event and allocs/event over the
// whole run — the numbers the 8c-xl scaling figure extrapolates from.
func BenchmarkSimCoreSimulation(b *testing.B) {
	cfg := cluster.SimConfig{
		Servers:          300,
		Policy:           cluster.BestFit,
		Mode:             cluster.ModeDeflation,
		TargetOvercommit: 1.5,
		Trace:            trace.Config{Count: 10000, Seed: 11},
		Seed:             11,
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.RunSim(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	events := float64(b.N) * float64(cfg.Trace.Count)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/events, "allocs/event")
}

package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/substrate"
	"deflation/internal/trace"
	"deflation/internal/vm"
)

// The placement index must be a pure accelerator: every policy, fallback,
// and failure path must choose the SAME server the linear scans choose, on
// the same fleet state, every time. These tests drive the indexed and scan
// managers through identical workloads — scripted chaos, full simulations,
// and fuzzed op streams — and require identical placements, identical
// recorded event streams, and identical final state.

// eventRecorder captures the manager's WAL-bound transition stream as
// comparable strings.
type eventRecorder struct{ events []string }

func (r *eventRecorder) Record(e Event) {
	r.events = append(r.events, fmt.Sprintf("%s vm=%s node=%s from=%s pre=%v",
		e.Kind, e.VM, e.Node, e.From, e.Preempted))
}

// indexScanPair is two managers over independently built but identical
// fleets: a's fleet queries through the placement index, b's through the
// reference linear scans.
type indexScanPair struct {
	a, b           *Manager
	crashA, crashB []*crashableNode
	recA, recB     *eventRecorder
}

// newIndexScanPair builds the pair: n servers, every third container-backed
// (mixed substrates exercise substrate-pinned leaves), all wrapped crashable.
func newIndexScanPair(t testing.TB, n int, policy PlacementPolicy, seed int64) *indexScanPair {
	build := func() ([]Node, []*crashableNode) {
		nodes := make([]Node, n)
		crash := make([]*crashableNode, n)
		for i := 0; i < n; i++ {
			var sub substrate.Substrate
			name := fmt.Sprintf("s%02d", i)
			cap := restypes.V(16, 65536, 400, 400)
			var err error
			if i%3 == 2 {
				sub, err = simcg.NewHost(simcg.Config{Name: name, Capacity: cap})
			} else {
				sub, err = hypervisor.NewHost(hypervisor.Config{Name: name, Capacity: cap})
			}
			if err != nil {
				t.Fatal(err)
			}
			crash[i] = newCrashableNode(NewLocalController(sub, cascade.AllLevels(), ModeDeflation))
			nodes[i] = crash[i]
		}
		return nodes, crash
	}
	nodesA, crashA := build()
	nodesB, crashB := build()
	a, err := NewManager(nodesA, policy, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewManager(nodesB, policy, seed)
	if err != nil {
		t.Fatal(err)
	}
	if a.pidx == nil {
		t.Fatal("indexed manager built without a placement index")
	}
	b.pidx = nil // the reference: identical manager, linear scans
	p := &indexScanPair{a: a, b: b, crashA: crashA, crashB: crashB,
		recA: &eventRecorder{}, recB: &eventRecorder{}}
	a.SetRecorder(p.recA)
	b.SetRecorder(p.recB)
	return p
}

// launchBoth launches the same spec on both managers and requires identical
// outcomes: same server index, same error-ness, same preemption set.
func (p *indexScanPair) launchBoth(t testing.TB, spec LaunchSpec) {
	t.Helper()
	ia, ra, ea := p.a.Launch(spec)
	ib, rb, eb := p.b.Launch(spec)
	if ia != ib || (ea == nil) != (eb == nil) {
		t.Fatalf("launch %q: index chose %d (err %v), scan chose %d (err %v)",
			spec.Name, ia, ea, ib, eb)
	}
	if !reflect.DeepEqual(ra.Preempted, rb.Preempted) {
		t.Fatalf("launch %q: index preempted %v, scan preempted %v",
			spec.Name, ra.Preempted, rb.Preempted)
	}
}

// verify requires identical placements, stats, and event streams.
func (p *indexScanPair) verify(t testing.TB) {
	t.Helper()
	if !reflect.DeepEqual(p.a.placement, p.b.placement) {
		t.Fatalf("placements diverged:\nindex: %v\nscan:  %v", p.a.placement, p.b.placement)
	}
	sa, sb := p.a.Snapshot(), p.b.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("snapshots diverged:\nindex: %+v\nscan:  %+v", sa, sb)
	}
	if !reflect.DeepEqual(p.recA.events, p.recB.events) {
		la, lb := len(p.recA.events), len(p.recB.events)
		for i := 0; i < la && i < lb; i++ {
			if p.recA.events[i] != p.recB.events[i] {
				t.Fatalf("event streams diverged at %d:\nindex: %s\nscan:  %s",
					i, p.recA.events[i], p.recB.events[i])
			}
		}
		t.Fatalf("event stream lengths diverged: index %d, scan %d", la, lb)
	}
}

// runIndexScanScript drives one randomized chaos workload through the pair:
// mixed-priority launches (including substrate-pinned and preempting ones),
// releases, node crashes/recoveries, and heartbeat rounds.
func runIndexScanScript(t testing.TB, policy PlacementPolicy, seed int64, ops int) {
	const n = 17 // odd, non-power-of-two: exercises tree padding
	p := newIndexScanPair(t, n, policy, seed)
	rng := rand.New(rand.NewSource(seed))
	var live []string
	vmSeq := 0
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 5: // launch
			vmSeq++
			size := restypes.V(float64(1+rng.Intn(8)), float64(1024*(1+rng.Intn(16))),
				float64(10+rng.Intn(50)), float64(10+rng.Intn(50)))
			spec := LaunchSpec{
				Name:    fmt.Sprintf("vm-%d", vmSeq),
				Size:    size,
				MinSize: size.Scale(0.25),
				AppKind: "elastic",
			}
			if rng.Intn(4) == 0 {
				spec.Priority = vm.HighPriority
				spec.MinSize = restypes.Vector{}
				spec.AppKind = "inelastic"
			}
			switch rng.Intn(6) {
			case 0:
				spec.Substrate = "hypervisor"
			case 1:
				spec.Substrate = "container"
			}
			p.launchBoth(t, spec)
			if p.a.Placed(spec.Name) {
				live = append(live, spec.Name)
			}
			p.b.Placed(spec.Name) // keep reconciliation in lockstep
		case k < 7: // release
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			name := live[i]
			live = append(live[:i], live[i+1:]...)
			ea := p.a.Release(name)
			eb := p.b.Release(name)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("release %q: index err %v, scan err %v", name, ea, eb)
			}
		case k < 8: // crash a node
			i := rng.Intn(n)
			p.crashA[i].crash()
			p.crashB[i].crash()
		case k < 9: // recover a node
			i := rng.Intn(n)
			p.crashA[i].recover()
			p.crashB[i].recover()
		default: // heartbeat rounds (3 = past MaxMisses, so deaths land)
			for r := 0; r < 3; r++ {
				ha := p.a.ProbeHealth()
				hb := p.b.ProbeHealth()
				if len(ha) != len(hb) {
					t.Fatalf("probe events diverged: index %d, scan %d", len(ha), len(hb))
				}
			}
			// Evacuations drop VMs from both placements; refresh the pool.
			kept := live[:0]
			for _, name := range live {
				if _, ok := p.a.placement[name]; ok {
					kept = append(kept, name)
				}
			}
			live = kept
		}
	}
	p.verify(t)
}

// TestPlacementIndexScanEquivalence replays randomized chaos workloads —
// launches, preemptions, releases, crashes, evacuations — through an
// indexed manager and a scan manager for every placement policy, and
// requires identical choices, placements, and WAL event streams.
func TestPlacementIndexScanEquivalence(t *testing.T) {
	seeds := 12
	ops := 400
	if testing.Short() {
		seeds, ops = 3, 150
	}
	for _, policy := range []PlacementPolicy{BestFit, FirstFit, TwoChoices, WorstFit} {
		t.Run(policy.String(), func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				runIndexScanScript(t, policy, seed, ops)
			}
		})
	}
}

// TestPlacementIndexFreeOnlyFitnessEquivalence covers the fitness-ablation
// path (demand trees whose leaves score free capacity).
func TestPlacementIndexFreeOnlyFitnessEquivalence(t *testing.T) {
	p := newIndexScanPair(t, 9, BestFit, 7)
	p.a.SetFreeOnlyFitness(true)
	p.b.SetFreeOnlyFitness(true)
	for i := 0; i < 120; i++ {
		size := restypes.V(float64(1+i%6), float64(2048+512*(i%9)), 20, 20)
		p.launchBoth(t, LaunchSpec{
			Name: fmt.Sprintf("vm-%d", i), Size: size, MinSize: size.Scale(0.2),
			AppKind: "elastic",
		})
	}
	p.verify(t)
}

// TestPlacementIndexTieBreakPastNonAliveLeaves: a tree's values know nothing
// of m.alive, so a dead or barred server that outscores the rest sends the
// descent right, and the first winner it finds there ties every other server
// on the left. The scan picks server 0; so must the index (a prune on
// "value <= best" alone stops at the right-hand tie). Run once per leaf kind
// whose values can differ between servers.
func TestPlacementIndexTieBreakPastNonAliveLeaves(t *testing.T) {
	const n = 8
	// Memory-heavy against the 16-core/64 GB servers: a server that has lost
	// CPU points closer to it than an empty one does.
	demand := LaunchSpec{Name: "probe", Size: restypes.V(1, 16384, 10, 10), AppKind: "elastic",
		Priority: vm.HighPriority}
	cpuHog := LaunchSpec{Name: "hog", Size: restypes.V(8, 1024, 10, 10),
		MinSize: restypes.V(8, 1024, 10, 10), AppKind: "inelastic", Priority: vm.HighPriority}
	for _, tc := range []struct {
		kind   string
		hogged func(i, hi int) bool // which servers carry cpuHog
		score  func(Node) float64   // the scan's value
		pick   func(*Manager, LaunchSpec) int
	}{
		// Best-fit: the one server with a hog fits the demand best.
		{"best-fit", func(i, hi int) bool { return i == hi },
			func(s Node) float64 { return fitness(s, demand, false) }, (*Manager).bestFit},
		// Worst-fit and the preemption fallback: the one server without a
		// hog has the most free room and the largest preemptable ceiling.
		{"worst-fit", func(i, hi int) bool { return i != hi },
			func(s Node) float64 { return s.Free().Norm() }, (*Manager).worstFit},
		{"preempt", func(i, hi int) bool { return i != hi },
			func(s Node) float64 { return s.PreemptableCeiling().Norm() }, (*Manager).preemptFallback},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			for hi := 1; hi < n; hi++ {
				p := newIndexScanPair(t, n, BestFit, 1)
				for i := 0; i < n; i++ {
					if !tc.hogged(i, hi) {
						continue
					}
					for _, c := range []*crashableNode{p.crashA[i], p.crashB[i]} {
						if _, err := c.Launch(cpuHog); err != nil {
							t.Fatal(err)
						}
					}
				}
				rest := tc.score(p.b.servers[0])
				for i, s := range p.b.servers {
					switch v := tc.score(s); {
					case i == hi && v <= rest:
						t.Fatalf("server %d scores %v, not above the others' %v", hi, v, rest)
					case i != hi && v != rest:
						t.Fatalf("servers %d and 0 score %v and %v", i, v, rest)
					}
				}
				both := func(when string, want int) {
					t.Helper()
					ia, ib := tc.pick(p.a, demand), tc.pick(p.b, demand)
					if ia != ib || ib != want {
						t.Fatalf("server %d %s: index chose %d, scan chose %d, want %d", hi, when, ia, ib, want)
					}
				}
				both("alive", hi)
				p.a.health[hi].dead, p.b.health[hi].dead = true, true
				both("dead", 0)
				p.a.health[hi].dead, p.b.health[hi].dead = false, false
				p.a.bar(hi)
				p.b.bar(hi)
				both("barred", 0)
				p.a.clearBars()
				p.b.clearBars()
				both("alive again", hi)
			}
		})
	}
}

// TestPlacementIndexDemandTreeEviction cycles through more distinct demands
// than the index keeps trees for, so trees are evicted, refilled into reused
// arrays and refreshed by flush in between, under launches, releases,
// crashes and recoveries, with the fitness ablation flipped mid-run. Every
// fifth launch is high-priority on a fleet full enough that the preemption
// fallback runs, so a preempt tree and a policy tree for the same demand are
// held side by side and compete for the same slots. Every choice must match
// the scan's.
func TestPlacementIndexDemandTreeEviction(t *testing.T) {
	const n = 13
	type treeKey struct {
		kind     leafKind
		size     restypes.Vector
		sub      string
		freeOnly bool
	}
	for _, policy := range []PlacementPolicy{BestFit, FirstFit, WorstFit} {
		t.Run(policy.String(), func(t *testing.T) {
			p := newIndexScanPair(t, n, policy, 5)
			substrates := []string{"", "hypervisor", "container"}
			var live []string
			distinct := map[string]bool{}
			held := map[treeKey]bool{}
			var sideBySide, preemptEvicted bool
			for i := 0; i < 600; i++ {
				if i == 300 {
					p.a.SetFreeOnlyFitness(true)
					p.b.SetFreeOnlyFitness(true)
				}
				// 11 sizes x 3 substrates, walked with strides coprime to both, so
				// a demand recurs only after the trees holding it are long evicted
				// — except every fourth launch, which repeats one hot demand.
				k := i
				if i%4 == 3 {
					k = 0
				}
				size := restypes.V(float64(1+k%11), float64(1024*(1+(k*7)%11)), 20, 20)
				spec := LaunchSpec{Name: fmt.Sprintf("vm-%d", i), Size: size, MinSize: size.Scale(0.25),
					AppKind: "elastic", Substrate: substrates[k%3]}
				if i%5 == 4 {
					spec.Priority = vm.HighPriority
					spec.MinSize = restypes.Vector{}
					spec.AppKind = "inelastic"
				}
				distinct[fmt.Sprint(spec.Size, spec.Substrate)] = true
				p.launchBoth(t, spec)
				if p.a.Placed(spec.Name) {
					live = append(live, spec.Name)
				}
				p.b.Placed(spec.Name)
				switch i % 5 {
				case 1, 3:
					if len(live) > 0 {
						name := live[(i*31)%len(live)]
						live = slices.DeleteFunc(live, func(s string) bool { return s == name })
						if ea, eb := p.a.Release(name), p.b.Release(name); (ea == nil) != (eb == nil) {
							t.Fatalf("release %q: index err %v, scan err %v", name, ea, eb)
						}
					}
				case 2:
					c := (i * 17) % n
					if i%2 == 0 {
						p.crashA[c].crash()
						p.crashB[c].crash()
					} else {
						p.crashA[c].recover()
						p.crashB[c].recover()
					}
				}
				trees := p.a.pidx.demands
				if len(trees) > pidxDemandTrees {
					t.Fatalf("index holds %d demand trees, limit %d", len(trees), pidxDemandTrees)
				}
				now := map[treeKey]bool{}
				for _, tr := range trees {
					now[treeKey{tr.kind, tr.spec.Size, tr.spec.Substrate, tr.freeOnly}] = true
				}
				for key := range held {
					preemptEvicted = preemptEvicted || key.kind == leafPreempt && !now[key]
				}
				for _, a := range trees {
					for _, b := range trees {
						sideBySide = sideBySide || a.kind == leafPreempt && b.kind != leafPreempt &&
							a.spec.Size == b.spec.Size && a.spec.Substrate == b.spec.Substrate
					}
				}
				held = now
			}
			if len(distinct) <= pidxDemandTrees {
				t.Fatalf("only %d distinct demands: nothing was evicted", len(distinct))
			}
			if !sideBySide || !preemptEvicted {
				t.Fatalf("preempt trees held beside a policy tree of the same demand: %v; evicted: %v",
					sideBySide, preemptEvicted)
			}
			p.verify(t)
		})
	}
}

// TestPlacementIndexWorkBudget counts the tree nodes the descents enter on
// the benchmark's saturated 1000-server cell (sim_xl's shape, seed and 20 s
// trace length), once per policy; the preemption fallback's descents count
// too. A descent of exact values costs about two nodes per level (20-21 per
// query here); the direction bound best-fit once used entered 1 189 of the
// 2 047.
func TestPlacementIndexWorkBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-server, 66 600-event cells")
	}
	const servers = 1000
	for _, policy := range []PlacementPolicy{BestFit, FirstFit, WorstFit} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := SimConfig{
				Servers:          servers,
				ServerCapacity:   restypes.V(32, 131072, 4000, 4000),
				Policy:           policy,
				Mode:             ModeDeflation,
				TargetOvercommit: 1.6,
				MinSizeFraction:  0.10,
				Trace:            trace.Config{Seed: 12, Count: 66600, MeanInterarrival: 200 * time.Millisecond},
				Seed:             11,
				SampleEvery:      250,
			}
			var leader *Manager
			res, err := runSim(cfg, func(_ *stateSampler, mgr *Manager, _, _ float64, _ int) { leader = mgr })
			if err != nil {
				t.Fatal(err)
			}
			if res.LatentPlacements == 0 {
				t.Fatal("the cell never saturated: no placement paid reclaim latency")
			}
			x := leader.pidx
			perQuery := float64(x.visited) / float64(x.clock)
			budget := 4 * math.Log2(servers)
			t.Logf("overcommit %.2f: %d queries, %.1f nodes entered per query (budget %.1f), %d trees",
				res.AchievedOvercommit, x.clock, perQuery, budget, len(x.demands))
			if perQuery > budget {
				t.Errorf("%.1f nodes entered per query, budget 4*log2(%d) = %.1f", perQuery, servers, budget)
			}
		})
	}
}

// TestReplacedManagerLeavesNoWatcher: the sim replaces its manager on every
// manager crash and every HA promotion (both a TakeOver) over controllers
// that live on. Each replaced manager's index must unsubscribe,
// leaving every controller with two watchers: the leader's index and the
// state sampler.
func TestReplacedManagerLeavesNoWatcher(t *testing.T) {
	mgrCrash := chaosSim()
	mgrCrash.Faults.ManagerCrashMTBF = 5 * time.Minute
	for name, cfg := range map[string]SimConfig{"manager-crash": mgrCrash, "ha-failover": haChaosSim()} {
		t.Run(name, func(t *testing.T) {
			var last *stateSampler
			res, err := runSim(cfg, func(s *stateSampler, _ *Manager, _, _ float64, _ int) { last = s })
			if err != nil {
				t.Fatal(err)
			}
			if res.ManagerCrashes+res.Failovers < 2 {
				t.Fatalf("%d manager crashes, %d failovers: the cell replaced no manager twice",
					res.ManagerCrashes, res.Failovers)
			}
			for i, c := range last.servers {
				if got := len(c.watchers); got != 2 {
					t.Fatalf("server %d ends with %d capacity watchers after %d crashes and %d failovers, want 2",
						i, got, res.ManagerCrashes, res.Failovers)
				}
			}
		})
	}
}

// TestPlacementIndexFullChaosSimEquivalence replays entire chaos
// simulations both ways: node crashes, agent faults, manager crash-restart
// recovery from the WAL, migrations, and HA failovers all run once with the
// index and once with it globally disabled. Every SimResult field —
// placements, preemptions, evictions, goodput, migration and failover
// counts — must match exactly.
func TestPlacementIndexFullChaosSimEquivalence(t *testing.T) {
	configs := map[string]SimConfig{
		"baseline": smallSim(ModeDeflation, 1.6),
		"chaos":    chaosSim(),
	}
	if !testing.Short() {
		mgrChaos := chaosSim()
		mgrChaos.Faults.ManagerCrashMTBF = 5 * time.Minute
		configs["manager-crash"] = mgrChaos

		migChaos := chaosSim()
		migChaos.Reclaim = ReclaimDeflateThenMigrate
		migChaos.Faults.MigrationFailProb = 0.2
		configs["migration"] = migChaos

		configs["ha-failover"] = haChaosSim()

		mixed := smallSim(ModeDeflation, 1.6)
		mixed.ContainerFraction = 0.4
		configs["mixed-substrate"] = mixed

		ff := chaosSim()
		ff.Policy = FirstFit
		configs["first-fit"] = ff

		wf := chaosSim()
		wf.Policy = WorstFit
		configs["worst-fit"] = wf
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			indexed, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			placementIndexEnabled = false
			defer func() { placementIndexEnabled = true }()
			scanned, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if indexed != scanned {
				t.Errorf("index and scan sims diverged:\nindex: %+v\nscan:  %+v", indexed, scanned)
			}
		})
	}
}

// TestPlacementIndexDisabledByDynamicMembership: AddNode/RemoveNode must
// drop the manager to the scan path permanently.
func TestPlacementIndexDisabledByDynamicMembership(t *testing.T) {
	p := newIndexScanPair(t, 4, BestFit, 1)
	if p.a.pidx == nil {
		t.Fatal("index not built for a static watchable fleet")
	}
	if err := p.a.RemoveNode(p.a.servers[3].Name()); err != nil {
		t.Fatal(err)
	}
	if p.a.pidx != nil {
		t.Fatal("index survived RemoveNode")
	}
	h, err := hypervisor.NewHost(hypervisor.Config{Name: "sX", Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.a.AddNode(NewLocalController(h, cascade.AllLevels(), ModeDeflation), ""); err != nil {
		t.Fatal(err)
	}
	if p.a.pidx != nil {
		t.Fatal("index rebuilt by AddNode")
	}
	// And the manager still places correctly on the scan path.
	idx, _, err := p.a.Launch(LaunchSpec{Name: "after", Size: restypes.V(2, 4096, 20, 20),
		MinSize: restypes.V(1, 1024, 5, 5), AppKind: "elastic"})
	if err != nil || idx < 0 {
		t.Fatalf("post-membership-change launch failed: idx %d err %v", idx, err)
	}
}

// FuzzPlacementIndex feeds fuzzed fleet states and op streams through the
// indexed and scan managers in lockstep: every placement choice and the
// final placement maps must agree.
func FuzzPlacementIndex(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x10, 0x80, 0x33, 0x05, 0x77, 0xfe})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc})
	big := make([]byte, 192)
	r := rand.New(rand.NewSource(3))
	r.Read(big)
	f.Add(big)
	// Twenty distinct sizes, launched twice over with a release, a crash and a
	// recovery between the rounds: more demands than the index keeps trees.
	var sizes []byte
	for round := 0; round < 2; round++ {
		for k := byte(0); k < 20; k++ {
			sizes = append(sizes, 0, k%12, 3*k, 7*k, 5*k, 25, 1, 2) // launch: cpu mem disk net min% prio substrate
		}
		sizes = append(sizes, 4, 3, 5, 2, 6, 2, 7) // release, crash, recover, heartbeat
	}
	f.Add(append([]byte{0x0d, 0x00}, sizes...))
	// Six best-fit servers filled with barely deflatable 12-core VMs, then
	// high-priority launches of ten distinct sizes, each followed by a small
	// refill: every one reaches the preemption fallback, so preempt trees are
	// built beside the best-fit trees, refreshed by flush and evicted.
	fill := []byte{0x04, 0x00}
	for k := 0; k < 7; k++ {
		fill = append(fill, 0, 11, 31, 9, 9, 99, 1, 2) // launch: cpu mem disk net min% prio substrate
	}
	for k := byte(0); k < 10; k++ {
		fill = append(fill, 0, 5+k%6, 3*k, 9, 9, 0, 0, k%3, 0, 3, 7, 9, 9, 99, 1, 2)
	}
	fill = append(fill, 4, 3, 5, 2, 6, 2, 7) // release, crash, recover, heartbeat
	for k := byte(0); k < 3; k++ {
		fill = append(fill, 0, 5+k, 3*k, 9, 9, 0, 0, 2)
	}
	f.Add(fill)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		n := 2 + int(data[0]%14)
		policy := PlacementPolicy(int(data[1]) % 4)
		p := newIndexScanPair(t, n, policy, int64(data[0])+1)
		var live []string
		vmSeq := 0
		pos := 2
		// next returns 0 once the input is exhausted; the op loop below is
		// bounded by the input length, so a zero tail just runs cheap ops.
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		for op := 0; op < len(data) && pos < len(data); op++ {
			switch b := next(); b % 8 {
			case 0, 1, 2, 3: // launch
				vmSeq++
				size := restypes.V(float64(1+next()%12), float64(512*(1+int(next()%32))),
					float64(1+next()%100), float64(1+next()%100))
				spec := LaunchSpec{
					Name:    fmt.Sprintf("vm-%d", vmSeq),
					Size:    size,
					MinSize: size.Scale(float64(next()%100) / 100),
					AppKind: "elastic",
				}
				if next()%3 == 0 {
					spec.Priority = vm.HighPriority
					spec.MinSize = restypes.Vector{}
					spec.AppKind = "inelastic"
				}
				switch next() % 5 {
				case 0:
					spec.Substrate = "hypervisor"
				case 1:
					spec.Substrate = "container"
				}
				p.launchBoth(t, spec)
				if p.a.Placed(spec.Name) {
					live = append(live, spec.Name)
				}
				p.b.Placed(spec.Name)
			case 4: // release
				if len(live) == 0 {
					continue
				}
				i := int(next()) % len(live)
				name := live[i]
				live = append(live[:i], live[i+1:]...)
				p.a.Release(name)
				p.b.Release(name)
			case 5: // crash
				i := int(next()) % n
				p.crashA[i].crash()
				p.crashB[i].crash()
			case 6: // recover
				i := int(next()) % n
				p.crashA[i].recover()
				p.crashB[i].recover()
			case 7: // heartbeat round
				p.a.ProbeHealth()
				p.b.ProbeHealth()
				kept := live[:0]
				for _, name := range live {
					if _, ok := p.a.placement[name]; ok {
						kept = append(kept, name)
					}
				}
				live = kept
			}
		}
		p.verify(t)
	})
}

package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/substrate"
	"deflation/internal/telemetry"
	"deflation/internal/trace"
	"deflation/internal/vm"
)

// The placement index is the manager's only implementation of its
// policies, so these tests hold it to a reference model: the linear scans it
// replaced. A checked manager shows every index query to a queryChecker,
// which recomputes the answer by scan over the same fleet state and fails
// the test on any difference. Scripted chaos, membership changes, full
// simulations, remote fleets and fuzzed op streams all run checked.

// scanCapacity is the reference model's read of server i: its capacity, and
// whether it is in the pool — alive, with its capacity known.
func scanCapacity(m *Manager, i int) (*CapacitySummary, bool) {
	sum, known := m.servers[i].Capacity()
	return &sum, m.alive(i) && known
}

func scanFirstFit(m *Manager, spec LaunchSpec) int {
	for i := range m.servers {
		if c, ok := scanCapacity(m, i); ok && feasible(c, spec.Size, spec.Substrate) {
			return i
		}
	}
	return -1
}

func scanBestFit(m *Manager, spec LaunchSpec) int {
	best, bestFitness := -1, -1.0
	for i := range m.servers {
		c, ok := scanCapacity(m, i)
		if !ok || !feasible(c, spec.Size, spec.Substrate) {
			continue
		}
		if f := fitness(c, spec.Size); f > bestFitness {
			best, bestFitness = i, f
		}
	}
	return best
}

func scanWorstFit(m *Manager, spec LaunchSpec) int {
	best, bestRoom := -1, -1.0
	for i := range m.servers {
		c, ok := scanCapacity(m, i)
		if !ok || !feasible(c, spec.Size, spec.Substrate) {
			continue
		}
		if r := c.Free.Norm(); r > bestRoom {
			best, bestRoom = i, r
		}
	}
	return best
}

func scanPreemptFallback(m *Manager, spec LaunchSpec) int {
	best, bestCeiling := -1, restypes.Vector{}
	if spec.Priority != vm.HighPriority {
		return best
	}
	for i := range m.servers {
		c, ok := scanCapacity(m, i)
		if !ok || !preemptFeasible(c, spec.Size, spec.Substrate) {
			continue
		}
		if best < 0 || c.PreemptableCeiling.Norm() > bestCeiling.Norm() {
			best, bestCeiling = i, c.PreemptableCeiling
		}
	}
	return best
}

var leafKindNames = [...]string{"best-fit", "worst-fit", "first-fit", "preempt"}

// queryChecker is the seam's reference check (Manager.queried); n counts the
// queries it has checked.
type queryChecker struct {
	t testing.TB
	n int
}

func (c *queryChecker) check(m *Manager, kind leafKind, spec LaunchSpec, got int) {
	c.n++
	var want int
	switch kind {
	case leafBestFit:
		want = scanBestFit(m, spec)
	case leafWorstFit:
		want = scanWorstFit(m, spec)
	case leafFirstFit:
		want = scanFirstFit(m, spec)
	case leafPreempt:
		want = scanPreemptFallback(m, spec)
	}
	if got != want {
		c.t.Fatalf("%s query %d for %v (substrate %q, %v): index chose %d, scan chose %d",
			leafKindNames[kind], c.n, spec.Size, spec.Substrate, spec.Priority, got, want)
	}
	var unknown []int
	for i, s := range m.servers {
		if _, known := s.Capacity(); !known {
			unknown = append(unknown, i)
		}
	}
	if !slices.Equal(m.pidx.unknown, unknown) {
		c.t.Fatalf("query %d: index lists %v as unknown, the fleet %v", c.n, m.pidx.unknown, unknown)
	}
}

// checkedFleet is a checked manager over in-process servers, every third
// container-backed (mixed substrates exercise substrate-pinned leaves), all
// wrapped crashable. crash is kept in step with m.servers across membership
// changes.
type checkedFleet struct {
	t     testing.TB
	m     *Manager
	crash []*crashableNode
	check *queryChecker
	live  []string
	vms   int // VMs named so far
	nodes int // servers named so far
}

func newCheckedFleet(t testing.TB, n int, policy PlacementPolicy, seed int64) *checkedFleet {
	f := &checkedFleet{t: t, check: &queryChecker{t: t}}
	nodes := make([]Node, n)
	for i := range nodes {
		f.crash = append(f.crash, f.newNode(fmt.Sprintf("s%02d", i), i%3 == 2))
		nodes[i] = f.crash[i]
	}
	f.nodes = n
	f.m = newManager(nodes, policy, seed, f.check.check)
	return f
}

// newNode builds one empty 16-core server.
func (f *checkedFleet) newNode(name string, container bool) *crashableNode {
	capacity := restypes.V(16, 65536, 400, 400)
	var (
		sub substrate.Substrate
		err error
	)
	if container {
		sub, err = simcg.NewHost(simcg.Config{Name: name, Capacity: capacity})
	} else {
		sub, err = hypervisor.NewHost(hypervisor.Config{Name: name, Capacity: capacity})
	}
	if err != nil {
		f.t.Fatal(err)
	}
	return newCrashableNode(NewLocalController(sub, cascade.AllLevels(), ModeDeflation))
}

// launch places spec and tracks it while it runs.
func (f *checkedFleet) launch(spec LaunchSpec) {
	f.m.Launch(spec)
	if f.m.Placed(spec.Name) {
		f.live = append(f.live, spec.Name)
	}
}

// prune drops the VMs the manager no longer places (evicted, handed off).
func (f *checkedFleet) prune() {
	f.live = slices.DeleteFunc(f.live, func(name string) bool {
		_, ok := f.m.fold.Placements[name]
		return !ok
	})
}

// run drives the fleet through the op stream in data: launches (some
// high-priority, some substrate-pinned), releases, crashes, recoveries,
// heartbeat rounds, and the three membership changes — registering a fresh
// node, removing one, and re-registering one under a new URL with a fresh,
// empty controller behind it (an agent restarted elsewhere).
func (f *checkedFleet) run(data []byte) {
	pos := 0
	// next returns 0 once the input is exhausted; the loop below ends with
	// the input, so a zero tail just runs cheap ops.
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	pick := func() int { return int(next()) % len(f.crash) }
	for pos < len(data) {
		switch b := next(); b % 10 {
		case 0, 1, 2, 3: // launch: cpu mem disk net min% prio substrate
			f.vms++
			size := restypes.V(float64(1+next()%12), float64(512*(1+int(next()%32))),
				float64(1+next()%100), float64(1+next()%100))
			spec := LaunchSpec{
				Name:    fmt.Sprintf("vm-%d", f.vms),
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
			f.launch(spec)
		case 4: // release
			if len(f.live) == 0 {
				continue
			}
			i := int(next()) % len(f.live)
			f.m.Release(f.live[i])
			f.live = slices.Delete(f.live, i, i+1)
		case 5:
			f.crash[pick()].crash()
		case 6:
			f.crash[pick()].recover()
		case 7:
			f.m.ProbeHealth()
			f.prune()
		case 8: // register a fresh node
			name := fmt.Sprintf("s%02d", f.nodes)
			c := f.newNode(name, f.nodes%3 == 2)
			f.nodes++
			if err := f.m.AddNode(c, "http://"+name); err != nil {
				f.t.Fatal(err)
			}
			f.crash = append(f.crash, c)
		case 9: // re-register under a new URL
			i := pick()
			name := f.m.servers[i].Name()
			f.nodes++
			f.crash[i] = f.newNode(name, next()%3 == 2)
			if err := f.m.AddNode(f.crash[i], fmt.Sprintf("http://%s/%d", name, f.nodes)); err != nil {
				f.t.Fatal(err)
			}
		}
	}
}

// TestPlacementIndexScanEquivalence replays randomized chaos workloads —
// launches, preemptions, releases, crashes, evacuations and membership
// changes — through a checked manager for every placement policy.
func TestPlacementIndexScanEquivalence(t *testing.T) {
	seeds, ops := 12, 400
	if testing.Short() {
		seeds, ops = 3, 150
	}
	for _, policy := range []PlacementPolicy{BestFit, FirstFit, TwoChoices, WorstFit} {
		t.Run(policy.String(), func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				data := make([]byte, 4*ops) // ≈4 bytes per op
				rand.New(rand.NewSource(seed)).Read(data)
				// 17 servers: odd, non-power-of-two, so the trees have padding.
				f := newCheckedFleet(t, 17, policy, seed)
				f.run(data)
				if f.check.n == 0 {
					t.Fatalf("seed %d: no query checked", seed)
				}
			}
		})
	}
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
		kind   leafKind
		hogged func(i, hi int) bool           // which servers carry cpuHog
		score  func(*CapacitySummary) float64 // the policy's value
	}{
		// Best-fit: the one server with a hog fits the demand best.
		{leafBestFit, func(i, hi int) bool { return i == hi },
			func(c *CapacitySummary) float64 { return fitness(c, demand.Size) }},
		// Worst-fit and the preemption fallback: the one server without a
		// hog has the most free room and the largest preemptable ceiling.
		{leafWorstFit, func(i, hi int) bool { return i != hi },
			func(c *CapacitySummary) float64 { return c.Free.Norm() }},
		{leafPreempt, func(i, hi int) bool { return i != hi },
			func(c *CapacitySummary) float64 { return c.PreemptableCeiling.Norm() }},
	} {
		t.Run(leafKindNames[tc.kind], func(t *testing.T) {
			for hi := 1; hi < n; hi++ {
				f := newCheckedFleet(t, n, BestFit, 1)
				m := f.m
				for i := 0; i < n; i++ {
					if tc.hogged(i, hi) {
						if _, err := f.crash[i].Launch(cpuHog); err != nil {
							t.Fatal(err)
						}
					}
				}
				score := func(s Node) float64 {
					c := capOf(s)
					return tc.score(&c)
				}
				rest := score(m.servers[0])
				for i, s := range m.servers {
					switch v := score(s); {
					case i == hi && v <= rest:
						t.Fatalf("server %d scores %v, not above the others' %v", hi, v, rest)
					case i != hi && v != rest:
						t.Fatalf("servers %d and 0 score %v and %v", i, v, rest)
					}
				}
				pick := func(when string, want int) {
					t.Helper()
					if got := m.pidx.query(tc.kind, demand); got != want {
						t.Fatalf("server %d %s: index chose %d, want %d", hi, when, got, want)
					}
				}
				pick("alive", hi)
				m.emit(Event{Kind: NodeDown, Node: m.servers[hi].Name()})
				pick("dead", 0)
				m.emit(Event{Kind: NodeUp, Node: m.servers[hi].Name()})
				m.bar(hi)
				pick("barred", 0)
				m.clearBars()
				pick("alive again", hi)
			}
		})
	}
}

// TestPlacementIndexDemandTreeEviction cycles through more distinct demands
// than the index keeps trees for, so trees are evicted, refilled into reused
// arrays and refreshed by flush in between, under launches, releases,
// crashes and recoveries. Every
// fifth launch is high-priority on a fleet full enough that the preemption
// fallback runs, so a preempt tree and a policy tree for the same demand are
// held side by side and compete for the same slots. Every query must match
// the scan's.
func TestPlacementIndexDemandTreeEviction(t *testing.T) {
	const n = 13
	type treeKey struct {
		kind leafKind
		size restypes.Vector
		sub  string
	}
	for _, policy := range []PlacementPolicy{BestFit, FirstFit, WorstFit} {
		t.Run(policy.String(), func(t *testing.T) {
			f := newCheckedFleet(t, n, policy, 5)
			substrates := []string{"", "hypervisor", "container"}
			distinct := map[string]bool{}
			held := map[treeKey]bool{}
			var sideBySide, preemptEvicted bool
			for i := 0; i < 600; i++ {
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
				f.launch(spec)
				switch i % 5 {
				case 1, 3:
					if len(f.live) > 0 {
						j := (i * 31) % len(f.live)
						f.m.Release(f.live[j])
						f.live = slices.Delete(f.live, j, j+1)
					}
				case 2:
					if c := f.crash[(i*17)%n]; i%2 == 0 {
						c.crash()
					} else {
						c.recover()
					}
				}
				trees := f.m.pidx.demands
				if len(trees) > pidxDemandTrees {
					t.Fatalf("index holds %d demand trees, limit %d", len(trees), pidxDemandTrees)
				}
				now := map[treeKey]bool{}
				for _, tr := range trees {
					now[treeKey{tr.kind, tr.size, tr.substrate}] = true
				}
				for key := range held {
					preemptEvicted = preemptEvicted || key.kind == leafPreempt && !now[key]
				}
				for _, a := range trees {
					for _, b := range trees {
						sideBySide = sideBySide || a.kind == leafPreempt && b.kind != leafPreempt &&
							a.size == b.size && a.substrate == b.substrate
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
			s, err := newSim(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.LatentPlacements == 0 {
				t.Fatal("the cell never saturated: no placement paid reclaim latency")
			}
			x := s.mgr.pidx
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
			s, err := newSim(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.ManagerCrashes+res.Failovers < 2 {
				t.Fatalf("%d manager crashes, %d failovers: the cell replaced no manager twice",
					res.ManagerCrashes, res.Failovers)
			}
			for i, c := range s.servers {
				if got := len(c.watchers); got != 2 {
					t.Fatalf("server %d ends with %d capacity watchers after %d crashes and %d failovers, want 2",
						i, got, res.ManagerCrashes, res.Failovers)
				}
			}
		})
	}
}

// TestPlacementIndexFullChaosSimEquivalence runs entire chaos simulations
// checked: node crashes, agent faults, manager crash-restart recovery from
// the WAL (whose reconciliation re-places VMs), migrations, and HA failovers.
// Every query of every manager the run builds must match the scan.
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

		ff := chaosSim()
		ff.Policy = FirstFit
		configs["first-fit"] = ff

		wf := chaosSim()
		wf.Policy = WorstFit
		configs["worst-fit"] = wf
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			check := &queryChecker{t: t}
			s, err := newSim(cfg, check.check)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			if check.n < res.LowPriorityStarted {
				t.Fatalf("%d queries checked for %d low-priority admissions", check.n, res.LowPriorityStarted)
			}
		})
	}
}

// TestPlacementIndexSurvivesMembershipChange: registering a node and
// re-registering one under a new URL each rebuild the index over
// the new fleet, subscribed to the new node objects and to no old one, and
// every query after each change matches the scan. Worst-fit sends the first
// launch after a registration to the new, empty node, so an index that
// missed it would disagree with the scan there.
func TestPlacementIndexSurvivesMembershipChange(t *testing.T) {
	f := newCheckedFleet(t, 4, WorstFit, 1)
	fill := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			f.vms++
			f.launch(LaunchSpec{Name: fmt.Sprintf("vm-%d", f.vms), Size: restypes.V(2, 4096, 20, 20),
				MinSize: restypes.V(1, 1024, 5, 5), AppKind: "elastic"})
		}
	}
	indexed := func(what string, gone *crashableNode) {
		t.Helper()
		if x := f.m.pidx; x.n != len(f.m.servers) || !slices.Equal(x.servers, f.m.servers) {
			t.Fatalf("after %s the index covers %d servers, the fleet %d", what, x.n, len(f.m.servers))
		}
		for i, c := range f.crash {
			if got := len(c.watchers); got != 1 {
				t.Fatalf("after %s server %d has %d watchers, want the index alone", what, i, got)
			}
		}
		if gone != nil && len(gone.watchers) != 0 {
			t.Fatalf("after %s the node that left still has %d watchers", what, len(gone.watchers))
		}
		before := f.check.n
		fill(6)
		if f.check.n < before+6 {
			t.Fatalf("after %s: %d queries checked for 6 launches", what, f.check.n-before)
		}
	}
	fill(8)

	fresh := f.newNode("s04", false)
	if err := f.m.AddNode(fresh, "http://s04"); err != nil {
		t.Fatal(err)
	}
	f.crash = append(f.crash, fresh)
	f.vms++
	spec := LaunchSpec{Name: fmt.Sprintf("vm-%d", f.vms), Size: restypes.V(2, 4096, 20, 20), AppKind: "elastic"}
	if idx, _, err := f.m.Launch(spec); err != nil || f.m.servers[idx] != Node(fresh) {
		t.Fatalf("worst-fit after registering an empty node: server %d, %v", idx, err)
	}
	indexed("AddNode", nil)

	gone := f.crash[1]
	f.crash[1] = f.newNode(f.m.servers[1].Name(), false)
	if err := f.m.AddNode(f.crash[1], "http://s01-moved"); err != nil {
		t.Fatal(err)
	}
	indexed("re-registration", gone)
}

// TestPlacementIndexRemoteFleetEquivalence runs a checked manager over
// RemoteNodes: four agents behind httptest servers, placed from summaries a
// second writer keeps stale, plus an agent that never answers. One agent
// goes dark for a stretch, so its cache turns unknown and known again. Every
// query — stale-refusal re-picks and preemption fallbacks included — must
// match the scan, and the unreachable agent is probed, skipped and never
// chosen.
func TestPlacementIndexRemoteFleetEquivalence(t *testing.T) {
	fleet := newCountedFleet(t, 4)
	dark := fleet[3]
	defer dark.hole.Store(false) // let the server close
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	policy := RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, OpTimeout: 20 * time.Millisecond}
	nodes := append(coldNodes(fleet, policy), NewRemoteNodeNamed("unreachable", dead.URL, policy))
	check := &queryChecker{t: t}
	m := newManager(nodes, BestFit, 3, check.check)
	sink := telemetry.NewSink()
	m.SetTelemetry(sink)
	rng := rand.New(rand.NewSource(3))
	var live []string
	for step := 0; step < 200; step++ {
		dark.hole.Store(step >= 80 && step < 120)
		switch r := rng.Intn(10); {
		case r < 5:
			name := fmt.Sprintf("m-%d", step)
			if idx, _, err := m.Launch(wireSpec(name, vm.Priority(rng.Intn(2)))); err == nil {
				if idx == len(fleet) {
					t.Fatalf("step %d: placed on the unreachable agent", step)
				}
				live = append(live, name)
			}
		case r < 7:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				m.Release(live[i])
				live = slices.Delete(live, i, i+1)
			}
		case r < 9: // a second writer the manager never sees
			foreign := wireSpec(fmt.Sprintf("f-%d", step), vm.LowPriority)
			foreign.MinSize = foreign.Size
			if a := fleet[rng.Intn(len(fleet))]; !a.hole.Load() {
				a.do(t, http.MethodPost, "/v1/vms", foreign)
			}
		default:
			m.ProbeHealth()
		}
	}
	refusals := counterValue(sink, "deflation_launch_stale_refusals_total", nil)
	if check.n < 100 || refusals == 0 || m.Preemptions() == 0 {
		t.Errorf("script exercised too little: %d queries, %v stale refusals, %d preemptions",
			check.n, refusals, m.Preemptions())
	}
}

// FuzzPlacementIndex feeds fuzzed fleet sizes, policies and op streams
// through a checked manager (see checkedFleet.run).
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
	// Membership churn on a loaded worst-fit fleet: register two nodes, hand
	// one off, re-register another under a new URL, and launch between each,
	// so every rebuilt index is queried over the changed fleet.
	churn := []byte{0x03, 0x03}
	launch := []byte{0, 3, 7, 9, 9, 50, 1, 2}
	for k := 0; k < 6; k++ {
		churn = append(churn, launch...)
	}
	for _, op := range [][]byte{{8}, {8}, {9, 1}, {10, 0, 1}, {7}, {9, 0}, {10, 2, 2}} {
		churn = append(churn, op...)
		churn = append(churn, launch...)
		churn = append(churn, launch...)
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		newCheckedFleet(t, 2+int(data[0]%14), PlacementPolicy(int(data[1])%4), int64(data[0])+1).run(data[2:])
	})
}

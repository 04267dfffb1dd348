package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/stats"
	"deflation/internal/substrate"
	"deflation/internal/trace"
	"deflation/internal/vm"
)

// TestSamplerMemoMatchesFullWalk runs every golden cell with the sampler's
// check hook doing, at the end of each pass, the walk the sampler replaced —
// every server, every VM, Throughput() recomputed — and requires the exact
// same three sums, so the prefix a pass resumed from is checked too. The
// pass's server-overcommitment mean and p95, and its sorted per-server
// values, must equal the leader's Snapshot exactly. The full walk also
// re-runs Env()'s everTouched refresh on the servers the sampler skipped, so
// the run's SimResult matching an unchecked run shows that skipping them
// changes nothing later either.
func TestSamplerMemoMatchesFullWalk(t *testing.T) {
	for _, c := range goldenCells() {
		t.Run(c.name, func(t *testing.T) {
			sm, err := newSim(c.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := sm.sampler
			passes, mismatches := 0, 0
			s.check = func(gp, tpSum float64, tpN int) {
				passes++
				snap := sm.mgr.Snapshot()
				mean, p95 := s.srvMean[len(s.srvMean)-1], s.srvP95[len(s.srvP95)-1]
				wantP95 := stats.Quantile(snap.ServerOvercommitment, 0.95)
				if mean != snap.MeanOvercommitment || p95 != wantP95 || !slices.Equal(s.sortedOC, snap.ServerOvercommitment) {
					if mismatches++; mismatches <= 3 {
						t.Errorf("pass %d: sampler mean=%v p95=%v sorted=%v, Snapshot mean=%v p95=%v sorted=%v",
							passes, mean, p95, s.sortedOC, snap.MeanOvercommitment, wantP95, snap.ServerOvercommitment)
					}
				}
				var wantGp, wantTpSum float64
				wantTpN := 0
				for _, srv := range s.servers {
					for _, v := range srv.VMs() {
						wantGp += v.Throughput()
						if v.Priority() == vm.LowPriority {
							wantTpSum += v.Throughput()
							wantTpN++
						}
					}
				}
				if gp != wantGp || tpSum != wantTpSum || tpN != wantTpN {
					if mismatches++; mismatches <= 3 {
						t.Errorf("pass %d: memo gp=%v tpSum=%v tpN=%d, full walk gp=%v tpSum=%v tpN=%d",
							passes, gp, tpSum, tpN, wantGp, wantTpSum, wantTpN)
					}
				}
			}
			checked, err := sm.run()
			if err != nil {
				t.Fatal(err)
			}
			plain, err := RunSim(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if checked != plain {
				t.Errorf("the full walk perturbed the run:\nchecked: %+v\nplain:   %+v", checked, plain)
			}
			if passes == 0 {
				t.Fatal("the sampler never ran a pass")
			}
			perPass := float64(s.evaluated) / float64(passes)
			t.Logf("%d passes, %.2f of %d servers re-evaluated per pass", passes, perPass, len(s.servers))
			// One admission touches the server it lands on, one departure the
			// server it leaves; crashes and migrations add a few. Anything near
			// the fleet size means an invalidation fires when nothing changed.
			if perPass > float64(len(s.servers))/4 {
				t.Errorf("%.2f of %d servers re-evaluated per pass: the memo is not saving the walk", perPass, len(s.servers))
			}
		})
	}
}

// observedState is everything a watcher must announce a change of: which
// VMs the server runs, each one's allocation and throughput, and the host's
// allocated and free capacity (free also moves with stream reservations).
type observedState struct {
	allocated, free restypes.Vector
	vms             map[string]observedVM
}

type observedVM struct {
	v          *vm.VM
	gen        uint64
	alloc      restypes.Vector
	throughput float64
}

func observe(c *LocalController) observedState {
	st := observedState{c.host.Allocated(), c.host.FreePhysical(), map[string]observedVM{}}
	for _, v := range c.VMs() {
		st.vms[v.Name()] = observedVM{v, v.Generation(), v.Allocation(), v.Throughput()}
	}
	return st
}

func (a observedState) equal(b observedState) bool {
	if a.allocated != b.allocated || a.free != b.free || len(a.vms) != len(b.vms) {
		return false
	}
	for name, v := range a.vms {
		if w, ok := b.vms[name]; !ok || v.v != w.v || v.alloc != w.alloc || v.throughput != w.throughput {
			return false
		}
	}
	return true
}

// staleGeneration names a VM that is the same VM in a and b, with a
// different throughput and the same generation: the sampler would keep its
// old throughput.
func (a observedState) staleGeneration(b observedState) string {
	for name, v := range a.vms {
		if w, ok := b.vms[name]; ok && v.v == w.v && v.gen == w.gen && v.throughput != w.throughput {
			return name
		}
	}
	return ""
}

// throttled reports whether some VM of a is in b with less network.
func (a observedState) throttled(b observedState) bool {
	for name, v := range a.vms {
		if w, ok := b.vms[name]; ok && w.alloc.NetMBps < v.alloc.NetMBps {
			return true
		}
	}
	return false
}

// TestCapacityWatchersSeeEveryChange is the completeness half of the
// sampler's invariant: capacityChanged is its server-level invalidation
// signal, so after every mutating call on a LocalController (and the
// ControllerAPI's direct cascade deflate), if any VM's throughput or
// allocation, the VM set, or the host's allocated or free capacity differs
// from before the call, a watcher must have fired. Reads must never fire
// one. (The converse does not hold and is not wanted: a reinflation that
// found nothing to give, or FailAll on an empty server, still announce
// themselves.) Within a server the sampler keeps a VM's throughput while its
// vm.VM.Generation stands, so every VM whose throughput a call changed must
// also have a new generation — the migration stream's throttle and restore
// included, which resize VMs outside any cascade.
func TestCapacityWatchersSeeEveryChange(t *testing.T) {
	capacity := restypes.V(16, 65536, 400, 400)
	newHost := func(kind substrate.Kind, name string) (substrate.Substrate, error) {
		if kind == substrate.KindContainer {
			return simcg.NewHost(simcg.Config{Name: name, Capacity: capacity})
		}
		return hypervisor.NewHost(hypervisor.Config{Name: name, Capacity: capacity})
	}
	for _, kind := range []substrate.Kind{substrate.KindHypervisor, substrate.KindContainer} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				// Two servers so Checkpoint+RestoreVM has somewhere to go.
				var ctrls [2]*LocalController
				for i, name := range []string{"a", "b"} {
					h, err := newHost(kind, name)
					if err != nil {
						t.Fatal(err)
					}
					ctrls[i] = NewLocalController(h, cascade.AllLevels(), ModeDeflation)
				}
				var fired [2]int
				var apis [2]*ControllerAPI
				throttles := 0
				for i, c := range ctrls {
					c.WatchCapacity(func() { fired[i]++ })
					api, err := NewControllerAPI(c)
					if err != nil {
						t.Fatal(err)
					}
					apis[i] = api
				}
				pick := func(c *LocalController) *vm.VM {
					if vms := c.VMs(); len(vms) > 0 {
						return vms[rng.Intn(len(vms))]
					}
					return nil
				}
				next := 0
				for step := 0; step < 400; step++ {
					i := rng.Intn(2)
					c, other := ctrls[i], ctrls[1-i]
					before := [2]observedState{observe(ctrls[0]), observe(ctrls[1])}
					firedBefore := fired
					op := "read"
					switch rng.Intn(14) {
					case 0, 1, 2, 3:
						op = "launch"
						cpu := float64(1 + rng.Intn(4))
						size := restypes.V(cpu, cpu*4096, 25*cpu, 25*cpu)
						s := LaunchSpec{
							Name: fmt.Sprintf("v%d", next), Size: size, MinSize: size.Scale(0.25),
							Priority: vm.LowPriority, AppKind: "elastic", Warm: rng.Intn(2) == 0,
						}
						if rng.Intn(5) == 0 {
							s.Priority, s.MinSize, s.AppKind = vm.HighPriority, restypes.Vector{}, "inelastic"
						}
						next++
						_, _, _ = c.LaunchVM(s) // may legitimately fail when full
					case 4:
						op = "reclaim"
						_, _ = c.Reclaim(capacity.Scale(rng.Float64()/2), rng.Intn(2) == 0)
					case 5:
						op = "release"
						if v := pick(c); v != nil {
							if err := c.Release(v.Name()); err != nil {
								t.Fatal(err)
							}
						}
					case 6:
						op = "reinflate"
						c.ReinflateAll()
					case 7:
						op = "preempt"
						if v := pick(c); v != nil && v.Priority() == vm.LowPriority {
							c.preemptInternal(v)
						}
					case 8:
						op = "stream"
						stream := fmt.Sprintf("s%d", rng.Intn(3))
						if rng.Intn(2) == 0 {
							_, _ = c.ReserveStream(stream, 100+400*rng.Float64())
						} else if err := c.ReleaseStream(stream); err != nil {
							t.Fatal(err)
						}
					case 9:
						op = "migrate"
						if v := pick(c); v != nil {
							cp, err := c.Checkpoint(v.Name())
							if err != nil {
								t.Fatal(err)
							}
							if other.RestoreVM(cp) == nil {
								if err := c.Release(v.Name()); err != nil {
									t.Fatal(err)
								}
							}
						}
					case 10:
						op = "deflate-fully"
						if v := pick(c); v != nil {
							_, _ = c.DeflateFully(v.Name())
						}
					case 11:
						op = "api-deflate"
						if v := pick(c); v != nil && v.Priority() == vm.LowPriority {
							_, _, _ = apis[i].deflate(v.Name(), "", v.Deflatable().Scale(rng.Float64()))
						}
					case 12:
						if rng.Intn(8) == 0 {
							op = "fail-all"
							c.FailAll()
						}
					default:
						c.Free()
						c.Capacity()
						c.VMs()
						_, _ = c.Inventory()
						_, _ = c.Has("v0")
						if v := pick(c); v != nil {
							_, _ = c.Checkpoint(v.Name())
						}
					}
					for j, cj := range ctrls {
						after := observe(cj)
						changed := !after.equal(before[j])
						notified := fired[j] != firedBefore[j]
						if changed && !notified {
							t.Fatalf("step %d: %s changed server %s and no capacity watcher fired", step, op, cj.Name())
						}
						if name := before[j].staleGeneration(after); name != "" {
							t.Fatalf("step %d: %s changed %s's throughput on server %s and not its generation", step, op, name, cj.Name())
						}
						if op == "stream" && before[j].throttled(after) {
							throttles++
						}
						if op == "read" && notified {
							t.Fatalf("step %d: a read fired server %s's capacity watchers", step, cj.Name())
						}
					}
				}
				if next == 0 || fired == [2]int{} {
					t.Fatal("the script never launched anything")
				}
				if throttles == 0 {
					t.Fatal("no migration stream ever throttled a VM")
				}
			})
		}
	}
}

// TestSimAllocBudget holds the simulator's allocation rate, an exact count
// that timing noise cannot blur: a quick Fig. 8c cell (saturated, sampled on
// every admission) must stay within 6.5 heap allocations per trace event.
// Sorting a host's domain table on every free-capacity read cost 121;
// per-reclaim VM lists, sort swappers and append-grown reports kept it at
// 21.4, and substrate.Table's copy-on-write arrays and the sampler's
// per-pass Snapshot at 16.6. Queuing the whole trace in the event calendar,
// a closure per arrival for its app and its departure, an escaping launch
// spec and a separately allocated guest per domain held it at 13.0; arrivals
// now stream through simclock.Feed and departures are typed events; at
// 6.8, a deflating launch still listed the names of the VMs it deflated;
// at 6.1, each refused launch formatted its error text. The ≈5.8 left is
// state that outlives its event: each launched VM's instance, domain and
// app, the manager's spec record and trace generation.
// The budget is tight enough to catch that list coming back, or one closure
// per admission, such as a method value evaluated at each AtIndex (+0.8).
func TestSimAllocBudget(t *testing.T) {
	cfg := saturatedCell()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunSim(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(cfg.Trace.Count)
	budget := 6.5 + raceAllocAllowance
	t.Logf("%.1f allocs/event", perEvent)
	if perEvent > budget {
		t.Errorf("%.1f allocs/event, budget %.1f", perEvent, budget)
	}
}

// saturatedCell is a quick Fig. 8c cell: 20 servers loaded to 1.6× their
// capacity and sampled on every admission, so most launches deflate and
// most releases reinflate.
func saturatedCell() SimConfig {
	return SimConfig{
		Servers:          20,
		TargetOvercommit: 1.6,
		Seed:             11,
		Trace:            trace.Config{Count: 4000, MeanInterarrival: 10 * time.Second},
	}
}

// BenchmarkSaturatedCell runs saturatedCell end to end: the deflating
// path (the cascade on every deflating launch and release, the host's
// growth admission, the state sampler) that BenchmarkSimCoreSimulation's
// cell, which never deflates, cannot see. Profile it with -cpuprofile.
func BenchmarkSaturatedCell(b *testing.B) {
	cfg := saturatedCell()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSim(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	events := float64(b.N) * float64(cfg.Trace.Count)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/events, "allocs/event")
}

// raceAllocAllowance is what the race detector adds to TestSimAllocBudget's
// count; race_test.go sets it in race builds.
var raceAllocAllowance float64

package main

import (
	"errors"
	"fmt"
	"time"

	"deflation/internal/apps/curveapp"
	"deflation/internal/cascade"
	"deflation/internal/cluster"
	"deflation/internal/hypervisor"
	"deflation/internal/perfmodel"
	"deflation/internal/restypes"
	"deflation/internal/simclock"
	"deflation/internal/stats"
	"deflation/internal/telemetry"
	"deflation/internal/trace"
	"deflation/internal/vm"
)

// Span names of the sim replay; the modules are the layers.
const (
	spReplay int32 = iota
	spFleetBuild
	spTraceGenerate
	spClockRun
	spManagerLaunch
	spNodeLaunch
	spAppNew
	spManagerRelease
	spNodeRelease
	spSamplerPass
	spManagerSnapshot
)

var simSpanNames = []string{
	"replay", "fleet.build", "trace.generate", "simclock.run", "manager.launch", "node.launch",
	"app.new", "manager.release", "node.release", "sampler.pass", "manager.snapshot",
}

// tracedNode spans the two calls the manager makes into a server. Embedding
// the controller keeps WatchCapacity and SubstrateKind promoted, so the
// manager still builds its placement index over these nodes.
type tracedNode struct {
	*cluster.LocalController
	rec *recorder
}

func (n tracedNode) Launch(spec cluster.LaunchSpec) (cluster.LaunchReport, error) {
	s := n.rec.begin(spNodeLaunch)
	rep, err := n.LocalController.Launch(spec)
	n.rec.end(s)
	return rep, err
}

func (n tracedNode) Release(name string) error {
	s := n.rec.begin(spNodeRelease)
	err := n.LocalController.Release(name)
	n.rec.end(s)
	return err
}

// replayStats are the counts the replay takes at the layer boundaries.
type replayStats struct {
	Launched  int // Manager.Launch calls that placed a VM
	Released  int // Manager.Release calls
	VMsWalked int // VMs the sampler visited, over all passes
}

// replay drives cfg's generated trace through the public functions that
// cluster.RunSim's zero-fault path calls, in its order, with a span around
// each call into a layer. cfg must carry every value explicitly (simConfig
// does); the replay applies no defaults. The started / preempted / rejected /
// latent-placement counts it returns must equal RunSim's.
func replay(cfg cluster.SimConfig, rec *recorder, sink *telemetry.Sink) (cluster.SimResult, replayStats, error) {
	var (
		res cluster.SimResult
		st  replayStats
	)
	root := rec.begin(spReplay)
	defer rec.end(root)

	s := rec.begin(spFleetBuild)
	servers := make([]*cluster.LocalController, cfg.Servers)
	nodes := make([]cluster.Node, cfg.Servers)
	for i := range servers {
		h, err := hypervisor.NewHost(hypervisor.Config{Name: fmt.Sprintf("server-%03d", i), Capacity: cfg.ServerCapacity})
		if err != nil {
			return res, st, err
		}
		servers[i] = cluster.NewLocalController(h, cascade.AllLevels(), cfg.Mode)
		servers[i].SetTelemetry(sink)
		nodes[i] = tracedNode{servers[i], rec}
	}
	mgr, err := cluster.NewManager(nodes, cfg.Policy, cfg.Seed)
	rec.end(s)
	if err != nil {
		return res, st, err
	}

	s = rec.begin(spTraceGenerate)
	events, err := trace.Generate(cfg.Trace)
	rec.end(s)
	if err != nil {
		return res, st, err
	}

	totalCapacity := cfg.ServerCapacity.Scale(float64(cfg.Servers))
	curves := []*perfmodel.UtilityCurve{perfmodel.CurveSparkKmeans, perfmodel.CurveMemcached, perfmodel.CurveSpecJBB}
	classTarget := cfg.TargetOvercommit / 2
	running := make(map[string]trace.Event)
	var nominalHigh, nominalLow restypes.Vector
	warmup := len(events) / 4
	nSamples := (len(events)-warmup)/cfg.SampleEvery + 1
	ocSamples := make([]float64, 0, nSamples)
	srvMeanSamples := make([]float64, 0, nSamples)
	srvP95Samples := make([]float64, 0, nSamples)
	lowTpSamples := make([]float64, 0, nSamples)
	gpSamples := make([]float64, 0, nSamples)
	admitted := 0
	var simErr error
	clock := simclock.New()

	depart := func(name string) {
		e, ok := running[name]
		s := rec.begin(spManagerRelease)
		defer rec.end(s)
		if !ok || !mgr.Placed(name) {
			return // preempted earlier
		}
		delete(running, name)
		if e.HighPriority {
			nominalHigh = nominalHigh.Sub(e.Size)
		} else {
			nominalLow = nominalLow.Sub(e.Size)
		}
		st.Released++
		if err := mgr.Release(name); err != nil && !errors.Is(err, cluster.ErrNodeDown) && simErr == nil {
			simErr = err
		}
	}

	arrive := func(e trace.Event) {
		classNominal := nominalLow
		if e.HighPriority {
			classNominal = nominalHigh
		}
		if overcommitOf(classNominal, totalCapacity) >= classTarget {
			return // class already at its share of the target
		}
		prio, minSize, appKind := vm.LowPriority, e.Size.Scale(cfg.MinSizeFraction), "elastic"
		if e.HighPriority {
			prio, minSize, appKind = vm.HighPriority, restypes.Vector{}, "inelastic"
		}
		curve := curves[admitted%len(curves)]
		spec := cluster.LaunchSpec{
			Name: e.ID, Size: e.Size, MinSize: minSize, Priority: prio, Warm: true, AppKind: appKind,
			NewApp: func(size restypes.Vector) vm.Application {
				s := rec.begin(spAppNew)
				defer rec.end(s)
				return curveapp.New(curveapp.Config{Curve: curve, Size: size, Elastic: !e.HighPriority})
			},
		}
		s := rec.begin(spManagerLaunch)
		_, rep, err := mgr.Launch(spec)
		rec.end(s)
		for _, name := range rep.Preempted {
			if p, ok := running[name]; ok {
				delete(running, name)
				nominalLow = nominalLow.Sub(p.Size) // only lows are preemptible
			}
		}
		if err != nil {
			res.Rejections++
			return
		}
		st.Launched++
		if rep.ReclaimLatency > 0 {
			res.LatentPlacements++
		}
		running[e.ID] = e
		if e.HighPriority {
			nominalHigh = nominalHigh.Add(e.Size)
		} else {
			res.LowPriorityStarted++
			nominalLow = nominalLow.Add(e.Size)
		}
		name := e.ID
		clock.After(e.Lifetime, func(time.Duration) { depart(name) })

		admitted++
		if admitted >= warmup && (admitted-warmup)%cfg.SampleEvery == 0 {
			s := rec.begin(spSamplerPass)
			ocSamples = append(ocSamples, overcommitOf(nominalHigh.Add(nominalLow), totalCapacity))
			ss := rec.begin(spManagerSnapshot)
			snap := mgr.Snapshot()
			rec.end(ss)
			srvMeanSamples = append(srvMeanSamples, snap.MeanOvercommitment)
			srvP95Samples = append(srvP95Samples, stats.Quantile(snap.ServerOvercommitment, 0.95))
			var tpSum, gp float64
			tpN := 0
			for _, srv := range servers {
				vms := srv.VMs()
				st.VMsWalked += len(vms)
				for _, v := range vms {
					gp += v.Throughput()
					if v.Priority() == vm.LowPriority {
						tpSum += v.Throughput()
						tpN++
					}
				}
			}
			if tpN > 0 {
				lowTpSamples = append(lowTpSamples, tpSum/float64(tpN))
			}
			gpSamples = append(gpSamples, gp)
			rec.end(s)
		}
	}

	s = rec.begin(spClockRun)
	for _, e := range events {
		e := e
		clock.At(e.Arrival, func(time.Duration) { arrive(e) })
	}
	clock.Run()
	rec.end(s)
	if simErr != nil {
		return res, st, simErr
	}
	res.Preemptions = mgr.Preemptions()
	res.AchievedOvercommit = stats.Mean(ocSamples)
	res.ServerOvercommitMean = stats.Mean(srvMeanSamples)
	res.ServerOvercommitP95 = stats.Mean(srvP95Samples)
	res.MeanLowThroughput = stats.Mean(lowTpSamples)
	res.Goodput = stats.Mean(gpSamples)
	return res, st, nil
}

// overcommitOf is nominal load against capacity on the binding dimension, as
// RunSim's admission check computes it.
func overcommitOf(nominal, capacity restypes.Vector) float64 {
	if capacity.CPU == 0 || capacity.MemoryMB == 0 {
		return 0
	}
	return max(nominal.CPU/capacity.CPU, nominal.MemoryMB/capacity.MemoryMB)
}

package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"syscall"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/restypes"
	"deflation/internal/telemetry"
	"deflation/internal/trace"
)

// simWorkload is one saturated simulation cell. The shape (servers, load per
// server, sampling cadence) is fixed; only the trace length follows the
// measuring time, at the reference ratio RefEvents per RefSeconds that makes
// three back-to-back calls fill the window on the reference host.
type simWorkload struct {
	Servers      int           `json:"servers"`
	Interarrival time.Duration `json:"mean_interarrival_ns"`
	SampleEvery  int           `json:"sample_every"`
	RefEvents    int           `json:"ref_events"`
	RefSeconds   int           `json:"ref_seconds"`
}

var simWorkloads = map[string]simWorkload{
	// Fig. 8c's load on 100 servers, sampled on every admission.
	"sim_fig8c": {Servers: 100, Interarrival: 2 * time.Second, SampleEvery: 1, RefEvents: 40000, RefSeconds: 24},
	// The same per-server load on 1000 servers, sampled as the 8c-xl sweep does.
	"sim_xl": {Servers: 1000, Interarrival: 200 * time.Millisecond, SampleEvery: 250, RefEvents: 100000, RefSeconds: 30},
}

const (
	simCalls       = 3    // back-to-back RunSim calls per run; the metric is their median
	simWarmEvents  = 2000 // the warm-up call that is this workload's set-up
	simSetupRepeat = 3
)

// quick shrinks the fleet for -quick and thins the arrivals with it, so the
// load per server, and with it saturation, is unchanged.
func (w simWorkload) quick() simWorkload {
	w.Servers /= quickScale
	w.Interarrival *= quickScale
	return w
}

// events is the trace length for a measuring window of the given seconds.
func (w simWorkload) events(seconds float64) int {
	n := int(float64(w.RefEvents)*seconds/float64(w.RefSeconds)/100) * 100
	return max(n, simWarmEvents)
}

// simConfig spells out every value RunSim would otherwise default, so RunSim
// and the replay driver run the same cell.
func (w simWorkload) simConfig(seed int64, events int) cluster.SimConfig {
	return cluster.SimConfig{
		Servers:          w.Servers,
		ServerCapacity:   restypes.V(32, 131072, 4000, 4000),
		Policy:           cluster.BestFit,
		Mode:             cluster.ModeDeflation,
		TargetOvercommit: 1.6,
		MinSizeFraction:  0.10,
		Trace:            trace.Config{Seed: seed + 1, Count: events, MeanInterarrival: w.Interarrival},
		Seed:             seed,
		SampleEvery:      w.SampleEvery,
	}
}

// usage is the process's cumulative heap allocation and CPU time.
type usage struct {
	mallocs, bytes uint64
	cpu            time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{ms.Mallocs, ms.TotalAlloc, time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// perOp fills the resource metrics every workload reports: heap allocations
// per operation end to end, and with them the process's CPU time per
// operation, which this host's drifting speed makes too unsteady to gate.
func (r *runResult) perOp(before, after usage, ops int) {
	n := float64(ops)
	if r.Traced {
		r.set("process.cpu_ms_per_op", ms(after.cpu-before.cpu)/n, "ms/op")
		return
	}
	r.set("allocs_per_op", float64(after.mallocs-before.mallocs)/n, "count")
	r.set("alloc_bytes_per_op", float64(after.bytes-before.bytes)/n, "B")
	r.Ungated["cpu_ms_per_op"] = ms(after.cpu-before.cpu) / n
}

// checkSaturated fails the run unless the cascade really ran.
func (r *runResult) checkSaturated(res cluster.SimResult) {
	r.check(res.AchievedOvercommit >= 1.3, "achieved overcommit %.3f < 1.3", res.AchievedOvercommit)
	r.check(res.LatentPlacements > 0, "no placement paid reclaim latency")
	r.check(res.MeanLowThroughput < 1, "mean low-priority throughput %.3f: nothing was deflated", res.MeanLowThroughput)
}

// runSim measures one sim workload with tracing off: set-up is the warm-up
// call, then simCalls back-to-back RunSim calls on the same generated trace.
func runSim(spec runSpec, w simWorkload) (*runResult, error) {
	seed, events := spec.seed, w.events(spec.seconds)
	cfg := w.simConfig(seed, events)
	r := newResult(spec, struct {
		simWorkload
		Events int `json:"events"`
		Calls  int `json:"calls"`
	}{w, events, simCalls})

	setups := make([]float64, simSetupRepeat)
	for i := range setups {
		t0 := time.Now()
		if _, err := cluster.RunSim(w.simConfig(seed, simWarmEvents)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	r.set("setup_s", median(setups), "s")

	runtime.GC()
	before := readUsage()
	walls := make([]float64, simCalls)
	results := make([]cluster.SimResult, simCalls)
	for i := range walls {
		t0 := time.Now()
		res, err := cluster.RunSim(cfg)
		if err != nil {
			return nil, err
		}
		walls[i] = time.Since(t0).Seconds()
		results[i] = res
	}
	after := readUsage()

	med := median(walls)
	r.set("ops_per_s", float64(events)/med, "1/s")
	// Three calls support no percentile beyond their median: the tail is
	// the slowest call, named as that.
	r.set("op_p50_ms", med*1e3, "ms")
	r.set("op_tail_ms", slices.Max(walls)*1e3, "ms")
	r.perOp(before, after, simCalls*events)
	r.Attempted = simCalls * events

	for i := 1; i < simCalls; i++ {
		r.check(results[i] == results[0], "RunSim call %d returned a different SimResult than call 0", i)
	}
	r.checkSaturated(results[0])
	res := results[0]
	r.note("op = one trace event; op_p50_ms = median, op_tail_ms = slowest of n=%d RunSim calls (no percentile named)", simCalls)
	r.note("achieved overcommit %.3f, %d/%d launches latent, %d preemptions, %d rejections, low throughput %.3f, digest %d",
		res.AchievedOvercommit, res.LatentPlacements, res.LowPriorityStarted, res.Preemptions, res.Rejections,
		res.MeanLowThroughput, resultDigest(res))
	return r, nil
}

// resultDigest folds a SimResult into 48 bits (exact in a JSON number). It is
// printed, not pinned: a behaviour fix may change it, a speed-up may not.
func resultDigest(res cluster.SimResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res)
	return h.Sum64() >> 16
}

// traceSim is the traced run of a sim workload: one untraced RunSim for the
// reference counters and wall time, then the replay driver with spans on.
func traceSim(spec runSpec, w simWorkload) (*runResult, error) {
	events := w.events(spec.seconds)
	cfg := w.simConfig(spec.seed, events)
	r := newResult(spec, struct {
		simWorkload
		Events int `json:"events"`
	}{w, events})

	t0 := time.Now()
	want, err := cluster.RunSim(cfg)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t0)

	sink := telemetry.NewSink()
	rec := newRecorder(simSpanNames, 12*events+64)
	runtime.GC()
	before := readUsage()
	t0 = time.Now()
	got, st, err := replay(cfg, rec, sink)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	traced := time.Since(t0)
	r.perOp(before, readUsage(), events)
	if err := rec.write(spec.dir, spec.workload); err != nil {
		return nil, err
	}

	r.Attempted = events
	r.check(got.LowPriorityStarted == want.LowPriorityStarted && got.Preemptions == want.Preemptions &&
		got.Rejections == want.Rejections && got.LatentPlacements == want.LatentPlacements,
		"replay started/preempted/rejected/latent = %d/%d/%d/%d, RunSim %d/%d/%d/%d",
		got.LowPriorityStarted, got.Preemptions, got.Rejections, got.LatentPlacements,
		want.LowPriorityStarted, want.Preemptions, want.Rejections, want.LatentPlacements)
	r.checkSaturated(want)

	t := rec.totals()
	wall := float64(t[spReplay].Total)
	n := float64(events)
	r.set("trace.generate_us_per_event", float64(t[spTraceGenerate].Self)/1e3/n, "us/event")
	r.set("fleet.build_ms", ms(t[spFleetBuild].Self), "ms")
	r.set("simclock.self_us_per_event", float64(t[spClockRun].Self)/1e3/n, "us/event")
	r.set("manager.launch_self_us", t[spManagerLaunch].meanSelfUS(), "us/call")
	r.set("manager.launches", float64(t[spManagerLaunch].Count), "count")
	r.set("manager.rejections", float64(got.Rejections), "count")
	r.set("node.launch_us", t[spNodeLaunch].meanSelfUS(), "us/call")
	r.set("app.new_us", t[spAppNew].meanSelfUS(), "us/call")
	r.set("manager.release_self_us", t[spManagerRelease].meanSelfUS(), "us/call")
	r.set("node.release_us", t[spNodeRelease].meanSelfUS(), "us/call")
	r.set("sampler.pass_us", t[spSamplerPass].meanSelfUS(), "us/pass")
	r.set("sampler.passes", float64(t[spSamplerPass].Count), "count")
	r.set("sampler.vms_per_pass", ratio(float64(st.VMsWalked), float64(t[spSamplerPass].Count)), "count")
	r.set("manager.snapshot_us", t[spManagerSnapshot].meanSelfUS(), "us/call")
	r.set("sampler.share_pct", 100*float64(t[spSamplerPass].Total)/wall, "%")
	r.set("node.share_pct", 100*float64(t[spNodeLaunch].Total+t[spNodeRelease].Total)/wall, "%")
	r.set("manager.share_pct", 100*float64(t[spManagerLaunch].Self+t[spManagerRelease].Self)/wall, "%")
	r.set("cascade.deflations_per_launch", ratio(counterSum(sink, "deflation_cascade_deflations_total"), float64(st.Launched)), "count")
	r.set("cascade.reinflations_per_release", ratio(counterSum(sink, "deflation_cascade_reinflations_total"), float64(st.Released)), "count")
	r.set("sim.latent_placement_share", ratio(float64(want.LatentPlacements), float64(st.Launched)), "ratio")
	r.set("sim.result_digest", float64(resultDigest(want)), "hash")
	r.set("replay.overhead_pct", 100*float64(traced-untraced)/float64(untraced), "%")
	r.note("untraced RunSim %.3fs, traced replay %.3fs, %d spans", untraced.Seconds(), traced.Seconds(), len(rec.spans))
	return r, nil
}

// counterSum adds one counter family over all its label sets (one per server).
func counterSum(sink *telemetry.Sink, name string) float64 {
	var sum float64
	for _, m := range sink.Registry.Snapshot() {
		if m.Name == name {
			sum += m.Value
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

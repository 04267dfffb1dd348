package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/restypes"
	"deflation/internal/telemetry"
)

// The replay driver is only a measuring instrument if it makes RunSim's
// decisions: on a small saturated cell the four counters must be equal, and
// the cascade must really have run.
func TestReplayMatchesRunSim(t *testing.T) {
	w := simWorkload{Servers: 20, Interarrival: 2 * time.Second, SampleEvery: 1}
	cfg := w.simConfig(5, 2000)
	want, err := cluster.RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(simSpanNames, 1<<15)
	got, st, err := replay(cfg, rec, telemetry.NewSink())
	if err != nil {
		t.Fatal(err)
	}
	if want.LatentPlacements == 0 || want.Preemptions == 0 || want.Rejections == 0 {
		t.Fatalf("cell is not saturated: %+v", want)
	}
	if got.LowPriorityStarted != want.LowPriorityStarted || got.Preemptions != want.Preemptions ||
		got.Rejections != want.Rejections || got.LatentPlacements != want.LatentPlacements {
		t.Errorf("replay counters %d/%d/%d/%d, RunSim %d/%d/%d/%d",
			got.LowPriorityStarted, got.Preemptions, got.Rejections, got.LatentPlacements,
			want.LowPriorityStarted, want.Preemptions, want.Rejections, want.LatentPlacements)
	}
	if got.AchievedOvercommit != want.AchievedOvercommit || got.MeanLowThroughput != want.MeanLowThroughput {
		t.Errorf("replay samples differ: overcommit %v vs %v, low throughput %v vs %v",
			got.AchievedOvercommit, want.AchievedOvercommit, got.MeanLowThroughput, want.MeanLowThroughput)
	}

	tot := rec.totals()
	if tot[spManagerLaunch].Count != st.Launched+got.Rejections {
		t.Errorf("%d manager.launch spans for %d launches + %d rejections", tot[spManagerLaunch].Count, st.Launched, got.Rejections)
	}
	if tot[spNodeRelease].Count != st.Released || tot[spAppNew].Count != st.Launched {
		t.Errorf("node.release spans %d (released %d), app.new spans %d (launched %d)",
			tot[spNodeRelease].Count, st.Released, tot[spAppNew].Count, st.Launched)
	}
	var self time.Duration
	for _, l := range tot {
		if l.Self < 0 {
			t.Errorf("negative self time: %+v", l)
		}
		self += l.Self
	}
	if self != tot[spReplay].Total {
		t.Errorf("self times add to %v, the root span is %v", self, tot[spReplay].Total)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w := planeWorkloads["plane_mixed"]
	window := 4 * time.Second
	a1, b1 := mixedSchedule(3, w, window)
	a2, b2 := mixedSchedule(3, w, window)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Error("equal seeds gave different schedules")
	}
	a3, b3 := mixedSchedule(4, w, window)
	if reflect.DeepEqual(a1, a3) || reflect.DeepEqual(b1, b3) {
		t.Error("different seeds gave the same schedule")
	}
	if want := int((w.LaunchRate + w.ReleaseRate) * window.Seconds()); len(a1) != want || len(a3) != want {
		t.Errorf("lane A offers %d and %d requests, want %d for every seed", len(a1), len(a3), want)
	}
	reads := 0
	for i, o := range b1 {
		if i > 0 && o.Due < b1[i-1].Due {
			t.Fatalf("lane B is not in due order at %d", i)
		}
		if o.Due >= window {
			t.Errorf("request due at %v, after the window", o.Due)
		}
		if o.Kind == spClientRead {
			reads++
		}
	}
	if reads != 4 {
		t.Errorf("%d reads in a 4 s window at one per second", reads)
	}
	// 12 agents at one heartbeat per 250 ms on average.
	if hb := len(b1) - reads; hb < 150 || hb > 230 {
		t.Errorf("%d heartbeats in 4 s, want about 192", hb)
	}
}

func TestPercentileNeedsSamplesBeyondIt(t *testing.T) {
	sample := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i + 1)
		}
		return out
	}
	if v, err := percentile(sample(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(sample(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was not refused")
	}
	if v, err := percentile(sample(21), 0.50); err != nil || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := percentile(sample(19), 0.50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and was not refused")
	}
	if v, q, err := tail(sample(300)); err != nil || q != 0.90 || v != 270 {
		t.Errorf("tail of 300 samples = %v at p%v, %v; want 270 at p90", v, q*100, err)
	}
	if _, _, err := tail(sample(5)); err == nil {
		t.Error("a tail of 5 samples was not refused")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread of 1..10 = %v, want 1", s)
	}
}

func TestVerdictNeedsRunsAndSteadySides(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.25}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	steady := []float64{100, 101, 102}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"one run a side shows no spread", lower, []float64{100}, []float64{200}, "unresolved (n < 3)"},
		{"two runs on one side", lower, steady, []float64{100, 200}, "unresolved (n < 3)"},
		{"a side spreads beyond the bound", lower, steady, []float64{100, 140, 180}, "unresolved"},
		{"slower", lower, steady, []float64{130, 131, 132}, "REGRESSED"},
		{"fewer per second", higher, steady, []float64{70, 71, 72}, "REGRESSED"},
		{"more per second", higher, steady, []float64{130, 131, 132}, "better"},
		{"within the bound", lower, steady, []float64{110, 111, 112}, "unchanged"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// A request sent before the tap noted that it is on may have agent RPCs the
// tap did not record; only requests sent after that instant are traced.
func TestTapTracesOnlyRequestsSentAfterItIsOn(t *testing.T) {
	tap := &agentTap{rec: newRecorder(planeSpanNames, 4)}
	before := time.Now()
	if tap.recorded(before) {
		t.Error("a request counts as traced before the tap is on")
	}
	tap.enable()
	if !tap.on.Load() {
		t.Error("enable did not switch the tap on")
	}
	if tap.recorded(before) {
		t.Error("a request sent before the tap was on counts as traced")
	}
	if !tap.recorded(time.Now().Add(time.Millisecond)) {
		t.Error("a request sent after the tap was on does not count as traced")
	}
}

func TestSweepCatchesPlantedFaults(t *testing.T) {
	size, minSize := restypes.V(1, 2048, 50, 50), restypes.V(0.25, 512, 12, 12)
	vmState := func(name string, alloc restypes.Vector) cluster.VMState {
		return cluster.VMState{Name: name, Size: size, Allocation: alloc, MinSize: minSize}
	}
	clean := func() sweepInput {
		return sweepInput{
			Resident: []string{"a", "b", "c"},
			Capacity: restypes.V(2, 8192, 400, 400),
			Agents: []cluster.NodeState{
				{Name: "n0", VMs: []cluster.VMState{vmState("a", size), vmState("b", size)}},
				{Name: "n1", VMs: []cluster.VMState{vmState("c", size.Scale(0.5))}},
			},
			Shards: []map[string]string{{"a": "n0", "c": "n1"}, {"b": "n0"}},
		}
	}
	if v, deflation := sweep(clean()); len(v) != 0 || deflation < 16.6 || deflation > 16.7 {
		t.Errorf("clean plane: violations %v, mean deflation %v (want none, 16.67)", v, deflation)
	}
	for _, tc := range []struct {
		name  string
		plant func(*sweepInput)
		want  string
	}{
		{"double placement", func(in *sweepInput) {
			in.Agents[1].VMs = append(in.Agents[1].VMs, vmState("a", size))
		}, "runs on 2 agents"},
		{"over-capacity agent", func(in *sweepInput) {
			in.Agents[0].VMs[0].Allocation = restypes.V(1.5, 2048, 50, 50)
		}, "agent n0 allocates"},
		{"below minimum", func(in *sweepInput) {
			in.Agents[1].VMs[0].Allocation = restypes.V(0.2, 512, 12, 12)
		}, "below its minimum size"},
		{"lost VM", func(in *sweepInput) {
			in.Agents[1].VMs = nil
		}, "runs on 0 agents"},
		{"two shards", func(in *sweepInput) {
			in.Shards[1]["a"] = "n0"
		}, "placed by 2 shards"},
		{"leaked release", func(in *sweepInput) {
			in.Resident = in.Resident[:2]
		}, "released or never acked"},
	} {
		in := clean()
		tc.plant(&in)
		v, _ := sweep(in)
		if !strings.Contains(strings.Join(v, "\n"), tc.want) {
			t.Errorf("%s: violations %q do not mention %q", tc.name, v, tc.want)
		}
	}
}

func TestAttributeLinksByInterval(t *testing.T) {
	rec := newRecorder(planeSpanNames, 16)
	at := func(ms int) time.Time { return rec.t0.Add(time.Duration(ms) * time.Millisecond) }
	rec.add(spAgentState, at(1), at(2))     // inside launch 0..10
	rec.add(spAgentLaunch, at(5), at(8))    // inside launch 0..10
	rec.add(spClientLaunch, at(0), at(10))  // alone
	rec.add(spClientLaunch, at(20), at(30)) // overlaps the heartbeat
	rec.add(spClientHeartbeat, at(25), at(26))
	rec.add(spAgentState, at(21), at(22))    // in an overlapped launch: not attributed
	rec.add(spClientRelease, at(40), at(41)) // alone
	rec.add(spAgentRelease, at(40), at(41))
	rec.add(spAgentState, at(50), at(51)) // outside every client span

	per := attribute(rec)
	l := per[spClientLaunch]
	if l.ops != 1 || l.rpcs != 2 || l.stateRPCs != 1 || l.stateTime != time.Millisecond ||
		l.mutateTime != 3*time.Millisecond || l.clientTime-l.agentTime != 6*time.Millisecond {
		t.Errorf("launch work %+v", l)
	}
	if r := per[spClientRelease]; r.ops != 1 || r.rpcs != 1 {
		t.Errorf("release work %+v", r)
	}
	if hb := per[spClientHeartbeat]; hb.ops != 0 {
		t.Errorf("an overlapped heartbeat was counted: %+v", hb)
	}
	linked := 0
	for _, s := range rec.spans {
		if s.Parent >= 0 {
			linked++
			if p := rec.spans[s.Parent]; p.Start > s.Start || p.End < s.End {
				t.Errorf("span %+v is not inside its parent %+v", s, p)
			}
		}
	}
	if linked != 3 {
		t.Errorf("%d spans have a parent, want 3", linked)
	}
}

// Both plane workloads at -quick size, end to end and traced: the same code
// paths as a full run, closed against BENCHMARK.json's metric lists.
func TestQuickPlaneRunsMeetTheContract(t *testing.T) {
	b, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.Workloads); got != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", got, len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %s, the program's is %s", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range []string{"plane_launch", "plane_mixed"} {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(b, runSpec{name, 3, 2, traced, true, t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed: %v", name, traced, r.Correct, r.Failed, r.Attempted, r.Notes)
			}
			want := len(b.EndToEnd)
			if traced {
				want = len(b.PerLayer)
			}
			if len(r.Metrics) != want {
				t.Errorf("%s traced=%v reports %d metrics, the contract lists %d", name, traced, len(r.Metrics), want)
			}
			if traced && r.Metrics["agent.state_rpcs_per_launch"].Value == 0 {
				t.Errorf("%s: the tap saw no state RPCs: %v", name, r.Metrics)
			}
		}
	}
}

package spark

import (
	"math"
	"testing"
)

// chainJob builds src(8) -> map -> shuffle(4) -> map -> result.
func chainJob(t *testing.T) *BatchJob {
	t.Helper()
	ctx := NewContext()
	final := ctx.Source("src", 8, 1.0, 10).
		Map("parse", 0.5, 8).
		Shuffle("agg", 4, 2.0, 4).
		Map("post", 0.25, 4)
	j, err := NewBatchJob("chain", final, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestStageSplitAtShuffle(t *testing.T) {
	j := chainJob(t)
	stages := j.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %d, want 2 (map side, reduce side)", len(stages))
	}
	mapSide, reduceSide := stages[0], stages[1]
	// Map side: src + parse pipelined, 8 tasks of 1.5s.
	if mapSide.tasks != 8 || math.Abs(mapSide.workPerTask-1.5) > 1e-12 {
		t.Errorf("map side: %d tasks × %g s", mapSide.tasks, mapSide.workPerTask)
	}
	if mapSide.IsShuffle() {
		t.Error("map side marked as shuffle consumer")
	}
	// Reduce side: agg + post pipelined, 4 tasks of 2.25s, wide parent.
	if reduceSide.tasks != 4 || math.Abs(reduceSide.workPerTask-2.25) > 1e-12 {
		t.Errorf("reduce side: %d tasks × %g s", reduceSide.tasks, reduceSide.workPerTask)
	}
	if !reduceSide.IsShuffle() {
		t.Error("reduce side not marked as shuffle consumer")
	}
	if len(reduceSide.parents) != 1 || !reduceSide.parents[0].AllParts ||
		!reduceSide.parents[0].Shuffle || reduceSide.parents[0].Stage != mapSide {
		t.Errorf("reduce parents wrong: %+v", reduceSide.parents)
	}
	if j.stages[len(j.stages)-1] != reduceSide {
		t.Error("final stage wrong")
	}
}

func TestStageSplitAtCache(t *testing.T) {
	ctx := NewContext()
	cached := ctx.Source("src", 8, 1.0, 10).Cache()
	final := cached.Map("use", 0.5, 1)
	j, err := NewBatchJob("c", final, 0)
	if err != nil {
		t.Fatal(err)
	}
	stages := j.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %d, want 2 (cache boundary)", len(stages))
	}
	if !stages[0].cacheOutput {
		t.Error("cached stage not marked cacheOutput")
	}
	dep := stages[1].parents[0]
	if dep.AllParts || dep.Shuffle {
		t.Errorf("cache dep should be narrow non-shuffle: %+v", dep)
	}
}

func TestBroadcastDep(t *testing.T) {
	ctx := NewContext()
	small := ctx.Source("small", 2, 0.1, 1).CollectToDriver()
	big := ctx.Source("big", 8, 1.0, 10)
	final := ctx.Transform("use", 8, 0.5, 1,
		Dep{Parent: big}, Dep{Parent: small, Broadcast: true})
	j, err := NewBatchJob("b", final, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := j.stages[len(j.stages)-1]
	if fs.IsShuffle() {
		t.Error("broadcast dep counted as shuffle")
	}
	var bcast *StageDep
	for i := range fs.parents {
		if fs.parents[i].AllParts {
			bcast = &fs.parents[i]
		}
	}
	if bcast == nil || bcast.Shuffle {
		t.Errorf("broadcast dep wrong: %+v", fs.parents)
	}
	// big is pipelined into the final stage (narrow, uncached).
	if math.Abs(fs.workPerTask-1.5) > 1e-12 {
		t.Errorf("work per task = %g, want 1.5 (big pipelined)", fs.workPerTask)
	}
	if !stageByID(j, small.ID()).driverHeld {
		t.Error("driver-held stage not marked")
	}
}

func stageByID(j *BatchJob, id int) *Stage {
	for _, s := range j.Stages() {
		if s.ID() == id {
			return s
		}
	}
	return nil
}

func TestTopologicalOrder(t *testing.T) {
	ctx := NewContext()
	a := ctx.Source("a", 4, 1, 1)
	b := ctx.Source("b", 4, 1, 1)
	final := a.Shuffle("sa", 4, 1, 1).Join(b.Shuffle("sb", 4, 1, 1), "j", 2, 1, 1)
	j, err := NewBatchJob("diamond", final, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, s := range j.Stages() {
		pos[s.ID()] = i
	}
	for _, s := range j.Stages() {
		for _, dep := range s.parents {
			if pos[dep.Stage.ID()] >= pos[s.ID()] {
				t.Errorf("parent %q not before child %q", dep.Stage.Name(), s.Name())
			}
		}
	}
}

func TestPlannedWorkAndShuffleMetrics(t *testing.T) {
	j := chainJob(t)
	// map: 8×1.5+1, reduce: 4×2.25+1.
	want := 8*1.5 + 1 + 4*2.25 + 1
	if got := j.TotalPlannedWork(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalPlannedWork = %g, want %g", got, want)
	}
	if got := shuffleMB(j); got != 8*8 {
		t.Errorf("ShuffleBytesMB = %g, want 64 (8 parts × 8MB)", got)
	}
}

func TestNewBatchJobValidation(t *testing.T) {
	if _, err := NewBatchJob("x", nil, 0); err == nil {
		t.Error("nil final accepted")
	}
	ctx := NewContext()
	if _, err := NewBatchJob("x", ctx.Source("s", 1, 1, 1), -1); err == nil {
		t.Error("negative serial accepted")
	}
}

// shuffleMB is the job's total shuffle volume: every stage's shuffle input.
func shuffleMB(j *BatchJob) float64 {
	var mb float64
	for _, s := range j.Stages() {
		mb += s.ShuffleInputMB()
	}
	return mb
}

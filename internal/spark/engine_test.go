package spark

import (
	"math"
	"strings"
	"testing"
)

func mustCluster(t *testing.T, n, slots int, memMB float64) *Cluster {
	t.Helper()
	c, err := NewCluster(n, slots, memMB)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustRun(t *testing.T, c *Cluster, j *BatchJob, hook ProgressHook) Result {
	t.Helper()
	e, err := NewEngine(c, j)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(hook)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, 4, 100); err == nil {
		t.Error("zero executors accepted")
	}
	if _, err := NewCluster(2, 0, 100); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestClusterLookup(t *testing.T) {
	c := mustCluster(t, 3, 2, 100)
	if x := c.Executor("exec-1"); x == nil || x.ID != "exec-1" {
		t.Error("lookup failed")
	}
	if c.Executor("nope") != nil {
		t.Error("bogus lookup succeeded")
	}
	if len(c.Alive()) != 3 || len(c.Executors()) != 3 {
		t.Error("counts wrong")
	}
}

func TestEngineValidation(t *testing.T) {
	c := mustCluster(t, 1, 1, 100)
	if _, err := NewEngine(nil, chainJob(t)); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := NewEngine(c, nil); err == nil {
		t.Error("nil job accepted")
	}
}

func TestRunBaselineDeterministic(t *testing.T) {
	r1 := mustRun(t, mustCluster(t, 2, 2, 1000), chainJob(t), nil)
	r2 := mustRun(t, mustCluster(t, 2, 2, 1000), chainJob(t), nil)
	if r1 != r2 {
		t.Errorf("nondeterministic runs: %+v vs %+v", r1, r2)
	}
	if r1.RecomputeSecs != 0 {
		t.Errorf("baseline recompute = %g, want 0", r1.RecomputeSecs)
	}
	if r1.TasksRun != 12 { // 8 map-side + 4 reduce-side
		t.Errorf("tasks = %d, want 12", r1.TasksRun)
	}
	if r1.StageRuns != 2 {
		t.Errorf("stage runs = %d, want 2", r1.StageRuns)
	}
}

func TestWaveScheduling(t *testing.T) {
	// 8 tasks of 1.5s on 2 execs × 2 slots: 2 waves each → 3s parallel,
	// plus serial 1 and shuffle-move time on stage 2.
	r := mustRun(t, mustCluster(t, 2, 2, 1000), chainJob(t), nil)
	// map: 2 waves × 1.5 + 1 = 4; reduce: 4 tasks on 4 slots = 1 wave ×
	// 2.25 + 1 + move(64MB/1000) = 3.314.
	want := 4.0 + 3.25 + 64.0/1000
	if math.Abs(r.DurationSecs-want) > 1e-9 {
		t.Errorf("duration = %g, want %g", r.DurationSecs, want)
	}
}

func TestStragglerDominatesStage(t *testing.T) {
	fast := mustRun(t, mustCluster(t, 4, 2, 1000), chainJob(t), nil)

	slow := mustCluster(t, 4, 2, 1000)
	slow.SetSpeed(map[string]float64{"exec-3": 0.25})
	r := mustRun(t, slow, chainJob(t), nil)
	if r.DurationSecs <= fast.DurationSecs {
		t.Errorf("straggler run %g not slower than %g", r.DurationSecs, fast.DurationSecs)
	}
	// The greedy scheduler offloads most work, so the slowdown is bounded.
	if r.DurationSecs > fast.DurationSecs*4 {
		t.Errorf("straggler run %g unreasonably slow vs %g", r.DurationSecs, fast.DurationSecs)
	}
}

func TestProgressMonotonic(t *testing.T) {
	var progress []float64
	mustRun(t, mustCluster(t, 2, 2, 1000), chainJob(t), func(p float64, _ *Engine) {
		progress = append(progress, p)
	})
	if len(progress) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(progress))
	}
	if progress[0] <= 0 || progress[0] >= 1 {
		t.Errorf("mid progress = %g", progress[0])
	}
	if progress[1] != 1 {
		t.Errorf("final progress = %g, want 1", progress[1])
	}
}

func TestBlacklistTriggersLineageRecompute(t *testing.T) {
	ctx := NewContext()
	final := ctx.Source("src", 8, 1.0, 10).
		Shuffle("s1", 8, 1.0, 10).
		Shuffle("s2", 8, 1.0, 10).
		Shuffle("s3", 8, 1.0, 10)
	j, err := NewBatchJob("deep", final, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCluster(t, 4, 2, 1000)
	e, err := NewEngine(c, j)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	res, err := e.Run(func(p float64, e *Engine) {
		if !fired && p >= 0.5 {
			fired = true
			e.Blacklist([]string{"exec-0", "exec-1"})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RecomputeSecs <= 0 {
		t.Error("no recomputation after losing half the executors mid-job")
	}
	base := mustRun(t, mustCluster(t, 4, 2, 1000), mustJob(t, "deep"), nil)
	_ = base
	if res.TasksRun <= 32 { // 4 stages × 8 tasks = 32 without recompute
		t.Errorf("tasks = %d, want > 32 (recomputed)", res.TasksRun)
	}
}

// mustJob rebuilds the deep job used above.
func mustJob(t *testing.T, _ string) *BatchJob {
	t.Helper()
	ctx := NewContext()
	final := ctx.Source("src", 8, 1.0, 10).
		Shuffle("s1", 8, 1.0, 10).
		Shuffle("s2", 8, 1.0, 10).
		Shuffle("s3", 8, 1.0, 10)
	j, err := NewBatchJob("deep", final, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestDriverHeldOutputsSurviveLoss(t *testing.T) {
	ctx := NewContext()
	small := ctx.Source("centers", 4, 0.5, 1).CollectToDriver()
	big := ctx.Source("points", 8, 1.0, 10).Cache()
	final := ctx.Transform("use", 8, 0.5, 1,
		Dep{Parent: big}, Dep{Parent: small, Broadcast: true}).
		Shuffle("agg", 4, 0.2, 1)
	j, err := NewBatchJob("dh", final, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCluster(t, 4, 2, 1000)
	e, err := NewEngine(c, j)
	if err != nil {
		t.Fatal(err)
	}
	kills := 0
	res, err := e.Run(func(p float64, e *Engine) {
		if kills == 0 && p >= 0.6 {
			kills++
			e.Blacklist([]string{"exec-0"})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cached "points" partitions on exec-0 may be recomputed, but the
	// driver-held "centers" never are: estimate for killing everything
	// else should exclude the centers stage.
	_ = res
	est := e.EstimateRecomputeWork([]string{"exec-1", "exec-2", "exec-3"})
	// centers work = 4×0.5 = 2; the estimate must not include it.
	if est > j.TotalPlannedWork() {
		t.Errorf("estimate %g exceeds total work", est)
	}
}

func TestNoExecutorsError(t *testing.T) {
	c := mustCluster(t, 1, 2, 1000)
	e, err := NewEngine(c, chainJob(t))
	if err != nil {
		t.Fatal(err)
	}
	e.Blacklist([]string{"exec-0"})
	if _, err := e.Run(nil); err == nil || !strings.Contains(err.Error(), "no live executors") {
		t.Errorf("err = %v, want no-live-executors", err)
	}
}

func TestCacheEviction(t *testing.T) {
	// Tiny storage memory: caching 8 × 10MB partitions in 15MB evicts.
	ctx := NewContext()
	cached := ctx.Source("src", 8, 1.0, 10).Cache()
	final := cached.Map("use", 0.1, 1).Shuffle("agg", 2, 0.1, 1)
	j, err := NewBatchJob("evict", final, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCluster(t, 1, 4, 15)
	e, err := NewEngine(c, j)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	x := c.Executor("exec-0")
	if x.usedMB > 15+10 {
		t.Errorf("storage memory %g far exceeds cap 15", x.usedMB)
	}
}

func TestEstimateRecomputeWork(t *testing.T) {
	j := chainJob(t)
	c := mustCluster(t, 2, 2, 1000)
	e, err := NewEngine(c, j)
	if err != nil {
		t.Fatal(err)
	}
	// Before anything runs, killing executors costs nothing extra for
	// remaining stages beyond what is already missing... everything is
	// missing, so the estimate equals full upstream work.
	est0 := e.EstimateRecomputeWork(nil)
	if est0 <= 0 {
		t.Errorf("pre-run estimate = %g, want > 0 (nothing computed yet)", est0)
	}
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	// After completion, nothing remains to run: estimate 0.
	if est := e.EstimateRecomputeWork([]string{"exec-0", "exec-1"}); est != 0 {
		t.Errorf("post-run estimate = %g, want 0", est)
	}
}

func TestBlacklistIdempotentAndUnknown(t *testing.T) {
	c := mustCluster(t, 2, 2, 1000)
	e, err := NewEngine(c, chainJob(t))
	if err != nil {
		t.Fatal(err)
	}
	e.Blacklist([]string{"exec-0", "exec-0", "ghost"})
	if len(c.Alive()) != 1 {
		t.Errorf("alive = %d, want 1", len(c.Alive()))
	}
}

func TestTraceRecordsStageRuns(t *testing.T) {
	c := mustCluster(t, 4, 2, 1000)
	j := mustJob(t, "deep")
	e, err := NewEngine(c, j)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	if _, err := e.Run(func(p float64, e *Engine) {
		if !fired && p >= 0.5 {
			fired = true
			e.Blacklist([]string{"exec-0", "exec-1"})
		}
	}); err != nil {
		t.Fatal(err)
	}
	trace := e.Trace()
	if len(trace) <= 4 {
		t.Fatalf("trace entries = %d, want > 4 (recomputations included)", len(trace))
	}
	sawRecompute := false
	var sum float64
	for _, sr := range trace {
		if sr.Parts <= 0 || sr.ElapsedSecs <= 0 || sr.Name == "" {
			t.Errorf("bad trace entry: %+v", sr)
		}
		if sr.Recompute {
			sawRecompute = true
		}
		sum += sr.ElapsedSecs
	}
	if !sawRecompute {
		t.Error("no recompute entries after executor loss")
	}
	if sum <= 0 || sum > e.nowSecs {
		t.Errorf("trace time %g inconsistent with engine time %g", sum, e.nowSecs)
	}
}

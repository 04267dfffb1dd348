package workloads

import (
	"testing"

	"deflation/internal/spark"
)

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Workers != 8 || p.Slots != 4 || p.Partitions != 64 || p.Iterations != 6 {
		t.Errorf("defaults = %+v", p)
	}
	c, err := Params{}.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Executors()) != 8 {
		t.Errorf("cluster size = %d", len(c.Executors()))
	}
}

func TestALSStructure(t *testing.T) {
	j, err := ALS(Params{})
	if err != nil {
		t.Fatal(err)
	}
	// 1 input stage + 12 solve stages + rmse.
	if got := len(j.Stages()); got != 14 {
		t.Errorf("ALS stages = %d, want 14", got)
	}
	// Shuffle-heavy: nearly all planned work is in stages that consume
	// shuffles.
	var shuffleWork float64
	for _, s := range j.Stages() {
		if s.IsShuffle() {
			shuffleWork += s.PlannedWork()
		}
	}
	if f := shuffleWork / j.TotalPlannedWork(); f < 0.7 {
		t.Errorf("ALS shuffle work fraction = %g, want ≥ 0.7", f)
	}
	if shuffleMB(j) < 10000 {
		t.Errorf("ALS shuffle volume = %g MB, want large", shuffleMB(j))
	}
}

func TestKMeansStructure(t *testing.T) {
	j, err := KMeans(Params{})
	if err != nil {
		t.Fatal(err)
	}
	// points + 6×(assign, update).
	if got := len(j.Stages()); got != 13 {
		t.Errorf("KMeans stages = %d, want 13", got)
	}
	// Assign stages must not be shuffle consumers (broadcast centers).
	shuffles := 0
	for _, s := range j.Stages() {
		if s.IsShuffle() {
			shuffles++
		}
	}
	if shuffles != 6 {
		t.Errorf("KMeans shuffle stages = %d, want 6 (updates only)", shuffles)
	}
	// Tiny shuffle volume compared to ALS.
	als, _ := ALS(Params{})
	if shuffleMB(j) >= shuffleMB(als)/10 {
		t.Errorf("KMeans shuffles %g MB vs ALS %g MB: not map-heavy",
			shuffleMB(j), shuffleMB(als))
	}
}

func TestHeuristicSeparatesWorkloads(t *testing.T) {
	// The policy's r heuristic, the synchronous-time share the engine
	// measures, must clearly separate the two DAG classes.
	measured := func(build func(Params) (*spark.BatchJob, error)) float64 {
		cl, err := Params{}.Cluster()
		if err != nil {
			t.Fatal(err)
		}
		job, err := build(Params{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := spark.NewEngine(cl, job)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(nil); err != nil {
			t.Fatal(err)
		}
		return eng.MeasuredShuffleFraction()
	}
	ra, rk := measured(ALS), measured(KMeans)
	if rk >= ra {
		t.Errorf("r(kmeans)=%g not below r(als)=%g", rk, ra)
	}
}

func TestTrainingJobs(t *testing.T) {
	for _, tc := range []struct {
		name string
		job  *spark.TrainingJob
		ckpt bool
	}{
		{"cnn", CNN(false), false},
		{"cnn-ckpt", CNN(true), true},
		{"rnn", RNN(false), false},
		{"rnn-ckpt", RNN(true), true},
	} {
		if err := tc.job.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if (tc.job.CheckpointEvery > 0) != tc.ckpt {
			t.Errorf("%s: checkpointing = %d, want enabled=%v", tc.name, tc.job.CheckpointEvery, tc.ckpt)
		}
	}
}

func TestWorkloadBaselinesRun(t *testing.T) {
	for _, build := range []func(Params) (*spark.BatchJob, error){ALS, KMeans} {
		c, err := Params{}.Cluster()
		if err != nil {
			t.Fatal(err)
		}
		j, err := build(Params{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := spark.RunBatchScenario(c, j, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.DurationSecs <= 0 || res.RecomputeSecs != 0 {
			t.Errorf("%s baseline: %+v", j.Name, res.Result)
		}
	}
}

// BenchmarkEngineALS measures the mini-Spark engine scheduling a full ALS
// job.
func BenchmarkEngineALS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := Params{}
		cl, err := p.Cluster()
		if err != nil {
			b.Fatal(err)
		}
		job, err := ALS(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spark.RunBatchScenario(cl, job, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// shuffleMB is the job's total shuffle volume: every stage's shuffle input.
func shuffleMB(j *spark.BatchJob) float64 {
	var mb float64
	for _, s := range j.Stages() {
		mb += s.ShuffleInputMB()
	}
	return mb
}

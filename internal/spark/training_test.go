package spark

import (
	"math"
	"testing"
)

func trainJob(ckpt bool) *TrainingJob {
	j := &TrainingJob{
		Name: "t", Iterations: 40, IterSecs: 10, Workers: 8,
		RecordsPerIter: 800, RestartSecs: 50,
	}
	if ckpt {
		j.CheckpointEvery = 10
		j.CheckpointOverhead = 0.2
	}
	return j
}

func TestTrainingValidation(t *testing.T) {
	if _, err := NewTrainingRun(&TrainingJob{Name: "x"}); err == nil {
		t.Error("empty job accepted")
	}
	if _, err := NewTrainingRun(&TrainingJob{Name: "x", Iterations: 1, IterSecs: 1, Workers: 1, CheckpointEvery: -1}); err == nil {
		t.Error("negative checkpoint accepted")
	}
}

func TestTrainingBaseline(t *testing.T) {
	r, err := NewTrainingRun(trainJob(false))
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := r.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 400 {
		t.Errorf("elapsed = %g, want 40×10 = 400", elapsed)
	}
	if !r.Done() || r.completed != 40 {
		t.Errorf("completed = %d", r.completed)
	}
	if got := r.Throughput(); math.Abs(got-80) > 1e-9 {
		t.Errorf("throughput = %g, want 800/10 = 80", got)
	}
}

func TestCheckpointingCostsThroughput(t *testing.T) {
	r, err := NewTrainingRun(trainJob(true))
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := r.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(elapsed-480) > 1e-9 {
		t.Errorf("elapsed with checkpointing = %g, want 480 (20%% overhead)", elapsed)
	}
}

func TestVMDeflationSlowsViaBarrier(t *testing.T) {
	r, err := NewTrainingRun(trainJob(false))
	if err != nil {
		t.Fatal(err)
	}
	// One straggler sets the pace for all 8 workers.
	if err := r.SetWorkerSpeed(3, 0.5); err != nil {
		t.Fatal(err)
	}
	slowIter := r.IterSecs()
	want := 10 / CurveCNNTraining.At(0.5)
	if math.Abs(slowIter-want) > 1e-9 {
		t.Errorf("iteration = %g, want %g (curve at 0.5)", slowIter, want)
	}
	// Deflating a second worker less deeply changes nothing (min rules).
	r.SetWorkerSpeed(4, 0.8)
	if r.IterSecs() != slowIter {
		t.Error("barrier not governed by slowest worker")
	}
}

func TestSetWorkerSpeedValidation(t *testing.T) {
	r, _ := NewTrainingRun(trainJob(false))
	if err := r.SetWorkerSpeed(99, 0.5); err == nil {
		t.Error("bad index accepted")
	}
	if err := r.SetWorkerSpeed(0, 0); err == nil {
		t.Error("zero speed accepted")
	}
	if err := r.SetWorkerSpeed(0, 1.5); err == nil {
		t.Error("speed > 1 accepted")
	}
}

func TestKillWorkersRestartsFromCheckpoint(t *testing.T) {
	r, err := NewTrainingRun(trainJob(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.KillWorkers(4); err != nil {
		t.Fatal(err)
	}
	if r.completed != 20 {
		t.Errorf("completed after kill = %d, want checkpoint 20", r.completed)
	}
	// Iterations now slower: half the workers with scale-out loss.
	it := r.IterSecs()
	minWant := 10.0 * 2 * 1.2 // ≥ linear 2x plus checkpoint overhead
	if it < minWant {
		t.Errorf("post-kill iteration = %g, want ≥ %g", it, minWant)
	}
	if _, err := r.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Error("job did not finish after kill")
	}
}

func TestKillWithoutCheckpointRestartsFromZero(t *testing.T) {
	r, err := NewTrainingRun(trainJob(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		r.Step()
	}
	r.KillWorkers(1)
	if r.completed != 0 {
		t.Errorf("completed = %d, want 0 (no checkpoints)", r.completed)
	}
}

func TestKillAllWorkersRejected(t *testing.T) {
	r, _ := NewTrainingRun(trainJob(false))
	if err := r.KillWorkers(8); err == nil {
		t.Error("killing every worker accepted")
	}
	if err := r.KillWorkers(0); err != nil {
		t.Errorf("killing zero workers errored: %v", err)
	}
}

func TestStepAfterDoneErrors(t *testing.T) {
	r, _ := NewTrainingRun(trainJob(false))
	r.Run(nil)
	if err := r.Step(); err == nil {
		t.Error("Step after done accepted")
	}
}

func TestTrainingDeflationBeatsKill(t *testing.T) {
	// The §6.2 claim: for synchronous training, VM-level deflation (slower
	// iterations) beats killing workers (restart + fewer workers).
	deflated, err := NewTrainingRun(trainJob(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		deflated.Step()
	}
	for i := 0; i < 8; i++ {
		deflated.SetWorkerSpeed(i, 0.5)
	}
	dElapsed, _ := deflated.Run(nil)

	killed, _ := NewTrainingRun(trainJob(true))
	for i := 0; i < 20; i++ {
		killed.Step()
	}
	killed.KillWorkers(4)
	kElapsed, _ := killed.Run(nil)

	if dElapsed >= kElapsed {
		t.Errorf("deflation %g not faster than kill+restart %g", dElapsed, kElapsed)
	}
}

func TestTrainingReviveWorkers(t *testing.T) {
	j := &TrainingJob{Name: "t", Iterations: 40, IterSecs: 10, Workers: 8,
		RecordsPerIter: 800, RestartSecs: 50, CheckpointEvery: 10, CheckpointOverhead: 0.2}
	r, err := NewTrainingRun(j)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		r.Step()
	}
	if err := r.KillWorkers(4); err != nil {
		t.Fatal(err)
	}
	slow := r.IterSecs()
	elapsedBefore := r.ElapsedSecs()
	if err := r.ReviveWorkers(4); err != nil {
		t.Fatal(err)
	}
	if r.ElapsedSecs() <= elapsedBefore {
		t.Error("revive charged no restart time")
	}
	if r.completed != 10 {
		t.Errorf("completed = %d, want checkpoint 10", r.completed)
	}
	if r.IterSecs() >= slow {
		t.Errorf("iteration time %g not restored below %g", r.IterSecs(), slow)
	}
	if err := r.ReviveWorkers(1); err == nil {
		t.Error("revive with no dead workers accepted")
	}
	if err := r.ReviveWorkers(0); err != nil {
		t.Error(err)
	}
}

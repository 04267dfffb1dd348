package spark

import (
	"fmt"
	"math"

	"deflation/internal/perfmodel"
)

// TrainingJob models synchronous data-parallel neural-network training
// (BigDL-on-Spark CNN/RNN, Table 2): iterations separated by global
// parameter-synchronization barriers. The job is inelastic — losing any
// worker stalls the whole application, and recovery means restarting from
// the last model checkpoint (§4.1, §6.2).
type TrainingJob struct {
	Name string
	// Iterations is the total iteration count.
	Iterations int
	// IterSecs is the iteration time at full cluster resources.
	IterSecs float64
	// Workers is the initial worker count.
	Workers int
	// RecordsPerIter is the global mini-batch size, for throughput
	// reporting (records/second, the Fig. 7b metric).
	RecordsPerIter float64
	// CheckpointEvery saves a model checkpoint every n iterations; 0
	// disables checkpointing (the deflation deployment does not need it).
	CheckpointEvery int
	// CheckpointOverhead is the fractional iteration-time cost of
	// checkpointing when enabled (the paper measures ≈20%, Fig. 7b).
	CheckpointOverhead float64
	// RestartSecs is the job restart cost after losing a worker
	// (resubmission, parameter redistribution).
	RestartSecs float64
	// Curve maps the per-worker resource fraction to iteration speed:
	// training is not perfectly CPU-bound, so 50% deflation costs well
	// under 50% throughput (Fig. 6c/6d). Defaults to CurveCNNTraining.
	Curve *perfmodel.UtilityCurve
	// ScaleOutExponent models the efficiency loss of re-partitioning onto
	// fewer workers after a kill: iteration time scales with
	// (Workers/alive)^exponent. Values above 1 reflect the extra
	// communication rounds and worse statistical efficiency of larger
	// per-worker batches (default 1.3).
	ScaleOutExponent float64
}

// Calibrated iteration-speed curves for the two training workloads, set so
// the measured slowdowns match Fig. 6c/6d: CNN at 50% VM-level deflation
// runs ≈1.2× longer overall; RNN ≈1.25×.
var (
	// CurveCNNTraining: compute/communication overlap absorbs deflation.
	CurveCNNTraining = perfmodel.MustUtilityCurve("CNN-training", map[float64]float64{
		0: 0, 0.25: 0.45, 0.5: 0.70, 0.75: 0.88, 0.875: 0.94, 1: 1,
	})
	// CurveRNNTraining: more serialized time steps, slightly steeper.
	CurveRNNTraining = perfmodel.MustUtilityCurve("RNN-training", map[float64]float64{
		0: 0, 0.25: 0.40, 0.5: 0.62, 0.75: 0.85, 0.875: 0.93, 1: 1,
	})
)

// Validate checks job parameters.
func (j *TrainingJob) Validate() error {
	if j.Iterations <= 0 || j.IterSecs <= 0 || j.Workers <= 0 {
		return fmt.Errorf("spark: training job %q needs positive iterations/time/workers", j.Name)
	}
	if j.CheckpointEvery < 0 || j.CheckpointOverhead < 0 {
		return fmt.Errorf("spark: training job %q has negative checkpoint settings", j.Name)
	}
	return nil
}

// TrainingRun is an in-progress training job.
type TrainingRun struct {
	job *TrainingJob

	speed       []float64 // per-worker resource fraction (1 = undeflated)
	aliveCount  int
	completed   int
	checkpoint  int // last checkpointed iteration
	elapsedSecs float64
}

// NewTrainingRun starts a run of job.
func NewTrainingRun(job *TrainingJob) (*TrainingRun, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if job.Curve == nil {
		job.Curve = CurveCNNTraining
	}
	if job.ScaleOutExponent == 0 {
		job.ScaleOutExponent = 1.3
	}
	speed := make([]float64, job.Workers)
	for i := range speed {
		speed[i] = 1
	}
	return &TrainingRun{job: job, speed: speed, aliveCount: job.Workers}, nil
}

// ElapsedSecs returns virtual time spent so far.
func (r *TrainingRun) ElapsedSecs() float64 { return r.elapsedSecs }

// AddDelaySecs advances the run's clock without training progress
// (restart and resubmission overheads).
func (r *TrainingRun) AddDelaySecs(secs float64) { r.elapsedSecs += secs }

// Done reports whether all iterations have finished.
func (r *TrainingRun) Done() bool { return r.completed >= r.job.Iterations }

// SetWorkerSpeed applies VM-level deflation to worker i: its resource
// fraction drops. Training continues — this is the mechanism that lets
// inelastic synchronous jobs survive reclamation.
func (r *TrainingRun) SetWorkerSpeed(i int, fraction float64) error {
	if i < 0 || i >= len(r.speed) {
		return fmt.Errorf("spark: worker %d out of range", i)
	}
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("spark: worker speed fraction %g out of (0,1]", fraction)
	}
	if r.speed[i] != 0 {
		r.speed[i] = fraction
	}
	return nil
}

// KillWorkers removes n workers (self-deflation's task kill, or
// preemption). Synchronous training cannot continue through worker loss:
// the job restarts from the last checkpoint (or iteration 0 without
// checkpointing) on the surviving workers.
func (r *TrainingRun) KillWorkers(n int) error {
	if n <= 0 {
		return nil
	}
	if n >= r.aliveCount {
		return fmt.Errorf("spark: killing %d of %d workers leaves none", n, r.aliveCount)
	}
	killed := 0
	for i := range r.speed {
		if killed == n {
			break
		}
		if r.speed[i] > 0 {
			r.speed[i] = 0
			killed++
		}
	}
	r.aliveCount -= n
	r.completed = r.checkpoint
	r.elapsedSecs += r.job.RestartSecs
	return nil
}

// ReviveWorkers brings n previously killed workers back (capacity restored
// after transient pressure). Rejoining a synchronous job re-partitions the
// data, which — like a loss — restarts from the last checkpoint.
func (r *TrainingRun) ReviveWorkers(n int) error {
	if n <= 0 {
		return nil
	}
	revived := 0
	for i := range r.speed {
		if revived == n {
			break
		}
		if r.speed[i] == 0 {
			r.speed[i] = 1
			revived++
		}
	}
	if revived == 0 {
		return fmt.Errorf("spark: no dead workers to revive")
	}
	r.aliveCount += revived
	r.completed = r.checkpoint
	r.elapsedSecs += r.job.RestartSecs
	return nil
}

// IterSecs returns the current per-iteration time: the global barrier makes
// the slowest worker determine the pace, surviving workers absorb the dead
// workers' data shards, and checkpointing (if enabled) adds its overhead.
func (r *TrainingRun) IterSecs() float64 {
	minSpeed := math.Inf(1)
	for _, s := range r.speed {
		if s > 0 && s < minSpeed {
			minSpeed = s
		}
	}
	if math.IsInf(minSpeed, 1) {
		return math.Inf(1)
	}
	t := r.job.IterSecs * math.Pow(float64(r.job.Workers)/float64(r.aliveCount), r.job.ScaleOutExponent) / r.job.Curve.At(minSpeed)
	if r.job.CheckpointEvery > 0 {
		t *= 1 + r.job.CheckpointOverhead
	}
	return t
}

// Throughput returns the current training throughput in records/second —
// the Fig. 7b metric.
func (r *TrainingRun) Throughput() float64 {
	t := r.IterSecs()
	if math.IsInf(t, 1) || t <= 0 {
		return 0
	}
	return r.job.RecordsPerIter / t
}

// Step executes one iteration, advancing elapsed time and taking a
// checkpoint when due.
func (r *TrainingRun) Step() error {
	if r.Done() {
		return fmt.Errorf("spark: training job %q already done", r.job.Name)
	}
	t := r.IterSecs()
	if math.IsInf(t, 1) {
		return fmt.Errorf("spark: training job %q has no live workers", r.job.Name)
	}
	r.elapsedSecs += t
	r.completed++
	if r.job.CheckpointEvery > 0 && r.completed%r.job.CheckpointEvery == 0 {
		r.checkpoint = r.completed
	}
	return nil
}

// Run executes iterations to completion, invoking hook (if non-nil) after
// each iteration with the completed fraction.
func (r *TrainingRun) Run(hook func(progress float64, run *TrainingRun)) (float64, error) {
	for !r.Done() {
		if err := r.Step(); err != nil {
			return r.elapsedSecs, err
		}
		if hook != nil {
			hook(float64(r.completed)/float64(r.job.Iterations), r)
		}
	}
	return r.elapsedSecs, nil
}

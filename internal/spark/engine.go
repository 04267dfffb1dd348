package spark

import (
	"fmt"
	"math"
)

// Executor models a Spark executor hosted on one worker VM: a number of
// task slots, a per-slot speed factor (1.0 = an undeflated core; VM-level
// deflation lowers it), and storage memory for cached partitions.
type Executor struct {
	ID     string
	Slots  int
	Speed  float64 // per-slot work rate; <1 under VM-level deflation
	MemMB  float64 // storage memory for cached RDD partitions
	alive  bool
	usedMB float64
	// cacheLRU orders this executor's cached partitions, oldest first.
	cacheLRU []partKey
}

// Alive reports whether the executor is schedulable.
func (x *Executor) Alive() bool { return x.alive }

// Cluster is the set of executors available to the engine, one per worker
// VM.
type Cluster struct {
	execs []*Executor
}

// NewCluster creates n executors ("exec-0".."exec-n-1") with the given
// slots and storage memory each, all at speed 1.0.
func NewCluster(n, slots int, memMB float64) (*Cluster, error) {
	if n <= 0 || slots <= 0 {
		return nil, fmt.Errorf("spark: cluster needs positive executors and slots, got %d/%d", n, slots)
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		c.execs = append(c.execs, &Executor{
			ID: fmt.Sprintf("exec-%d", i), Slots: slots, Speed: 1, MemMB: memMB, alive: true,
		})
	}
	return c, nil
}

// Executors returns all executors (alive and dead), in stable order.
func (c *Cluster) Executors() []*Executor { return c.execs }

// Alive returns the live executors in stable order.
func (c *Cluster) Alive() []*Executor {
	var out []*Executor
	for _, x := range c.execs {
		if x.alive {
			out = append(out, x)
		}
	}
	return out
}

// Executor returns the executor with the given id, or nil.
func (c *Cluster) Executor(id string) *Executor {
	for _, x := range c.execs {
		if x.ID == id {
			return x
		}
	}
	return nil
}

// SetSpeed applies a per-slot speed factor to every executor — how
// VM-level deflation manifests to the engine (deflated VMs run tasks
// slower; stragglers emerge at stage barriers).
func (c *Cluster) SetSpeed(factors map[string]float64) {
	for id, f := range factors {
		if x := c.Executor(id); x != nil {
			x.Speed = f
		}
	}
}

// partKey identifies one partition of one stage's output.
type partKey struct {
	stage int
	part  int
}

// Engine executes batch jobs over a cluster, tracking output locations so
// that lost partitions (dead executors, evicted cache) are recomputed
// through their lineage — Spark's recovery mechanism, and the source of
// self-deflation's short-term cost (§4.1).
type Engine struct {
	cluster *Cluster
	job     *BatchJob

	// outputs[k] = executor holding partition k, if computed.
	outputs map[partKey]*Executor

	nowSecs       float64
	syncSecs      float64 // time spent moving shuffle data
	recomputeSecs float64
	tasksRun      int
	stageRuns     int
	netMBps       float64 // aggregate shuffle bandwidth

	completedPlanned float64 // first-run planned work, for progress
	firstRun         map[int]bool
	driverHeld       map[int]bool // stages whose outputs live at the driver
	stageCursor      int          // index of next top-level stage
	trace            []StageRun
}

// NewEngine prepares an engine to run job on cluster.
func NewEngine(cluster *Cluster, job *BatchJob) (*Engine, error) {
	if cluster == nil || job == nil {
		return nil, fmt.Errorf("spark: engine needs a cluster and a job")
	}
	driverHeld := make(map[int]bool)
	for _, s := range job.Stages() {
		if s.driverHeld {
			driverHeld[s.id] = true
		}
	}
	return &Engine{
		cluster:    cluster,
		job:        job,
		outputs:    make(map[partKey]*Executor),
		firstRun:   make(map[int]bool),
		driverHeld: driverHeld,
		netMBps:    DefaultShuffleNetMBps,
	}, nil
}

// ProgressHook is invoked after each top-level stage completes, with the
// fraction of planned work done. It is the injection point for resource
// pressure (deflation, preemption) in experiments.
type ProgressHook func(progress float64, e *Engine)

// StageRun records one stage execution for post-run analysis.
type StageRun struct {
	Name        string
	Parts       int
	ElapsedSecs float64
	Recompute   bool
}

// Result summarizes a job run.
type Result struct {
	DurationSecs  float64
	RecomputeSecs float64
	TasksRun      int
	StageRuns     int
}

// Trace returns the engine's per-stage execution log (first runs and
// recomputations, in order).
func (e *Engine) Trace() []StageRun { return e.trace }

// Run executes the job's stages in order, invoking hook (if non-nil) after
// every top-level stage.
func (e *Engine) Run(hook ProgressHook) (Result, error) {
	stages := e.job.Stages()
	for e.stageCursor < len(stages) {
		s := stages[e.stageCursor]
		if err := e.runStage(s, allParts(s.tasks), false); err != nil {
			return Result{}, err
		}
		e.stageCursor++
		if hook != nil {
			hook(e.Progress(), e)
		}
	}
	return Result{
		DurationSecs:  e.nowSecs,
		RecomputeSecs: e.recomputeSecs,
		TasksRun:      e.tasksRun,
		StageRuns:     e.stageRuns,
	}, nil
}

// Progress returns the fraction of planned work completed (first runs
// only; recomputation does not advance progress).
func (e *Engine) Progress() float64 {
	total := e.job.TotalPlannedWork()
	if total == 0 {
		return 1
	}
	return e.completedPlanned / total
}

// MeasuredShuffleFraction returns the observed synchronous-time share —
// the paper's r heuristic, r = synchronous execution time / total running
// time, measured over the run so far.
func (e *Engine) MeasuredShuffleFraction() float64 {
	if e.nowSecs == 0 {
		return 0
	}
	return e.syncSecs / e.nowSecs
}

// NextStageIsShuffle reports whether the next pending top-level stage
// consumes a *significant* shuffle — the policy's look-ahead (§4.1:
// "determines if a shuffle operation is scheduled in the immediate future
// by looking at the RDD DAG"). A shuffle is significant when moving its
// data costs at least 1% of the job's planned time; tiny aggregations (a
// K-means center update) do not force the worst-case r.
func (e *Engine) NextStageIsShuffle() bool {
	stages := e.job.Stages()
	if e.stageCursor >= len(stages) {
		return false
	}
	s := stages[e.stageCursor]
	if !s.IsShuffle() {
		return false
	}
	moveSecs := s.ShuffleInputMB() / e.netMBps
	if e.nowSecs == 0 {
		return moveSecs > 0
	}
	return moveSecs/e.nowSecs >= 0.01
}

func allParts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// runStage ensures parent outputs exist (recursively recomputing lost
// partitions), then executes the requested partitions.
func (e *Engine) runStage(s *Stage, parts []int, recompute bool) error {
	if len(parts) == 0 {
		return nil
	}
	// Ensure parents.
	for _, dep := range s.parents {
		var need []int
		if dep.AllParts {
			need = allParts(dep.Stage.tasks)
		} else {
			need = parts
		}
		var missing []int
		for _, p := range need {
			if !e.available(partKey{dep.Stage.id, p}) {
				missing = append(missing, p)
			}
		}
		if len(missing) > 0 {
			if err := e.runStage(dep.Stage, missing, true); err != nil {
				return err
			}
		}
	}

	execs := e.cluster.Alive()
	if len(execs) == 0 {
		return fmt.Errorf("spark: no live executors for stage %q", s.Name())
	}

	// Greedy wave scheduling: assign each task to the executor with the
	// earliest projected finish; an executor running n tasks of duration t
	// on k slots finishes in ceil(n/k)·t.
	counts := make([]int, len(execs))
	finish := func(i int, extra int) float64 {
		n := counts[i] + extra
		waves := math.Ceil(float64(n) / float64(execs[i].Slots))
		return waves * s.workPerTask / execs[i].Speed
	}
	assignment := make([]int, len(parts))
	for i := range parts {
		best, bestT := 0, math.Inf(1)
		for x := range execs {
			if t := finish(x, 1); t < bestT {
				best, bestT = x, t
			}
		}
		counts[best]++
		assignment[i] = best
	}
	var elapsed float64
	for i := range execs {
		if t := finish(i, 0); counts[i] > 0 && t > elapsed {
			elapsed = t
		}
	}
	elapsed += s.serialWork
	// Shuffle data movement: the running tasks pull their share of every
	// shuffle parent's output across the network — this is the job's
	// synchronous time, the numerator of the paper's r heuristic.
	if mb := s.ShuffleInputMB(); mb > 0 {
		moveSecs := mb / e.netMBps * float64(len(parts)) / float64(s.tasks)
		elapsed += moveSecs
		e.syncSecs += moveSecs
	}

	// Record outputs and cache accounting.
	for i, p := range parts {
		x := execs[assignment[i]]
		k := partKey{s.id, p}
		e.outputs[k] = x
		if s.cacheOutput {
			e.cachePut(x, k, s.outMBOfTask)
		}
	}

	e.nowSecs += elapsed
	e.tasksRun += len(parts)
	e.stageRuns++
	e.trace = append(e.trace, StageRun{
		Name: s.Name(), Parts: len(parts), ElapsedSecs: elapsed, Recompute: recompute,
	})
	if recompute {
		e.recomputeSecs += elapsed
	} else if !e.firstRun[s.id] {
		e.firstRun[s.id] = true
		e.completedPlanned += s.PlannedWork()
	}
	return nil
}

// available reports whether a stage output partition is usable: computed,
// and its executor still alive (shuffle files and cache die with the
// executor), and (for cached outputs) not evicted. Driver-held results
// survive executor loss.
func (e *Engine) available(k partKey) bool {
	x, ok := e.outputs[k]
	if !ok {
		return false
	}
	if e.driverHeld[k.stage] {
		return true
	}
	return x != nil && x.alive
}

// cachePut stores a cached partition on an executor, evicting the oldest
// cached partitions if storage memory is exhausted (Spark's storage-memory
// eviction).
func (e *Engine) cachePut(x *Executor, k partKey, mb float64) {
	x.usedMB += mb
	x.cacheLRU = append(x.cacheLRU, k)
	for x.usedMB > x.MemMB && len(x.cacheLRU) > 1 {
		victim := x.cacheLRU[0]
		x.cacheLRU = x.cacheLRU[1:]
		if victim == k {
			continue
		}
		delete(e.outputs, victim)
		x.usedMB -= mb // partitions of comparable size; fine-grained sizes not tracked per key
		if x.usedMB < 0 {
			x.usedMB = 0
		}
	}
}

// Blacklist removes executors from scheduling — the self-deflation and
// preemption mechanism ("we kill running tasks and blacklist their
// executors", §4.1). Their shuffle files and cached partitions die with
// them; recomputation of lost partitions still benefits from the surviving
// executors' caches, which is why graceful self-deflation ends up cheaper
// than preemption (preemption additionally pays a job-restart overhead —
// the paper's measured ≈15% gap).
func (e *Engine) Blacklist(ids []string) {
	for _, id := range ids {
		x := e.cluster.Executor(id)
		if x == nil || !x.alive {
			continue
		}
		x.alive = false
		x.cacheLRU = nil
		x.usedMB = 0
	}
}

// EstimateRecomputeWork returns the planned seconds of recomputation that
// losing the given executors would trigger for the *remaining* stages — the
// DAG-exact recomputation estimator the paper describes as the accurate
// alternative to the synchronous-time heuristic.
func (e *Engine) EstimateRecomputeWork(ids []string) float64 {
	dying := make(map[string]bool, len(ids))
	for _, id := range ids {
		dying[id] = true
	}
	lost := func(k partKey) bool {
		x, ok := e.outputs[k]
		if ok && e.driverHeld[k.stage] {
			return false
		}
		return !ok || x == nil || !x.alive || dying[x.ID]
	}
	// Walk stages the job still needs and sum the work of transitively
	// missing partitions. Each partition is recomputed (and therefore
	// charged) at most once, however many downstream stages need it.
	counted := make(map[partKey]bool)
	var cost func(s *Stage, part int) float64
	cost = func(s *Stage, part int) float64 {
		k := partKey{s.id, part}
		if !lost(k) || counted[k] {
			return 0
		}
		counted[k] = true
		c := s.workPerTask
		for _, dep := range s.parents {
			if dep.AllParts {
				for p := 0; p < dep.Stage.tasks; p++ {
					c += cost(dep.Stage, p)
				}
			} else {
				c += cost(dep.Stage, part)
			}
		}
		return c
	}
	var total float64
	stages := e.job.Stages()
	for i := e.stageCursor; i < len(stages); i++ {
		s := stages[i]
		for _, dep := range s.parents {
			for p := 0; p < dep.Stage.tasks; p++ {
				total += cost(dep.Stage, p)
			}
		}
	}
	return total
}

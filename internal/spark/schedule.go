package spark

import "fmt"

// Stage is a unit of BSP execution: a pipelined chain of narrow-dependency
// transformations ending at a boundary RDD (a shuffle input, a cached RDD,
// or the job's final RDD). All tasks of a stage run before any task of a
// dependent stage starts — the BSP structure Eq. 1 relies on.
type Stage struct {
	id          int
	boundary    *RDD
	tasks       int
	workPerTask float64 // pipelined compute seconds per task at speed 1.0
	outMBOfTask float64
	cacheOutput bool // outputs live in executor memory (cached RDD)
	driverHeld  bool // outputs are materialized at the driver (loss-proof)
	parents     []StageDep
	serialWork  float64 // driver-side seconds per execution (scheduling, DAG bookkeeping)
}

// StageDep is a dependency on a parent stage.
type StageDep struct {
	Stage *Stage
	// AllParts means every task of the child needs every parent partition
	// (shuffle or broadcast); otherwise tasks need only the same-numbered
	// partition (cached narrow dependency).
	AllParts bool
	// Shuffle means the dependency moves shuffle data across the network —
	// the "synchronous" operations of the paper's r heuristic.
	Shuffle bool
}

// ID returns the stage id (its boundary RDD id).
func (s *Stage) ID() int { return s.id }

// Name returns the boundary RDD's name.
func (s *Stage) Name() string { return s.boundary.name }

// IsShuffle reports whether the stage consumes a shuffle — the paper's
// "synchronous" stages.
func (s *Stage) IsShuffle() bool {
	for _, p := range s.parents {
		if p.Shuffle {
			return true
		}
	}
	return false
}

// ShuffleInputMB returns the shuffle data volume the stage pulls in.
func (s *Stage) ShuffleInputMB() float64 {
	var mb float64
	for _, p := range s.parents {
		if p.Shuffle {
			mb += float64(p.Stage.tasks) * p.Stage.outMBOfTask
		}
	}
	return mb
}

// PlannedWork returns the stage's total planned seconds at unit speed:
// parallel task work plus driver-side serial work.
func (s *Stage) PlannedWork() float64 {
	return float64(s.tasks)*s.workPerTask + s.serialWork
}

// BatchJob is an RDD DAG with an action on its final RDD, compiled into
// stages.
type BatchJob struct {
	Name   string
	final  *RDD
	stages []*Stage // topological order, final stage last
}

// NewBatchJob compiles the DAG rooted at final into stages.
// serialPerStage is the driver-side overhead charged per stage execution
// (seconds); it models scheduling, shuffle coordination, and result
// aggregation, and is what makes Spark jobs scale sublinearly with executor
// count.
func NewBatchJob(name string, final *RDD, serialPerStage float64) (*BatchJob, error) {
	if final == nil {
		return nil, fmt.Errorf("spark: job %q has no final RDD", name)
	}
	if serialPerStage < 0 {
		return nil, fmt.Errorf("spark: job %q has negative serial overhead", name)
	}
	j := &BatchJob{Name: name, final: final}
	j.buildStages(serialPerStage)
	return j, nil
}

// buildStages walks the lineage graph and splits it into stages at wide
// dependencies and cached RDDs, the same boundaries Spark's DAGScheduler
// uses.
func (j *BatchJob) buildStages(serial float64) {
	memo := make(map[int]*Stage)
	var order []*Stage

	var stageOf func(boundary *RDD) *Stage
	stageOf = func(boundary *RDD) *Stage {
		if s, ok := memo[boundary.id]; ok {
			return s
		}
		s := &Stage{
			id:          boundary.id,
			boundary:    boundary,
			tasks:       boundary.partitions,
			outMBOfTask: boundary.outMB,
			cacheOutput: boundary.cached,
			driverHeld:  boundary.driverHeld,
			serialWork:  serial,
		}
		memo[boundary.id] = s

		// Pipeline narrow, uncached ancestors into this stage; every stage
		// boundary encountered becomes a parent dependency.
		var walk func(r *RDD)
		walk = func(r *RDD) {
			s.workPerTask += r.work
			for _, d := range r.deps {
				switch {
				case d.Wide:
					s.parents = append(s.parents, StageDep{Stage: stageOf(d.Parent), AllParts: true, Shuffle: true})
				case d.Broadcast:
					s.parents = append(s.parents, StageDep{Stage: stageOf(d.Parent), AllParts: true})
				case d.Parent.cached || d.Parent.driverHeld:
					s.parents = append(s.parents, StageDep{Stage: stageOf(d.Parent)})
				default:
					walk(d.Parent)
				}
			}
		}
		walk(boundary)
		order = append(order, s)
		return s
	}
	stageOf(j.final)
	j.stages = order // children appended after parents: topological
}

// Stages returns the job's stages in execution (topological) order.
func (j *BatchJob) Stages() []*Stage { return j.stages }

// TotalPlannedWork returns the job's planned seconds at unit speed across
// all stages (each stage counted once).
func (j *BatchJob) TotalPlannedWork() float64 {
	var sum float64
	for _, s := range j.stages {
		sum += s.PlannedWork()
	}
	return sum
}

// DefaultShuffleNetMBps is the aggregate shuffle bandwidth the engine
// moves shuffle data at.
const DefaultShuffleNetMBps = 1000

// Package spark implements a miniature data-parallel processing engine with
// the Spark semantics the paper's deflation policy depends on (§4.1):
// RDDs with narrow and wide (shuffle) dependencies, BSP stage execution,
// in-memory caching, lineage-based recomputation of lost partitions, task
// kill + executor blacklisting for self-deflation, and the online
// running-time-minimizing deflation policy of Eq. 1–3.
package spark

import "fmt"

// RDD is a resilient distributed dataset: a partitioned dataset defined by
// its lineage (dependencies on parent RDDs) rather than by materialized
// data. Work and output sizes are per partition, in seconds-at-unit-speed
// and MB respectively.
type RDD struct {
	ctx        *Context
	id         int
	name       string
	partitions int
	work       float64 // compute seconds per partition at speed 1.0
	outMB      float64 // output MB per partition (cache/shuffle footprint)
	deps       []Dep
	cached     bool
	driverHeld bool
}

// Dep is a dependency on a parent RDD. Wide dependencies require a shuffle
// (every child partition reads from every parent partition). Broadcast
// dependencies also need every parent partition (the parent is broadcast to
// all tasks) but move negligible data and are not shuffles — e.g. K-means
// cluster centers consumed by the next iteration.
type Dep struct {
	Parent    *RDD
	Wide      bool
	Broadcast bool
}

// Context builds RDD graphs; it assigns stable ids so that DAGs are
// deterministic.
type Context struct {
	nextID int
}

// NewContext returns an empty RDD context.
func NewContext() *Context { return &Context{} }

func (c *Context) newRDD(name string, partitions int, work, outMB float64, deps ...Dep) *RDD {
	if partitions <= 0 {
		panic(fmt.Sprintf("spark: RDD %q needs positive partitions, got %d", name, partitions))
	}
	if work < 0 || outMB < 0 {
		panic(fmt.Sprintf("spark: RDD %q has negative work/output", name))
	}
	r := &RDD{ctx: c, id: c.nextID, name: name, partitions: partitions, work: work, outMB: outMB, deps: deps}
	c.nextID++
	return r
}

// Source creates an input RDD (e.g. reading from distributed storage):
// partitions tasks, each spending work seconds and producing outMB.
func (c *Context) Source(name string, partitions int, work, outMB float64) *RDD {
	return c.newRDD(name, partitions, work, outMB)
}

// Transform creates an RDD with an explicit dependency mix — for DAGs that
// the Map/Shuffle/Join helpers cannot express, such as an iteration that
// narrowly reuses a cached dataset while consuming the previous iteration's
// (shuffled) result.
func (c *Context) Transform(name string, partitions int, work, outMB float64, deps ...Dep) *RDD {
	return c.newRDD(name, partitions, work, outMB, deps...)
}

// ID returns the RDD's stable identifier.
func (r *RDD) ID() int { return r.id }

// Name returns the RDD's name.
func (r *RDD) Name() string { return r.name }

// Partitions returns the partition count.
func (r *RDD) Partitions() int { return r.partitions }

// Map applies a narrow transformation: same partitioning, per-partition
// work, new per-partition output size.
func (r *RDD) Map(name string, work, outMB float64) *RDD {
	return r.ctx.newRDD(name, r.partitions, work, outMB, Dep{Parent: r})
}

// Shuffle applies a wide transformation (reduceByKey, groupBy, repartition):
// each of the child's partitions depends on all parent partitions.
func (r *RDD) Shuffle(name string, partitions int, work, outMB float64) *RDD {
	return r.ctx.newRDD(name, partitions, work, outMB, Dep{Parent: r, Wide: true})
}

// Join produces an RDD with wide dependencies on both r and other.
func (r *RDD) Join(other *RDD, name string, partitions int, work, outMB float64) *RDD {
	return r.ctx.newRDD(name, partitions, work, outMB,
		Dep{Parent: r, Wide: true}, Dep{Parent: other, Wide: true})
}

// Cache marks the RDD's partitions for in-memory storage on the executors
// that compute them; cached partitions short-circuit lineage recomputation
// while their executor is alive.
func (r *RDD) Cache() *RDD {
	r.cached = true
	return r
}

// CollectToDriver marks the RDD's (small) result as materialized at the
// driver — like a collect() whose value feeds the next iteration via
// broadcast. Driver-held outputs survive executor loss, so they never need
// recomputation. It implies a stage boundary, like Cache.
func (r *RDD) CollectToDriver() *RDD {
	r.driverHeld = true
	return r
}

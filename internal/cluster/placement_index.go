package cluster

import (
	"math"
	"slices"
	"sync"

	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// The placement index is the manager's one implementation of best-fit,
// worst-fit, first-fit and the preemption fallback, for every fleet —
// in-process, remote, static or dynamic — in O(log n) per query over
// tournament trees (DESIGN.md, *Placement index*). The design:
//
//   - Every policy has one shape: among alive servers the strictly greatest
//     value wins, the earliest index on ties, starting from -1. Only the
//     value differs, so one tree kind serves all four. Leaf i holds server
//     i's value, with -1 (which no candidate equals) for "not a candidate":
//
//     best-fit    -1 if !feasible, else fitness(c, size)
//     worst-fit   -1 if !feasible, else c.Free.Norm()
//     first-fit   -1 if !feasible, else 0 (earliest on ties is first-fit)
//     preempt     -1 if !preemptFeasible, else c.PreemptableCeiling.Norm()
//
//     where c is the server's Capacity(). A server whose capacity is not
//     known is -1 in every tree: unknown is not empty, and a zero vector
//     would fit a zero-size spec. An inner node holds the max of its two
//     children, so the descent visits the higher-valued child first and
//     reads only m.alive(i) at a leaf, ≈2 nodes per level.
//   - Leaves go stale only through the nodes' WatchCapacity notifications,
//     which mark them dirty; a dirty leaf's Capacity() is read once and its
//     root paths recomputed in every live tree before every query. A RemoteNode folds
//     heartbeats outside the manager's lock, so marking is goroutine-safe;
//     everything else runs on the manager's goroutine. The index also lists
//     the unknown servers, so a launch probes them (barUnknownCapacity)
//     without visiting the rest of the fleet.
//   - The prune is index-aware. A leaf's value says nothing about m.alive(i),
//     so the descent can be sent right by a non-alive leaf before an
//     equal-valued, lower-indexed alive leaf on the left is seen. A subtree
//     is therefore skipped only when its value is below the current
//     winner's, or equal AND none of its leaves precedes the winner.
//   - A tree is keyed by (leaf kind, spec.Size, spec.Substrate); the
//     preempt tree serves high-priority specs only (query answers -1 for
//     the rest). Demands come from an instance catalogue (a handful of
//     VM sizes), so the trees are a fixed set of pidxDemandTrees, least
//     recently used evicted. A miss fills one tree from all n servers into
//     the evicted tree's array; a hit costs the descent alone.
//
// A membership change rebuilds the index. The reference model is the linear
// scan each tree replaced, kept in placement_index_test.go, where every
// query of the equivalence tests and the fuzz target is checked against it.

// pidxDemandTrees is how many trees the index keeps.
const pidxDemandTrees = 8

// leafKind names the policy whose value a tree's leaves hold.
type leafKind uint8

const (
	leafBestFit leafKind = iota
	leafWorstFit
	leafFirstFit
	leafPreempt
)

// demandTree is the tournament for one policy and one demand. val is a
// 1-based tree array: val[p+i] is server i's value (see leaf), padding
// leaves hold -1, inner nodes the max of their children.
type demandTree struct {
	kind      leafKind
	size      restypes.Vector
	substrate string
	val       []float64
	lastUsed  uint64 // placementIndex.clock at the latest query
}

// leaf is the value t.kind's policy gives a server whose Capacity() is
// (c, known).
func (t *demandTree) leaf(c *CapacitySummary, known bool) float64 {
	if !known {
		return -1
	}
	if t.kind == leafPreempt {
		if !preemptFeasible(c, t.size, t.substrate) {
			return -1
		}
		return c.PreemptableCeiling.Norm()
	}
	if !feasible(c, t.size, t.substrate) {
		return -1
	}
	switch t.kind {
	case leafBestFit:
		return fitness(c, t.size)
	case leafWorstFit:
		return c.Free.Norm()
	}
	return 0 // first-fit: every feasible server ties, so the earliest wins
}

// queryHook is the index's test seam (Manager.queried): it is shown every
// query and the index's answer.
type queryHook func(m *Manager, kind leafKind, spec LaunchSpec, got int)

// placementIndex holds the trees over one manager's fleet. Leaves live at
// [p, p+n); node j's children are 2j and 2j+1.
type placementIndex struct {
	m       *Manager
	servers []Node
	n       int          // fleet size
	p       int          // leaf base: smallest power of two ≥ n
	demands []demandTree // at most pidxDemandTrees
	clock   uint64       // queries served, the LRU's time
	// unknown lists, ascending, the servers whose capacity was not known at
	// their latest read.
	unknown []int
	// Watchers may run on any goroutine, so mu guards the dirty set. flush
	// swaps dirty with spare: neither allocates after warm-up.
	mu           sync.Mutex
	dirty, spare []int
	isDirty      []bool
	unwatch      []func() // unsubscribes markDirty from each server (see close)
	// visited counts the tree nodes the descents have entered, for the
	// work-budget test; nothing else reads it.
	visited int
}

// newPlacementIndex builds the index over m's fleet and subscribes it to
// every server.
func newPlacementIndex(m *Manager) *placementIndex {
	n := len(m.servers)
	p := 1
	for p < n {
		p *= 2
	}
	x := &placementIndex{
		m:       m,
		servers: m.servers,
		n:       n,
		p:       p,
		unknown: make([]int, 0, n),
		dirty:   make([]int, 0, n),
		spare:   make([]int, 0, n),
		isDirty: make([]bool, n),
		unwatch: make([]func(), n),
	}
	for i, s := range m.servers {
		// Subscribe before the first read, so no change slips between them.
		x.unwatch[i] = s.WatchCapacity(func() { x.markDirty(i) })
		if _, known := s.Capacity(); !known {
			x.unknown = append(x.unknown, i)
		}
	}
	return x
}

// close unsubscribes the index from every server. Nodes outlive the index —
// a membership change rebuilds it, a takeover replaces its manager — and
// would otherwise keep its trees reachable and keep marking their leaves.
func (x *placementIndex) close() {
	for _, unwatch := range x.unwatch {
		unwatch()
	}
}

// reindex rebuilds the placement index after a membership change renumbered
// or replaced servers.
func (m *Manager) reindex() {
	m.pidx.close()
	m.pidx = newPlacementIndex(m)
}

func (x *placementIndex) markDirty(i int) {
	x.mu.Lock()
	if !x.isDirty[i] {
		x.isDirty[i] = true
		x.dirty = append(x.dirty, i)
	}
	x.mu.Unlock()
}

// flush re-reads every dirty leaf through its (possibly wrapped) node and
// recomputes its path to the root in every live tree. Called at the top of
// every query, so the trees always reflect the nodes' current vectors. A
// leaf marked again while flush reads it is read again by the next flush.
func (x *placementIndex) flush() {
	x.mu.Lock()
	dirty := x.dirty
	x.dirty, x.spare = x.spare[:0], dirty
	for _, i := range dirty {
		x.isDirty[i] = false
	}
	x.mu.Unlock()
	for _, i := range dirty {
		sum, known := x.servers[i].Capacity()
		x.setKnown(i, known)
		for k := range x.demands {
			t := &x.demands[k]
			t.val[x.p+i] = t.leaf(&sum, known)
			for j := (x.p + i) / 2; j >= 1; j /= 2 {
				v := max(t.val[2*j], t.val[2*j+1])
				if math.Float64bits(v) == math.Float64bits(t.val[j]) {
					break // the same bits here leave every ancestor as it is
				}
				t.val[j] = v
			}
		}
	}
}

// setKnown records whether server i's capacity can be trusted.
func (x *placementIndex) setKnown(i int, known bool) {
	switch j, listed := slices.BinarySearch(x.unknown, i); {
	case known && listed:
		x.unknown = slices.Delete(x.unknown, j, j+1)
	case !known && !listed:
		x.unknown = slices.Insert(x.unknown, j, i)
	}
}

// demand returns the tree for (kind, spec's demand), current as of the last
// flush. On a miss it fills the least recently used tree (or a new one,
// below pidxDemandTrees) from every server.
func (x *placementIndex) demand(kind leafKind, spec LaunchSpec) *demandTree {
	x.clock++
	lru := 0
	for k := range x.demands {
		t := &x.demands[k]
		if t.kind == kind && t.size == spec.Size && t.substrate == spec.Substrate {
			t.lastUsed = x.clock
			return t
		}
		if t.lastUsed < x.demands[lru].lastUsed {
			lru = k
		}
	}
	if len(x.demands) < pidxDemandTrees {
		lru = len(x.demands)
		x.demands = append(x.demands, demandTree{val: make([]float64, 2*x.p)})
	}
	t := &x.demands[lru]
	t.kind, t.size, t.substrate = kind, spec.Size, spec.Substrate
	t.lastUsed = x.clock
	for i, s := range x.servers {
		sum, known := s.Capacity()
		t.val[x.p+i] = t.leaf(&sum, known)
	}
	for i := x.n; i < x.p; i++ {
		t.val[x.p+i] = -1
	}
	for j := x.p - 1; j >= 1; j-- {
		t.val[j] = max(t.val[2*j], t.val[2*j+1])
	}
	return t
}

// treeQuery is one descent of a demand tree.
type treeQuery struct {
	x       *placementIndex
	val     []float64
	best    int     // winner so far, -1 for none
	bestVal float64 // its value; -1 matches no candidate
}

func (q *treeQuery) walk(node, lo, hi int) {
	q.x.visited++
	v := q.val[node]
	if !(v > q.bestVal || v == q.bestVal && lo < q.best) {
		return // nothing below beats the winner, or ties it from an earlier index
	}
	if hi-lo == 1 {
		if q.x.m.alive(lo) {
			q.best, q.bestVal = lo, v
		}
		return
	}
	mid := (lo + hi) / 2
	if q.val[2*node+1] > q.val[2*node] {
		q.walk(2*node+1, mid, hi)
		q.walk(2*node, lo, mid)
	} else {
		q.walk(2*node, lo, mid)
		q.walk(2*node+1, mid, hi)
	}
}

// query answers kind's policy for spec: the alive server with the highest
// leaf value, earliest index on ties, or -1.
func (x *placementIndex) query(kind leafKind, spec LaunchSpec) int {
	if kind == leafPreempt && spec.Priority != vm.HighPriority {
		return -1 // preemptFeasible is false everywhere
	}
	x.flush()
	q := treeQuery{x: x, val: x.demand(kind, spec).val, best: -1, bestVal: -1}
	q.walk(1, 0, x.p)
	if x.m.queried != nil {
		x.m.queried(x.m, kind, spec, q.best)
	}
	return q.best
}

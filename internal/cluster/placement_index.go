package cluster

import "deflation/internal/vm"

// The placement index replaces the manager's O(servers) scans with
// tournament trees over the fleet, so BestFit / WorstFit / FirstFit and the
// preemption fallback resolve in O(log n) while returning BIT-IDENTICAL
// choices to the linear scans they shadow. The design:
//
//   - Every scan has one shape: among alive servers the strictly greatest
//     value wins, the earliest index on ties, starting from -1. Only the
//     value differs, so one tree kind serves all four. Leaf i holds
//     PRECISELY the value its scan computes for server i, evaluated by the
//     scan's own functions, with -1 (which no candidate equals) for
//     "skipped":
//
//     best-fit    -1 if !feasible, else fitness(s, spec, freeOnly)
//     worst-fit   -1 if !feasible, else s.Free().Norm()
//     first-fit   -1 if !feasible, else 0 (earliest on ties is first-fit)
//     preempt     -1 if !preemptFeasible, else s.PreemptableCeiling().Norm()
//
//     Substrate compatibility is part of feasible and preemptFeasible. An
//     inner node holds the max of its two children. Nothing is bounded or
//     rounded, so the descent needs no slack: it visits the higher-valued
//     child first and reads only m.alive(i) at a leaf, ≈2 nodes per level.
//   - Leaves go stale only through the controllers' WatchCapacity push
//     notifications — every capacity mutation (launch, release, deflate,
//     reinflate, preempt, stream reservation, crash) runs the watcher, which
//     marks the leaf dirty; dirty leaves are re-read and their root paths
//     recomputed in every live tree before every query (≈1.6 leaves per
//     query in the saturated cells).
//   - The prune is index-aware. A leaf's value says nothing about m.alive(i)
//     (a dead or barred server keeps its value), so the descent can be sent
//     right by a non-alive leaf before an equal-valued, lower-indexed alive
//     leaf on the left is seen. A subtree is therefore skipped only when its
//     value is below the current winner's, or equal AND none of its leaves
//     precedes the winner; an equal-valued alive leaf before the winner
//     replaces it. That is the scan's "strictly greater, earliest on ties".
//   - A tree is keyed by (leaf kind, spec.Size, spec.Substrate), plus the
//     manager's freeOnlyFitness for best-fit; the preempt tree also stores
//     spec.Priority, which is always high (preemptFeasible is false for
//     anything else). Demands come from an instance catalogue (a handful of
//     VM sizes), so the trees are a fixed set of pidxDemandTrees, least
//     recently used evicted. A miss fills one tree from all n servers — n
//     leaf evaluations, what every query cost before the trees existed — and
//     reuses the evicted tree's array; a hit costs the descent alone. On the
//     benchmark's 100- and 1000-server cells all high-priority specs share
//     one demand, so 5 trees are live (4 best-fit sizes plus 1 preempt) and
//     nothing is evicted after warm-up. The 20-server chaos cells re-place
//     specs with a substrate pin, which adds keys: they miss on 7-11 % of
//     queries, 20 leaf evaluations each.
//
// The index is built only when every node supports WatchCapacity (local
// controllers, their crashable wrappers, and fencedNode chains over them).
// Remote fleets and dynamically grown fleets (AddNode/RemoveNode) fall back
// to the linear scans. The index-vs-scan equivalence tests and the fuzz
// target in placement_index_test.go replay identical workloads both ways
// and require identical placements.

// placementIndexEnabled gates index construction; the equivalence tests
// flip it to force the reference scan path.
var placementIndexEnabled = true

// pidxDemandTrees is how many trees the index keeps.
const pidxDemandTrees = 8

// capacityWatchable is the push-invalidation hook the index needs from
// every node (see LocalController.WatchCapacity).
type capacityWatchable interface {
	WatchCapacity(fn func()) (unwatch func())
}

// watchableNode unwraps fencedNode chains to reach a WatchCapacity
// provider, mirroring nodeSubstrate's unwrapping. Returns nil when the
// node cannot push invalidations (e.g. RemoteNode).
func watchableNode(n Node) capacityWatchable {
	for {
		if w, ok := n.(capacityWatchable); ok {
			return w
		}
		f, ok := n.(*fencedNode)
		if !ok {
			return nil
		}
		n = f.Node
	}
}

// leafKind names the scan whose value a tree's leaves hold.
type leafKind uint8

const (
	leafBestFit leafKind = iota
	leafWorstFit
	leafFirstFit
	leafPreempt
)

// demandTree is the tournament for one scan and one demand. val is a
// 1-based tree array: val[p+i] is server i's scan value (see leaf), padding
// leaves hold -1, inner nodes the max of their children.
type demandTree struct {
	kind     leafKind
	spec     LaunchSpec // Size, Substrate and Priority only: all the leaf reads
	freeOnly bool
	val      []float64
	lastUsed uint64 // placementIndex.clock at the latest query
}

// leaf is the value t.kind's scan in manager.go computes for s.
func (t *demandTree) leaf(s Node) float64 {
	if t.kind == leafPreempt {
		if !preemptFeasible(s, t.spec) {
			return -1
		}
		return s.PreemptableCeiling().Norm()
	}
	if !feasible(s, t.spec) {
		return -1
	}
	switch t.kind {
	case leafBestFit:
		return fitness(s, t.spec, t.freeOnly)
	case leafWorstFit:
		return s.Free().Norm()
	}
	return 0 // first-fit: every feasible server ties, so the earliest wins
}

// placementIndex holds the trees. Leaves live at [p, p+n); node j's children
// are 2j and 2j+1. Single-goroutine, like the manager it serves.
type placementIndex struct {
	servers []Node
	n       int          // fleet size
	p       int          // leaf base: smallest power of two ≥ n
	demands []demandTree // at most pidxDemandTrees
	clock   uint64       // queries served, the LRU's time
	dirty   []int        // leaf indices pending refresh
	isDirty []bool       // dedupe for dirty
	unwatch []func()     // unsubscribes markDirty from each server (see dropIndex)
	// visited counts the tree nodes the descents have entered, for the
	// work-budget test; nothing else reads it.
	visited int
}

// newPlacementIndex builds the index over m's fleet, or returns nil when
// the index is disabled, the fleet is empty, or any node cannot push
// capacity invalidations.
func newPlacementIndex(servers []Node) *placementIndex {
	if !placementIndexEnabled || len(servers) == 0 {
		return nil
	}
	watch := make([]capacityWatchable, len(servers))
	for i, s := range servers {
		w := watchableNode(s)
		if w == nil {
			return nil
		}
		watch[i] = w
	}
	n := len(servers)
	p := 1
	for p < n {
		p *= 2
	}
	x := &placementIndex{
		servers: servers,
		n:       n,
		p:       p,
		dirty:   make([]int, 0, n),
		isDirty: make([]bool, n),
		unwatch: make([]func(), n),
	}
	for i, w := range watch {
		x.unwatch[i] = w.WatchCapacity(func() { x.markDirty(i) })
	}
	return x
}

// dropIndex takes the manager off the placement index for good — it places
// by the linear scans from here on — and unsubscribes the index from the
// controllers, which outlive the manager and would otherwise keep its trees
// reachable and keep marking their leaves. Called when the fleet's
// membership changes and when another manager takes the fleet over.
func (m *Manager) dropIndex() {
	if m.pidx == nil {
		return
	}
	for _, unwatch := range m.pidx.unwatch {
		unwatch()
	}
	m.pidx = nil
}

func (x *placementIndex) markDirty(i int) {
	if !x.isDirty[i] {
		x.isDirty[i] = true
		x.dirty = append(x.dirty, i)
	}
}

// flush re-reads every dirty leaf through its (possibly wrapped) node and
// recomputes its path to the root in every live tree. Called at the top of
// every query, so the trees always reflect the controllers' current
// memoized vectors.
func (x *placementIndex) flush() {
	for _, i := range x.dirty {
		x.isDirty[i] = false
		s := x.servers[i]
		for k := range x.demands {
			t := &x.demands[k]
			t.val[x.p+i] = t.leaf(s)
			for j := (x.p + i) / 2; j >= 1; j /= 2 {
				t.val[j] = max(t.val[2*j], t.val[2*j+1])
			}
		}
	}
	x.dirty = x.dirty[:0]
}

// demand returns the tree for (kind, spec's demand, freeOnly), current as of
// the last flush. On a miss it fills the least recently used tree (or a new
// one, below pidxDemandTrees) from every server.
func (x *placementIndex) demand(kind leafKind, spec LaunchSpec, freeOnly bool) *demandTree {
	x.clock++
	lru := 0
	for k := range x.demands {
		t := &x.demands[k]
		if t.kind == kind && t.spec.Size == spec.Size && t.spec.Substrate == spec.Substrate && t.freeOnly == freeOnly {
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
	t.kind = kind
	t.spec = LaunchSpec{Size: spec.Size, Substrate: spec.Substrate, Priority: spec.Priority}
	t.freeOnly = freeOnly
	t.lastUsed = x.clock
	for i, s := range x.servers {
		t.val[x.p+i] = t.leaf(s)
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
	m       *Manager
	val     []float64
	best    int     // winner so far, -1 for none
	bestVal float64 // its value; -1 matches nothing a scan would pick
}

func (q *treeQuery) walk(node, lo, hi int) {
	q.x.visited++
	v := q.val[node]
	if !(v > q.bestVal || v == q.bestVal && lo < q.best) {
		return // nothing below beats the winner, or ties it from an earlier index
	}
	if hi-lo == 1 {
		if q.m.alive(lo) {
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

// query is the indexed twin of kind's scan: the alive server with the
// highest leaf value, earliest index on ties, or -1.
func (x *placementIndex) query(m *Manager, kind leafKind, spec LaunchSpec, freeOnly bool) int {
	x.flush()
	q := treeQuery{x: x, m: m, val: x.demand(kind, spec, freeOnly).val, best: -1, bestVal: -1}
	q.walk(1, 0, x.p)
	return q.best
}

func (x *placementIndex) bestFit(m *Manager, spec LaunchSpec) int {
	return x.query(m, leafBestFit, spec, m.freeOnlyFitness)
}

func (x *placementIndex) worstFit(m *Manager, spec LaunchSpec) int {
	return x.query(m, leafWorstFit, spec, false)
}

func (x *placementIndex) firstFit(m *Manager, spec LaunchSpec) int {
	return x.query(m, leafFirstFit, spec, false)
}

func (x *placementIndex) preemptFallback(m *Manager, spec LaunchSpec) int {
	if spec.Priority != vm.HighPriority {
		return -1 // preemptFeasible is false everywhere
	}
	return x.query(m, leafPreempt, spec, false)
}

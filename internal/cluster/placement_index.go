package cluster

import (
	"deflation/internal/restypes"
	"deflation/internal/substrate"
	"deflation/internal/vm"
)

// The placement index replaces the manager's O(servers) feasibility scan
// with trees over the fleet, so BestFit / WorstFit / FirstFit and the
// preemption fallback resolve in O(log n) while returning BIT-IDENTICAL
// choices to the linear scans they shadow. The design:
//
//   - Leaves go stale only through the controllers' WatchCapacity push
//     notifications — every capacity mutation (launch, release, deflate,
//     reinflate, preempt, stream reservation, crash) runs the watcher, which
//     marks the leaf dirty; dirty leaves are re-read and their root paths
//     recomputed before every query (≈1.6 leaves per query in the saturated
//     cells).
//   - Best-fit is served by one tournament tree per distinct demand
//     (spec.Size, spec.Substrate, the manager's freeOnlyFitness). The
//     invariant: leaf i holds PRECISELY the value the scan computes for
//     server i — -1 when !feasible(s, spec), else fitness(s, spec, freeOnly),
//     evaluated by those very functions — and an inner node holds the max of
//     its two children. Nothing is bounded or rounded, so the descent needs
//     no slack: it visits the higher-valued child first and reads only
//     m.alive(i) at a leaf, ≈2 nodes per level.
//   - The prune is index-aware. A leaf's value says nothing about m.alive(i)
//     (a dead or barred server keeps its value), so the descent can be sent
//     right by a non-alive leaf before an equal-valued, lower-indexed alive
//     leaf on the left is seen. A subtree is therefore skipped only when its
//     value is below the current winner's, or equal AND none of its leaves
//     precedes the winner; an equal-valued alive leaf before the winner
//     replaces it. That is the scan's "strictly greater, earliest on ties".
//   - Demands come from an instance catalogue (a handful of VM sizes), so
//     the trees are a fixed set of pidxDemandTrees, least recently used
//     evicted. A miss fills one tree from all n servers — n cosines, what
//     every query cost before the trees existed — and reuses the evicted
//     tree's array; a hit costs the descent alone.
//   - WorstFit, FirstFit and the preemption fallback descend one shared tree
//     of element-wise maxima (pidxAgg). Per-dimension max is a selection and
//     Fits() is monotone per dimension, so "spec fits the subtree maximum"
//     is an exact feasibility bound; they visit left to right and evaluate
//     surviving leaves live, with the scans' own expressions and
//     comparisons.
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

// pidxSlack is the absolute slack worstFit adds to its norm bound before
// pruning. A live norm equals its cached twin bit for bit, so the slack only
// makes that prune more conservative; it sits far below any meaningful norm
// difference.
const pidxSlack = 1e-9

// pidxDemandTrees is how many best-fit demand trees the index keeps.
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

// pidxAgg is one node of the shared bounds tree: element-wise maxima over
// its subtree's cached leaf values. Padding leaves (beyond the fleet) hold
// the zero aggregate, the identity for max/OR.
type pidxAgg struct {
	maxPV      restypes.Vector // max placement vector (availability or free, per mode)
	maxFreeNrm float64         // max |free vector| (worst-fit bound)
	maxCeil    restypes.Vector // max preemptable ceiling (preempt feasibility bound)
	maxCeilNrm float64         // max |preemptable ceiling| (preempt fallback bound)
	kinds      uint32          // OR of substrate-kind bits (bit 0 = unknown)
}

func mergeAgg(a, b pidxAgg) pidxAgg {
	return pidxAgg{
		maxPV:      a.maxPV.Max(b.maxPV),
		maxFreeNrm: max(a.maxFreeNrm, b.maxFreeNrm),
		maxCeil:    a.maxCeil.Max(b.maxCeil),
		maxCeilNrm: max(a.maxCeilNrm, b.maxCeilNrm),
		kinds:      a.kinds | b.kinds,
	}
}

// demandTree is the best-fit tournament for one demand. val is a 1-based
// tree array like placementIndex.agg: val[p+i] is server i's scan value
// (see leaf), padding leaves hold -1, inner nodes the max of their children.
type demandTree struct {
	spec     LaunchSpec // Size and Substrate only: all feasible and fitness read
	freeOnly bool
	val      []float64
	lastUsed uint64 // placementIndex.clock at the latest query
}

// leaf is the value Manager.bestFit's scan computes for s, with -1 (the
// scan's starting bestFitness, which no candidate equals) for "skipped".
func (t *demandTree) leaf(s Node) float64 {
	if !feasible(s, t.spec) {
		return -1
	}
	return fitness(s, t.spec, t.freeOnly)
}

// placementIndex holds the trees. Leaves live at [p, p+n); node j's children
// are 2j and 2j+1. Single-goroutine, like the manager it serves.
type placementIndex struct {
	servers []Node
	n       int          // fleet size
	p       int          // leaf base: smallest power of two ≥ n
	agg     []pidxAgg    // bounds tree, len 2p
	demands []demandTree // best-fit trees, at most pidxDemandTrees
	clock   uint64       // best-fit queries served, the LRU's time
	dirty   []int        // leaf indices pending refresh
	isDirty []bool       // dedupe for dirty
	unwatch []func()     // unsubscribes markDirty from each server (see dropIndex)
	// kindBits interns normalized substrate-kind names to mask bits. Bit 0
	// is the unknown kind (compatible with everything); interning past 31
	// kinds falls back to bit 0, which can only make pruning more
	// conservative, never wrong.
	kindBits map[string]uint32
	nextBit  uint
	// visited counts the tree nodes bestFit has entered, for the work-budget
	// test; nothing else reads it.
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
		servers:  servers,
		n:        n,
		p:        p,
		agg:      make([]pidxAgg, 2*p),
		dirty:    make([]int, 0, n),
		isDirty:  make([]bool, n),
		unwatch:  make([]func(), n),
		kindBits: map[string]uint32{"": 1},
		nextBit:  1,
	}
	for i := 0; i < n; i++ {
		x.markDirty(i)
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

// kindBit interns a substrate kind name into a mask bit.
func (x *placementIndex) kindBit(kind string) uint32 {
	key := string(substrate.Kind(kind).Normalize())
	if kind == "" {
		key = ""
	}
	if b, ok := x.kindBits[key]; ok {
		return b
	}
	if x.nextBit >= 32 {
		return 1 // out of bits: treat as unknown (never wrongly pruned)
	}
	b := uint32(1) << x.nextBit
	x.nextBit++
	x.kindBits[key] = b
	return b
}

// compatMask returns the set of leaf kind bits a spec of the given
// substrate kind may land on, mirroring substrateCompatible: an empty spec
// kind matches everything, otherwise unknown-kind nodes plus same-kind
// nodes.
func (x *placementIndex) compatMask(kind string) uint32 {
	if kind == "" {
		return ^uint32(0)
	}
	return 1 | x.kindBit(kind)
}

// flush re-reads every dirty leaf through its (possibly wrapped) node and
// recomputes its path to the root in the bounds tree and in every demand
// tree. Called at the top of every query, so the trees always reflect the
// controllers' current memoized vectors.
func (x *placementIndex) flush() {
	if len(x.dirty) == 0 {
		return
	}
	for _, i := range x.dirty {
		x.isDirty[i] = false
		s := x.servers[i]
		free := s.Free()
		ceil := s.PreemptableCeiling()
		x.agg[x.p+i] = pidxAgg{
			maxPV:      placementVector(s, LaunchSpec{}),
			maxFreeNrm: free.Norm(),
			maxCeil:    ceil,
			maxCeilNrm: ceil.Norm(),
			kinds:      x.kindBit(nodeSubstrate(s)),
		}
		for j := (x.p + i) / 2; j >= 1; j /= 2 {
			x.agg[j] = mergeAgg(x.agg[2*j], x.agg[2*j+1])
		}
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

// demand returns the tree for spec's demand, current as of the last flush.
// On a miss it fills the least recently used tree (or a new one, below
// pidxDemandTrees) from every server.
func (x *placementIndex) demand(spec LaunchSpec, freeOnly bool) *demandTree {
	x.clock++
	lru := 0
	for k := range x.demands {
		t := &x.demands[k]
		if t.spec.Size == spec.Size && t.spec.Substrate == spec.Substrate && t.freeOnly == freeOnly {
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
	t.spec = LaunchSpec{Size: spec.Size, Substrate: spec.Substrate}
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

// bestFitQuery is one descent of a demand tree.
type bestFitQuery struct {
	x       *placementIndex
	m       *Manager
	val     []float64
	best    int     // winner so far, -1 for none
	bestVal float64 // its value; -1 matches nothing a scan would pick
}

func (q *bestFitQuery) walk(node, lo, hi int) {
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

// bestFit is the indexed twin of Manager.bestFit: highest fitness among
// alive feasible servers, earliest index on ties.
func (x *placementIndex) bestFit(m *Manager, spec LaunchSpec) int {
	x.flush()
	q := bestFitQuery{x: x, m: m, val: x.demand(spec, m.freeOnlyFitness).val, best: -1, bestVal: -1}
	q.walk(1, 0, x.p)
	return q.best
}

// worstFit is the indexed twin of Manager.worstFit: most free-vector
// magnitude among alive feasible servers, earliest index on ties.
func (x *placementIndex) worstFit(m *Manager, spec LaunchSpec) int {
	x.flush()
	compat := x.compatMask(spec.Substrate)
	best, bestRoom := -1, -1.0
	var walk func(node, lo, hi int)
	walk = func(node, lo, hi int) {
		if lo >= x.n {
			return
		}
		agg := &x.agg[node]
		if agg.kinds&compat == 0 || !spec.Size.Fits(agg.maxPV) {
			return
		}
		if agg.maxFreeNrm+pidxSlack <= bestRoom {
			return
		}
		if hi-lo == 1 {
			s := m.servers[lo]
			if !m.alive(lo) || !feasible(s, spec) {
				return
			}
			if r := s.Free().Norm(); r > bestRoom {
				best, bestRoom = lo, r
			}
			return
		}
		mid := (lo + hi) / 2
		walk(2*node, lo, mid)
		walk(2*node+1, mid, hi)
	}
	walk(1, 0, x.p)
	return best
}

// firstFit is the indexed twin of the FirstFit scan: the lowest-indexed
// alive feasible server.
func (x *placementIndex) firstFit(m *Manager, spec LaunchSpec) int {
	x.flush()
	compat := x.compatMask(spec.Substrate)
	var walk func(node, lo, hi int) int
	walk = func(node, lo, hi int) int {
		if lo >= x.n {
			return -1
		}
		agg := &x.agg[node]
		if agg.kinds&compat == 0 || !spec.Size.Fits(agg.maxPV) {
			return -1
		}
		if hi-lo == 1 {
			if m.alive(lo) && feasible(m.servers[lo], spec) {
				return lo
			}
			return -1
		}
		mid := (lo + hi) / 2
		if i := walk(2*node, lo, mid); i >= 0 {
			return i
		}
		return walk(2*node+1, mid, hi)
	}
	return walk(1, 0, x.p)
}

// preemptFallback is the indexed twin of Manager.preemptFallback: among
// alive preempt-feasible servers, the one whose preemptable ceiling has
// the largest magnitude, earliest index on ties.
func (x *placementIndex) preemptFallback(m *Manager, spec LaunchSpec) int {
	if spec.Priority != vm.HighPriority {
		return -1 // preemptFeasible is false everywhere
	}
	x.flush()
	compat := x.compatMask(spec.Substrate)
	best, bestNorm := -1, 0.0
	var walk func(node, lo, hi int)
	walk = func(node, lo, hi int) {
		if lo >= x.n {
			return
		}
		agg := &x.agg[node]
		if agg.kinds&compat == 0 || !spec.Size.Fits(agg.maxCeil) {
			return
		}
		if best >= 0 && agg.maxCeilNrm <= bestNorm {
			return // a fresh leaf norm equals its cached norm bit for bit
		}
		if hi-lo == 1 {
			s := m.servers[lo]
			if !m.alive(lo) || !preemptFeasible(s, spec) {
				return
			}
			if c := s.PreemptableCeiling(); best < 0 || c.Norm() > bestNorm {
				best, bestNorm = lo, c.Norm()
			}
			return
		}
		mid := (lo + hi) / 2
		walk(2*node, lo, mid)
		walk(2*node+1, mid, hi)
	}
	walk(1, 0, x.p)
	return best
}

package cluster

import (
	"slices"

	"deflation/internal/restypes"
	"deflation/internal/stats"
	"deflation/internal/vm"
)

// stateSampler is RunSim's cluster-state sampler: after warmup, on every
// every-th admission, it records the cluster and per-server overcommitment
// and the running VMs' throughput, and reports their means at the end.
//
// A pass costs what changed since the last one. Each server's
// overcommitment and VM throughputs (an Env and a utility-curve evaluation
// per VM) are memoized and re-read only for servers whose capacity watcher
// fired since the last pass; notifyCapacity is the only invalidation signal:
// every command that changes a VM's allocation or guest state, or a node's
// crash state, must end with it. A pass then adds the cached values flat,
// server by server and VM by VM in name order — the summation order of a
// full walk, so the float sums are bit-identical to recomputing everything
// (per-server subtotals would reassociate them). The running sums before
// each server are kept, so the flat sum resumes at the lowest dirty server:
// the prefix before it would add the same floats in the same order.
type stateSampler struct {
	servers       []*LocalController
	memo          []serverMemo
	firstDirty    int             // lowest index of a dirty memo; len(memo) if none
	prefix        []runningSums   // prefix[i]: the sums over servers [0, i) as of the last pass
	sortedOC      []float64       // every memo's oc, ascending: Snapshot's ServerOvercommitment
	capacity      restypes.Vector // of the whole cluster
	warmup, every int             // admissions skipped as ramp-up; cadence after

	oc, srvMean, srvP95, lowTp, gp []float64 // one entry per pass

	// evaluated counts server re-evaluations over all passes; check, nil
	// outside tests, is called at the end of every pass with the pass's
	// sums.
	evaluated int
	check     func(gp, tpSum float64, tpN int)
}

// serverMemo is one server's state as of its last evaluation.
type serverMemo struct {
	dirty bool      // the capacity watcher fired since
	oc    float64   // Capacity().Overcommitment as the leader's node reads it
	tp    []float64 // Throughput() per VM, in VMs() order
	lowTp []float64 // the low-priority VMs' entries of tp, in the same order
}

// runningSums are a pass's flat sums up to some server.
type runningSums struct {
	oc, gp, tpSum float64
	tpN           int
}

func newStateSampler(servers []*LocalController, capacity restypes.Vector, events, every int) *stateSampler {
	s := &stateSampler{servers: servers, memo: make([]serverMemo, len(servers)),
		// Every memo's oc starts at 0, so n zeros are already its sorted set.
		prefix: make([]runningSums, len(servers)+1), sortedOC: make([]float64, len(servers)),
		capacity: capacity, warmup: events / 4, every: every}
	// Pre-size the sample buffers so the hot loop appends without growing.
	n := (events-s.warmup)/every + 1
	s.oc, s.srvMean, s.srvP95 = make([]float64, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	s.lowTp, s.gp = make([]float64, 0, n), make([]float64, 0, n)
	for i, srv := range servers {
		s.memo[i].dirty = true
		srv.WatchCapacity(func() {
			s.memo[i].dirty = true
			s.firstDirty = min(s.firstDirty, i)
		})
	}
	return s
}

// admission runs a sampling pass if the admitted-th admission is due one.
// nominal is the admitted nominal load; mgr is the current leader, whose
// nodes are read for overcommitment (a crashed node reads 0), as Snapshot
// would read them.
func (s *stateSampler) admission(admitted int, nominal restypes.Vector, mgr *Manager) {
	if admitted < s.warmup || (admitted-s.warmup)%s.every != 0 {
		return
	}
	s.oc = append(s.oc, overcommitOf(nominal, s.capacity))
	first := s.firstDirty
	s.firstDirty = len(s.memo)
	sum := s.prefix[first]
	for i := first; i < len(s.memo); i++ {
		m := &s.memo[i]
		if m.dirty {
			s.evaluate(i, mgr)
		}
		sum.oc += m.oc
		for _, tp := range m.tp {
			sum.gp += tp
		}
		for _, tp := range m.lowTp {
			sum.tpSum += tp
		}
		sum.tpN += len(m.lowTp)
		s.prefix[i+1] = sum
	}
	// Snapshot's mean: the flat sum in server order over the fleet size.
	s.srvMean = append(s.srvMean, sum.oc/float64(len(s.memo)))
	s.srvP95 = append(s.srvP95, stats.Quantile(s.sortedOC, 0.95))
	if sum.tpN > 0 {
		s.lowTp = append(s.lowTp, sum.tpSum/float64(sum.tpN))
	}
	s.gp = append(s.gp, sum.gp)
	if s.check != nil {
		s.check(sum.gp, sum.tpSum, sum.tpN)
	}
}

// evaluate re-reads server i into its memo and moves its overcommitment to
// its new rank in sortedOC.
func (s *stateSampler) evaluate(i int, mgr *Manager) {
	m := &s.memo[i]
	m.dirty, m.tp, m.lowTp = false, m.tp[:0], m.lowTp[:0]
	s.evaluated++
	for _, v := range s.servers[i].VMs() {
		tp := v.Throughput()
		m.tp = append(m.tp, tp)
		if v.Priority() == vm.LowPriority {
			m.lowTp = append(m.lowTp, tp)
		}
	}
	old := m.oc
	sum, _ := mgr.servers[i].Capacity()
	if m.oc = sum.Overcommitment; m.oc != old {
		k, _ := slices.BinarySearch(s.sortedOC, old)
		s.sortedOC = slices.Delete(s.sortedOC, k, k+1)
		k, _ = slices.BinarySearch(s.sortedOC, m.oc)
		s.sortedOC = slices.Insert(s.sortedOC, k, m.oc)
	}
}

// report writes the means over all passes into res.
func (s *stateSampler) report(res *SimResult) {
	res.AchievedOvercommit = stats.Mean(s.oc)
	res.ServerOvercommitMean = stats.Mean(s.srvMean)
	res.ServerOvercommitP95 = stats.Mean(s.srvP95)
	res.MeanLowThroughput = stats.Mean(s.lowTp)
	res.Goodput = stats.Mean(s.gp)
}

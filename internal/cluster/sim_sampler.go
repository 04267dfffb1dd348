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
// fired since the last pass; notifyCapacity is the server's invalidation
// signal: every command that changes a VM's allocation or guest state, or a
// node's crash state, must end with it. Within a re-read server, a VM keeps
// its memoized throughput while it is the same VM at the same
// vm.VM.Generation: most commands resize a few of a server's VMs, not all.
// A pass then adds the cached values flat, server by server and VM by VM
// in name order — the summation order of a full walk, so the float sums are
// bit-identical to recomputing everything (per-server subtotals would
// reassociate them). The running sums before each server are kept, so the
// flat sum resumes at the lowest dirty server: the prefix before it would
// add the same floats in the same order.
type stateSampler struct {
	servers       []*LocalController
	memo          []serverMemo
	firstDirty    int             // lowest index of a dirty memo; len(memo) if none
	prefix        []runningSums   // prefix[i]: the sums over servers [0, i) as of the last pass
	sortedOC      []float64       // every memo's oc, ascending: Snapshot's ServerOvercommitment
	capacity      restypes.Vector // of the whole cluster
	warmup, every int             // admissions skipped as ramp-up; cadence after

	oc, srvMean, srvP95, lowTp, gp []float64 // one entry per pass

	prev []vmMemo // evaluate's copy of the memo it rebuilds, reused

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
	vms   []vmMemo  // one per VM, in VMs() order
	lowTp []float64 // the low-priority VMs' throughputs, in the same order
}

// vmMemo is one VM as its server's last evaluation saw it: its Generation
// and Throughput() then.
type vmMemo struct {
	v   *vm.VM
	gen uint64
	tp  float64
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
		// The two sums are separate chains of dependent adds; walking them
		// in lockstep lets one's add run while the other's waits, and each
		// still adds its own values in order.
		vms, low := m.vms, m.lowTp // low is no longer than vms
		for j, x := range low {
			sum.gp += vms[j].tp
			sum.tpSum += x
		}
		for _, e := range vms[len(low):] {
			sum.gp += e.tp
		}
		sum.tpN += len(low)
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
// its new rank in sortedOC. A VM the last evaluation saw, at the generation
// it saw, keeps its throughput; the walk matches old and new VMs by
// pointer, both lists being in name order.
func (s *stateSampler) evaluate(i int, mgr *Manager) {
	m := &s.memo[i]
	m.dirty = false
	s.evaluated++
	prev := append(s.prev[:0], m.vms...)
	s.prev = prev
	m.vms, m.lowTp = m.vms[:0], m.lowTp[:0]
	k := 0
	for _, v := range s.servers[i].VMs() {
		for k < len(prev) && prev[k].v != v && prev[k].v.Name() < v.Name() {
			k++ // gone since
		}
		e := vmMemo{v: v, gen: v.Generation()}
		seen := k < len(prev) && prev[k].v == v
		if seen && prev[k].gen == e.gen {
			e.tp = prev[k].tp
		} else {
			e.tp = v.Throughput()
		}
		if seen {
			k++
		}
		m.vms = append(m.vms, e)
		if v.Priority() == vm.LowPriority {
			m.lowTp = append(m.lowTp, e.tp)
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

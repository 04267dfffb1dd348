package cluster

import (
	"deflation/internal/restypes"
	"deflation/internal/stats"
	"deflation/internal/vm"
)

// stateSampler is RunSim's cluster-state sampler: after warmup, on every
// every-th admission, it records the cluster and per-server overcommitment
// and the running VMs' throughput, and reports their means at the end.
//
// Throughput is the expensive part (an Env and a utility-curve evaluation
// per VM), so it is memoized per server and re-evaluated only for servers
// whose capacity watcher fired since the last pass. notifyCapacity is the
// only invalidation signal: every command that changes a VM's allocation or
// guest state must end with it. A pass then adds the cached values flat,
// server by server and VM by VM in name order — the summation order of a
// full walk, so the float sums are bit-identical to recomputing everything
// (per-server subtotals would reassociate them).
type stateSampler struct {
	servers       []*LocalController
	memo          []serverMemo
	capacity      restypes.Vector // of the whole cluster
	warmup, every int             // admissions skipped as ramp-up; cadence after

	oc, srvMean, srvP95, lowTp, gp []float64 // one entry per pass

	// evaluated counts server re-evaluations over all passes; check, nil
	// outside tests, is called at the end of every pass with the current
	// leader and the pass's sums.
	evaluated int
	check     func(s *stateSampler, mgr *Manager, gp, tpSum float64, tpN int)
}

// serverMemo is one server's VMs' throughputs as of its last evaluation.
type serverMemo struct {
	dirty bool      // the capacity watcher fired since
	tp    []float64 // Throughput() per VM, in VMs() order
	low   []bool    // same shape: the VM is low-priority
}

func newStateSampler(servers []*LocalController, capacity restypes.Vector, events, every int) *stateSampler {
	s := &stateSampler{servers: servers, memo: make([]serverMemo, len(servers)),
		capacity: capacity, warmup: events / 4, every: every}
	// Pre-size the sample buffers so the hot loop appends without growing.
	n := (events-s.warmup)/every + 1
	s.oc, s.srvMean, s.srvP95 = make([]float64, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	s.lowTp, s.gp = make([]float64, 0, n), make([]float64, 0, n)
	for i, srv := range servers {
		s.memo[i].dirty = true
		srv.WatchCapacity(func() { s.memo[i].dirty = true })
	}
	return s
}

// admission runs a sampling pass if the admitted-th admission is due one.
// nominal is the admitted nominal load; mgr is the current leader.
func (s *stateSampler) admission(admitted int, nominal restypes.Vector, mgr *Manager) {
	if admitted < s.warmup || (admitted-s.warmup)%s.every != 0 {
		return
	}
	s.oc = append(s.oc, overcommitOf(nominal, s.capacity))
	snap := mgr.Snapshot()
	s.srvMean = append(s.srvMean, snap.MeanOvercommitment)
	s.srvP95 = append(s.srvP95, stats.Quantile(snap.ServerOvercommitment, 0.95))
	var tpSum, gp float64
	tpN := 0
	for i := range s.memo {
		m := &s.memo[i]
		if m.dirty {
			m.dirty, m.tp, m.low = false, m.tp[:0], m.low[:0]
			s.evaluated++
			for _, v := range s.servers[i].VMs() {
				m.tp = append(m.tp, v.Throughput())
				m.low = append(m.low, v.Priority() == vm.LowPriority)
			}
		}
		for k, tp := range m.tp {
			gp += tp
			if m.low[k] {
				tpSum += tp
				tpN++
			}
		}
	}
	if tpN > 0 {
		s.lowTp = append(s.lowTp, tpSum/float64(tpN))
	}
	s.gp = append(s.gp, gp)
	if s.check != nil {
		s.check(s, mgr, gp, tpSum, tpN)
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

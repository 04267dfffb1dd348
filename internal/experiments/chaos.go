package experiments

import (
	"strconv"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/faults"
)

// chaos sweeps the Fig. 8c trace-driven deflation cluster over node-failure
// rate × overcommitment with the fault-tolerant control plane (heartbeat
// failure detection, eviction and re-placement). It reports preemption
// probability (Fig. 8c's metric extended to failures), cluster goodput and
// the crashes injected, one series per fault rate.
//
// A nonzero rate crashes each node rate times a day on average, keeps it
// down for the recovery time, crash-restarts the manager from its
// write-ahead journal every manager MTBF, and fails each cascade level
// (agent failure, agent hang, partial hot-unplug) with probability 0.02.
// The zero-rate row injects nothing, so it is exactly the Fig. 8c
// deflation baseline.
func chaos(o Options) (Result, error) {
	rates, recovery, mgrMTBF := []float64{0, 1, 4, 16}, time.Duration(0), time.Hour
	if o.Quick {
		rates, recovery, mgrMTBF = []float64{0, 8, 32}, 2*time.Minute, 30*time.Minute
	}
	var rows []simRow
	for _, rate := range rates {
		name := "no faults"
		if rate > 0 {
			name = strconv.FormatFloat(rate, 'g', -1, 64) + "/node/day"
		}
		rows = append(rows, simRow{name, func(c *cluster.SimConfig) {
			c.Mode = cluster.ModeDeflation
			if rate > 0 {
				c.Faults = faults.Config{
					CrashMTBF:        time.Duration(float64(24*time.Hour) / rate),
					RecoveryTime:     recovery,
					ManagerCrashMTBF: mgrMTBF,
					AgentFailProb:    0.02,
					AgentHangProb:    0.02,
					OSFailProb:       0.02,
				}
			}
		}})
	}
	return simSweep(o, "chaos", simBase(o.Quick), overcommits(o, 1.1, 1.3, 1.5, 1.7, 1.9), rows, []simPanel{
		{"Chaos: preemption probability vs overcommitment by node-failure rate", preemption},
		{"Chaos: cluster goodput (aggregate normalized throughput)", goodput},
		{"Chaos: node crashes injected", func(r cluster.SimResult) float64 { return float64(r.NodeCrashes) }},
	})
}

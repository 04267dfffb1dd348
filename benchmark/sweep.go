package main

import (
	"fmt"

	"deflation/internal/cluster"
	"deflation/internal/restypes"
)

// sweepInput is the plane's state after a run: what the driver believes is
// resident, what each agent says it runs, and what each shard has journaled.
type sweepInput struct {
	Resident []string            // acked and not released
	Agents   []cluster.NodeState // one per agent
	Capacity restypes.Vector     // of every agent
	Shards   []map[string]string // per shard: VM → node
}

// sweep checks the resource arithmetic after a plane workload: every resident
// VM is on exactly one agent and in exactly one shard's placements (and they
// agree), no agent runs anything else, no agent's allocations exceed its
// capacity, and no VM is below its minimum size. It returns the violations
// and the mean deflation over all VMs (the largest shortfall of allocation
// against size over the four resources, in percent).
func sweep(in sweepInput) (violations []string, meanDeflationPct float64) {
	bad := func(format string, args ...any) { violations = append(violations, fmt.Sprintf(format, args...)) }
	const eps = 1e-6

	onAgent := make(map[string][]string) // VM → agents running it
	var deflation float64
	vms := 0
	for _, a := range in.Agents {
		var alloc restypes.Vector
		for _, v := range a.VMs {
			onAgent[v.Name] = append(onAgent[v.Name], a.Name)
			alloc = alloc.Add(v.Allocation)
			if !v.MinSize.Fits(v.Allocation.Add(restypes.Uniform(eps))) {
				bad("VM %s on %s is below its minimum size: allocation %v, minimum %v", v.Name, a.Name, v.Allocation, v.MinSize)
			}
			deflation += restypes.Uniform(1).Sub(v.Allocation.FractionOf(v.Size)).MaxComponent()
			vms++
		}
		if !alloc.Fits(in.Capacity.Scale(1 + eps)) {
			bad("agent %s allocates %v of capacity %v", a.Name, alloc, in.Capacity)
		}
	}
	inShard := make(map[string][]string) // VM → nodes the shards place it on
	for _, placements := range in.Shards {
		for name, node := range placements {
			inShard[name] = append(inShard[name], node)
		}
	}

	resident := make(map[string]bool, len(in.Resident))
	for _, name := range in.Resident {
		resident[name] = true
		agents, nodes := onAgent[name], inShard[name]
		switch {
		case len(agents) != 1:
			bad("resident VM %s runs on %d agents %v, want exactly one", name, len(agents), agents)
		case len(nodes) != 1:
			bad("resident VM %s is placed by %d shards %v, want exactly one", name, len(nodes), nodes)
		case agents[0] != nodes[0]:
			bad("resident VM %s runs on %s but its shard places it on %s", name, agents[0], nodes[0])
		}
	}
	for name, agents := range onAgent {
		if !resident[name] {
			bad("VM %s on %v was released or never acked", name, agents)
		}
	}
	for name := range inShard {
		if !resident[name] {
			bad("a shard still places VM %s, which was released or never acked", name)
		}
	}
	if vms > 0 {
		meanDeflationPct = 100 * deflation / float64(vms)
	}
	return violations, meanDeflationPct
}

package cluster

import (
	"time"

	"deflation/internal/restypes"
)

// crashableNode wraps a LocalController with a crash-stop switch, used by
// fault-injecting simulations (SimConfig.Faults) and tests. While down, every
// control-plane operation fails with ErrNodeDown and its capacity is unknown,
// so the manager's placement policies and failure detector see exactly what
// they would see from an unreachable server. Crashing wipes the node's VMs —
// crash-stop failures lose all memory state — so a recovered node rejoins
// empty.
type crashableNode struct {
	*LocalController
	down bool
}

func newCrashableNode(c *LocalController) *crashableNode {
	return &crashableNode{LocalController: c}
}

// crash takes the node down, killing its VMs.
func (n *crashableNode) crash() {
	n.down = true
	n.LocalController.FailAll() // FailAll notifies capacity watchers
}

// recover brings the node back, empty.
func (n *crashableNode) recover() {
	n.down = false
	n.capacityChanged()
}

func (n *crashableNode) Ping() error {
	if n.down {
		return ErrNodeDown
	}
	return n.LocalController.Ping()
}

func (n *crashableNode) Launch(spec LaunchSpec) (LaunchReport, error) {
	if n.down {
		return LaunchReport{}, ErrNodeDown
	}
	return n.LocalController.Launch(spec)
}

func (n *crashableNode) Release(name string) error {
	if n.down {
		return ErrNodeDown
	}
	return n.LocalController.Release(name)
}

func (n *crashableNode) Has(name string) (bool, error) {
	if n.down {
		return false, ErrNodeDown
	}
	return n.LocalController.Has(name)
}

func (n *crashableNode) Inventory() ([]VMState, error) {
	if n.down {
		return nil, ErrNodeDown
	}
	return n.LocalController.Inventory()
}

// Capacity implements Node: while down, the vectors and overcommitment read
// zero and the capacity is unknown. Mode, Preemptions and Substrate keep
// their values, so the manager still counts the server's past preemptions.
func (n *crashableNode) Capacity() (CapacitySummary, bool) {
	sum, _ := n.LocalController.Capacity()
	if !n.down {
		return sum, true
	}
	sum.Free, sum.Availability, sum.PreemptableCeiling = restypes.Vector{}, restypes.Vector{}, restypes.Vector{}
	sum.Overcommitment = 0
	return sum, false
}

func (n *crashableNode) Checkpoint(name string) (VMCheckpoint, error) {
	if n.down {
		return VMCheckpoint{}, ErrNodeDown
	}
	return n.LocalController.Checkpoint(name)
}

func (n *crashableNode) RestoreVM(cp VMCheckpoint) error {
	if n.down {
		return ErrNodeDown
	}
	return n.LocalController.RestoreVM(cp)
}

func (n *crashableNode) ReserveStream(stream string, rateMBps float64) (float64, error) {
	if n.down {
		return 0, ErrNodeDown
	}
	return n.LocalController.ReserveStream(stream, rateMBps)
}

func (n *crashableNode) ReleaseStream(stream string) error {
	if n.down {
		return ErrNodeDown
	}
	return n.LocalController.ReleaseStream(stream)
}

func (n *crashableNode) DeflateFully(name string) (time.Duration, error) {
	if n.down {
		return 0, ErrNodeDown
	}
	return n.LocalController.DeflateFully(name)
}

package cluster

// isolate partitions the node away without killing its VMs — the manager
// sees a dead node, but the workloads keep running (an agent that outlived
// its network, or a manager that outlived its agent). heal reconnects it,
// VMs intact, so rejoin reconciliation can re-adopt them.
func (n *crashableNode) isolate() {
	n.down = true
	n.capacityChanged()
}

// heal ends an isolate partition.
func (n *crashableNode) heal() {
	n.down = false
	n.capacityChanged()
}

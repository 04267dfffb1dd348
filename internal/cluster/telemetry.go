package cluster

import (
	"time"

	"deflation/internal/restypes"
	"deflation/internal/telemetry"
)

// This file wires the control plane into internal/telemetry. The split
// follows the concurrency model: counters and histograms are atomic and may
// be bumped from anywhere (Manager, LocalController, and the sim are
// single-threaded by design, RemoteNode is not), while GaugeFuncs read
// mutable controller/manager state and are therefore registered only at the
// API layer, where their closures serialize through the same mutex as every
// other access.

// SetTelemetry instruments the controller's cascade: per-level latencies,
// reclaimed amounts, failures, shortfalls, and one trace event per
// deflation/reinflation decision, labeled with this server's name. A nil
// sink detaches.
func (c *LocalController) SetTelemetry(sink *telemetry.Sink) {
	c.casc.SetTelemetry(sink, c.host.Name())
}

// eventCounters is the counter each counted event kind bumps (see emit).
var eventCounters = []struct {
	kind       EventKind
	name, help string
}{
	{NodeDown, "deflation_manager_node_down_total", "nodes declared dead after consecutive heartbeat misses"},
	{NodeUp, "deflation_manager_node_up_total", "dead nodes that answered a heartbeat and rejoined"},
	{VMEvicted, "deflation_manager_evictions_total", "VMs declared lost-in-place on dead nodes (failure-induced preemptions)"},
	{VMReplaced, "deflation_manager_vm_replaced_total", "evicted VMs successfully re-launched on healthy nodes"},
	{VMLost, "deflation_manager_vm_lost_total", "evicted VMs no healthy node could host"},
	{VMAdopted, "deflation_manager_vm_adopted_total", "VMs found running on rejoined nodes and adopted into the placement"},
	{VMStaleReleased, "deflation_manager_vm_stale_released_total", "stale VM copies released from rejoined nodes"},
	{evReject, "deflation_manager_rejections_total", "launches that found no feasible server"},
	{evMigrateDone, "deflation_manager_migrations_total", "live migrations completed"},
	{evMigrateFail, "deflation_manager_migration_failures_total", "live migrations aborted (fault, capacity, or checkpoint failure)"},
}

// managerTelemetry is the manager's pre-created instrument set.
type managerTelemetry struct {
	events          map[EventKind]*telemetry.Counter // from eventCounters
	heartbeatMisses *telemetry.Counter
	staleRefusals   *telemetry.Counter
	placements      []*telemetry.Counter // by server index
	sink            *telemetry.Sink      // for nodes added later

	// Live-migration instruments (see migrate.go).
	convergenceFailures *telemetry.Counter
	migrationSeconds    *telemetry.Histogram
	migrationDowntime   *telemetry.Histogram
	migratedMB          *telemetry.Histogram
}

// SetTelemetry instruments the manager (heartbeat misses, node up/down
// transitions, evictions and their re-placement outcomes, placement
// decisions per server, rejections) and propagates the sink to every
// managed node that supports instrumentation — in-process LocalControllers
// (including crash-wrapped ones) and RemoteNodes alike. A nil sink
// detaches the manager but not nodes already instrumented.
func (m *Manager) SetTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		m.tel = nil
		return
	}
	r := sink.Registry
	t := &managerTelemetry{
		events: make(map[EventKind]*telemetry.Counter, len(eventCounters)),
		heartbeatMisses: r.Counter("deflation_manager_heartbeat_misses_total",
			"failed heartbeat probes observed by the failure detector", nil),
		staleRefusals: r.Counter("deflation_launch_stale_refusals_total",
			"launches an agent refused after its cached capacity said they fit; the manager re-picked", nil),
		convergenceFailures: r.Counter("deflation_manager_migration_convergence_failures_total",
			"pre-copy migrations whose dirty rate outran the link", nil),
		migrationSeconds: r.Histogram("deflation_manager_migration_seconds",
			"end-to-end live-migration duration (seconds)",
			telemetry.DefBuckets(), nil),
		migrationDowntime: r.Histogram("deflation_manager_migration_downtime_seconds",
			"stop-and-copy downtime per migration (seconds)",
			telemetry.DefBuckets(), nil),
		migratedMB: r.Histogram("deflation_manager_migrated_mb",
			"bytes transferred per migration (MB)",
			telemetry.ExpBuckets(64, 2, 12), nil),
	}
	for _, c := range eventCounters {
		t.events[c.kind] = r.Counter(c.name, c.help, nil)
	}
	t.sink = sink
	t.placements = make([]*telemetry.Counter, len(m.servers))
	for i, s := range m.servers {
		t.placements[i] = r.Counter("deflation_manager_placements_total",
			"placement decisions by chosen server",
			telemetry.Labels{"node": s.Name()})
	}
	m.tel = t
	for _, s := range m.servers {
		if ts, ok := capability[interface{ SetTelemetry(*telemetry.Sink) }](s); ok {
			ts.SetTelemetry(sink)
		}
	}
}

// addNode grows the per-server placement counters when a node registers
// after instrumentation (dynamic membership).
func (t *managerTelemetry) addNode(name string) {
	t.placements = append(t.placements, t.sink.Registry.Counter(
		"deflation_manager_placements_total",
		"placement decisions by chosen server",
		telemetry.Labels{"node": name}))
}

// remoteNodeTelemetry instruments the manager-side RPC client.
type remoteNodeTelemetry struct {
	rpcSeconds      map[string]*telemetry.Histogram // by op
	retries         *telemetry.Counter
	transportErrors *telemetry.Counter
	capacityRefresh map[string]*telemetry.Counter // by source
	capacityUnknown *telemetry.Counter
}

// SetTelemetry instruments the client: one wall-clock latency histogram per
// control-plane operation (covering all retry attempts and backoff), a
// retry counter, a transport-error counter, and the capacity cache's
// refreshes (by source) and unknown-capacity skips, labeled with the remote
// server's name. A nil sink detaches.
func (n *RemoteNode) SetTelemetry(sink *telemetry.Sink) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if sink == nil {
		n.tel = nil
		return
	}
	r := sink.Registry
	t := &remoteNodeTelemetry{
		rpcSeconds: make(map[string]*telemetry.Histogram),
		retries: r.Counter("deflation_rpc_retries_total",
			"control-plane RPC retry attempts (not counting first attempts)",
			telemetry.Labels{"node": n.name}),
		transportErrors: r.Counter("deflation_rpc_transport_errors_total",
			"connection-level RPC failures (refused, dropped, timed out)",
			telemetry.Labels{"node": n.name}),
		capacityRefresh: make(map[string]*telemetry.Counter),
		capacityUnknown: r.Counter("deflation_remote_capacity_unknown_total",
			"placement decisions that skipped this node because its capacity was unknown",
			telemetry.Labels{"node": n.name}),
	}
	for _, src := range []string{capacityFromReply, capacityFromHeartbeat, capacityFromProbe} {
		t.capacityRefresh[src] = r.Counter("deflation_remote_capacity_refresh_total",
			"capacity summaries that changed the manager's cached view of this node",
			telemetry.Labels{"node": n.name, "source": src})
	}
	for _, op := range []string{"state", "launch", "release", "deflate", "ping"} {
		t.rpcSeconds[op] = r.Histogram("deflation_rpc_seconds",
			"control-plane RPC latency including retries and backoff (seconds)",
			telemetry.DefBuckets(), telemetry.Labels{"node": n.name, "op": op})
	}
	n.tel = t
}

// observeRPC records one completed RPC's wall-clock latency.
func (n *RemoteNode) observeRPC(op string, start time.Time) {
	n.mu.Lock()
	t := n.tel
	n.mu.Unlock()
	if t == nil {
		return
	}
	if h, ok := t.rpcSeconds[op]; ok {
		h.Observe(time.Since(start).Seconds())
	}
}

// AttachTelemetry registers scrape-time gauges over the wrapped controller's
// state: capacity, free, allocated, availability, and nominal vectors per
// resource dimension, plus VM count, overcommitment, and preemptions. The
// gauge closures take the API mutex — the LocalController is not itself
// thread-safe, so the gauges must be registered here rather than on the
// controller.
func (a *ControllerAPI) AttachTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	r := sink.Registry
	a.mu.Lock()
	node := a.ctrl.Name()
	a.mu.Unlock()
	vec := func(name, help string, read func(*LocalController) restypes.Vector) {
		for _, k := range restypes.Kinds() {
			k := k
			r.GaugeFunc(name, help, telemetry.Labels{"node": node, "resource": k.String()},
				func() float64 {
					a.mu.Lock()
					defer a.mu.Unlock()
					return read(a.ctrl).At(k)
				})
		}
	}
	vec("deflation_node_capacity", "physical server capacity (cores, MB, MB/s)",
		func(c *LocalController) restypes.Vector { return c.host.Capacity() })
	vec("deflation_node_free", "unallocated physical capacity",
		func(c *LocalController) restypes.Vector { return c.Free() })
	vec("deflation_node_allocated", "current physical allocation across VMs",
		func(c *LocalController) restypes.Vector { return c.host.Allocated() })
	vec("deflation_node_nominal", "sum of the VMs' nominal sizes",
		func(c *LocalController) restypes.Vector { return c.NominalSize() })
	vec("deflation_node_availability", "placement availability: free + deflatable",
		func(c *LocalController) restypes.Vector { return c.memo().sum.Availability })
	scalar := func(name, help string, read func(*LocalController) float64) {
		r.GaugeFunc(name, help, telemetry.Labels{"node": node}, func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return read(a.ctrl)
		})
	}
	scalar("deflation_node_vms", "VMs currently running on this server",
		func(c *LocalController) float64 { return float64(c.vms.Len()) })
	scalar("deflation_node_overcommitment", "nominal load over capacity on the binding dimension",
		func(c *LocalController) float64 { return c.memo().sum.Overcommitment })
	scalar("deflation_node_preemptions", "capacity-driven preemptions this server has performed",
		func(c *LocalController) float64 { return float64(c.preemptions) })
	// Fencing gauges read the epoch guard, which has its own mutex.
	r.GaugeFunc("deflation_node_fenced_epoch", "highest leadership epoch this controller has obeyed",
		telemetry.Labels{"node": node}, func() float64 { return float64(a.guard.Current()) })
	r.GaugeFunc("deflation_node_stale_epoch_rejections", "mutating commands refused for carrying a deposed leader's epoch",
		telemetry.Labels{"node": node}, func() float64 { return float64(a.guard.StaleRejections()) })
}

// AttachTelemetry registers scrape-time gauges over the manager's aggregate
// view (placed VMs, rejections, preemptions, failure-detector state, and
// cluster overcommitment). The closures take the API mutex, mirroring
// ControllerAPI.AttachTelemetry.
func (a *ManagerAPI) AttachTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	r := sink.Registry
	scalar := func(name, help string, read func(*Manager) float64) {
		r.GaugeFunc(name, help, nil, func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return read(a.mgr)
		})
	}
	scalar("deflation_cluster_vms", "VMs currently placed cluster-wide",
		func(m *Manager) float64 { return float64(len(m.fold.Placements)) })
	scalar("deflation_cluster_rejections", "launches that found no feasible server",
		func(m *Manager) float64 { return float64(m.fold.Rejected) })
	scalar("deflation_cluster_preemptions", "capacity-driven preemptions across all servers",
		func(m *Manager) float64 { return float64(m.Preemptions()) })
	scalar("deflation_cluster_dead_servers", "servers currently marked dead",
		func(m *Manager) float64 { return float64(m.DeadServers()) })
	scalar("deflation_cluster_failure_preemptions", "VMs killed by node failures",
		func(m *Manager) float64 { return float64(m.fold.FailurePreemptions) })
	scalar("deflation_cluster_replaced_vms", "failure-evicted VMs re-placed on healthy nodes",
		func(m *Manager) float64 { return float64(m.fold.Replaced) })
	scalar("deflation_cluster_lost_vms", "failure-evicted VMs that could not be re-placed",
		func(m *Manager) float64 { return float64(m.fold.Lost) })
	scalar("deflation_cluster_adopted_vms", "VMs adopted from node inventories by reconciliation",
		func(m *Manager) float64 { return float64(m.fold.Adopted) })
	scalar("deflation_cluster_stale_releases", "stale VM copies released by reconciliation",
		func(m *Manager) float64 { return float64(m.fold.StaleReleased) })
	scalar("deflation_cluster_mean_overcommitment", "mean server overcommitment",
		func(m *Manager) float64 { mean, _ := m.overcommitment(nil); return mean })
	scalar("deflation_cluster_max_overcommitment", "max server overcommitment",
		func(m *Manager) float64 { _, max := m.overcommitment(nil); return max })
	scalar("deflation_manager_epoch", "this manager's leadership fencing epoch",
		func(m *Manager) float64 { return float64(m.epoch) })
	scalar("deflation_cluster_nodes", "nodes currently managed (static + registered)",
		func(m *Manager) float64 { return float64(len(m.servers)) })
	a.mu.Lock()
	a.hbTel = r.Counter("deflation_manager_node_heartbeats_total",
		"push heartbeats received from registered agents", nil)
	a.mu.Unlock()
}

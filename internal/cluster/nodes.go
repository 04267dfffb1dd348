package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"deflation/internal/telemetry"
)

// This file is dynamic fleet membership: agents register themselves with a
// running manager (POST /v1/nodes) instead of being listed on the command
// line, the registration is journaled (node-add) so recovery and
// cross-shard adoption re-dial the same fleet, and agents heartbeat their
// owning manager (POST /v1/nodes/{name}/heartbeat) — a 404 tells an agent
// its shard assignment moved and it must re-resolve the shard map.

// AddNode registers a node with the running manager and journals the
// registration. Registration is idempotent: re-announcing the same
// name+URL is a no-op, and a changed URL (agent restarted elsewhere)
// replaces the client and re-journals. A node that arrives with VMs
// already running — re-registration with an adopting manager — has its
// inventory reconciled into the placement rather than being assumed
// empty.
func (m *Manager) AddNode(n Node, url string) error {
	name := n.Name()
	if name == "" {
		return fmt.Errorf("cluster: cannot register a node without a name")
	}
	if idx, ok := m.index[name]; ok {
		if m.fold.Nodes[name] != url {
			m.servers[idx] = n
			m.reindex() // the replaced node object would strand the old watcher
			m.propagateTerm(n)
			m.emit(Event{Kind: evNodeAdd, Node: name, URL: url})
		}
		if m.health[idx].dead {
			// The failure detector had written it off; a registration is
			// proof of life, and its inventory is ground truth.
			m.health[idx].misses = 0
			m.emit(Event{Kind: NodeUp, Node: name})
			m.reconcileNode(idx, nil)
		}
		return nil
	}
	m.index[name] = len(m.servers)
	m.servers = append(m.servers, n)
	m.health = append(m.health, nodeHealth{dead: m.fold.Dead[name]})
	m.reindex()
	m.propagateTerm(n)
	if m.tel != nil {
		m.tel.addNode(name)
	}
	m.emit(Event{Kind: evNodeAdd, Node: name, URL: url})
	// The node may arrive with VMs already running (an agent that outlived
	// its manager, now registering with the adopter): fold its inventory in.
	m.reconcileNode(len(m.servers)-1, nil)
	return nil
}

// HasNode reports whether the manager currently manages the named node.
func (m *Manager) HasNode(name string) bool {
	_, ok := m.index[name]
	return ok
}

// NodeURLs returns the dynamically registered agents (name → control
// endpoint), a copy. Statically configured servers are not included.
func (m *Manager) NodeURLs() map[string]string {
	out := make(map[string]string, len(m.fold.Nodes))
	for name, url := range m.fold.Nodes {
		out[name] = url
	}
	return out
}

// propagateTerm stamps the manager's current fencing term, and its
// telemetry sink, onto a node client that understands them, mirroring what
// SetEpoch/SetIdentity/SetTelemetry do for the whole fleet.
func (m *Manager) propagateTerm(n Node) {
	if ts, ok := capability[interface{ SetTelemetry(*telemetry.Sink) }](n); ok && m.tel != nil {
		ts.SetTelemetry(m.tel.sink)
	}
	if m.id != "" {
		if is, ok := n.(interface{ SetLeaderID(string) }); ok {
			is.SetLeaderID(m.id)
		}
	}
	if m.epoch > 0 {
		if es, ok := n.(interface{ SetEpoch(uint64) }); ok {
			es.SetEpoch(m.epoch)
		}
	}
}

// RegisterNodeRequest announces an agent to its owning manager.
type RegisterNodeRequest struct {
	// Name is the agent's server name. Optional: when empty the manager
	// probes the URL's /v1/state for it (one extra round trip).
	Name string `json:"name,omitempty"`
	// URL is the agent's control endpoint, e.g. http://10.0.0.7:7070.
	URL string `json:"url"`
}

func (r *RegisterNodeRequest) validate() error {
	if r.URL == "" {
		return errors.New("cluster: node registration needs a url")
	}
	return nil
}

// RegisterNodeResponse acknowledges a durably journaled registration.
type RegisterNodeResponse struct {
	Name string `json:"name"`
	// Epoch is the manager's current leadership term, so freshly registered
	// agents learn the fence without waiting for the first command.
	Epoch uint64 `json:"epoch,omitempty"`
}

// NodeListResponse is the manager's registered-fleet view.
type NodeListResponse struct {
	Nodes map[string]string `json:"nodes"` // name → URL ("" = static)
	// LastHeartbeat is seconds since each node's last push heartbeat
	// (absent for nodes that have never heartbeated).
	LastHeartbeat map[string]float64 `json:"last_heartbeat_seconds,omitempty"`
	// Capacity is the state of each remote node's pushed capacity summary,
	// the manager's only source for placement (absent for in-process nodes).
	Capacity map[string]NodeCapacityStatus `json:"capacity,omitempty"`
}

// NodeCapacityStatus describes the capacity summary cached for one node.
type NodeCapacityStatus struct {
	// Generation is the agent's capacity-change counter at the summary.
	Generation uint64 `json:"generation"`
	// AgeSeconds is the time since a reply, heartbeat or probe last
	// confirmed the summary (0 when none ever arrived).
	AgeSeconds float64 `json:"age_seconds"`
	// Known is false while the node is skipped by placement: nothing has
	// arrived yet, or an RPC to the node has failed since.
	Known bool `json:"known"`
}

// nodeAPIState is ManagerAPI's dynamic-membership state: when each node
// last pushed a heartbeat.
type nodeAPIState struct {
	heartbeats map[string]time.Time
	hbMu       sync.Mutex // heartbeats are hot-path; keep them off the API lock
}

// dialNode builds the client for a registering agent: a RemoteNode, not
// probed when the agent names itself.
func dialNode(name, url string) (Node, error) {
	if name != "" {
		return NewRemoteNodeNamed(name, url, RetryPolicy{}), nil
	}
	return NewRemoteNode(url)
}

// registerNode admits an agent into the fleet. The 201/200 response is
// sent only after the node-add record is durably journaled — an
// acknowledged registration survives any crash of this manager (or is
// re-learned by the peer that adopts its journal).
func (a *ManagerAPI) registerNode(ep *Endpoint[RegisterNodeRequest, RegisterNodeResponse], w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRequest[RegisterNodeRequest](w, r, "node registration")
	if !ok {
		return
	}
	a.mu.Lock()
	if a.refuseUnservable(w) {
		a.mu.Unlock()
		return
	}
	known := req.Name != "" && a.mgr.HasNode(req.Name) && a.mgr.NodeURLs()[req.Name] == req.URL
	a.mu.Unlock()

	// Dial outside the lock: the probe path (no name given) does a round
	// trip to the agent.
	var n Node
	if !known {
		var err error
		if n, err = dialNode(req.Name, req.URL); err != nil {
			http.Error(w, "cluster: dialing node: "+err.Error(), http.StatusBadGateway)
			return
		}
	}

	status, resp := ep.again, RegisterNodeResponse{Name: req.Name}
	if a.journaled(w, ep.journal, func() error {
		if !known {
			resp.Name = n.Name()
			if !a.mgr.HasNode(resp.Name) {
				status = ep.Status
			}
			if err := a.mgr.AddNode(n, req.URL); err != nil {
				return err
			}
		}
		resp.Epoch = a.mgr.Epoch()
		return nil
	}) {
		writeJSON(w, status, resp)
	}
}

// listNodes reports the registered fleet and heartbeat freshness.
func (a *ManagerAPI) listNodes(*http.Request) NodeListResponse {
	resp := NodeListResponse{Nodes: a.mgr.NodeURLs()}
	for _, s := range a.mgr.Servers() {
		if _, ok := resp.Nodes[s.Name()]; !ok {
			resp.Nodes[s.Name()] = "" // static fleet member
		}
		if rn, ok := capability[*RemoteNode](s); ok {
			if resp.Capacity == nil {
				resp.Capacity = make(map[string]NodeCapacityStatus)
			}
			sum, known, at := rn.capacity()
			st := NodeCapacityStatus{Generation: sum.Generation, Known: known}
			if !at.IsZero() {
				st.AgeSeconds = time.Since(at).Seconds()
			}
			resp.Capacity[s.Name()] = st
		}
	}
	a.nodes.hbMu.Lock()
	now := time.Now()
	for name, t := range a.nodes.heartbeats {
		if _, ok := resp.Nodes[name]; ok {
			if resp.LastHeartbeat == nil {
				resp.LastHeartbeat = make(map[string]float64)
			}
			resp.LastHeartbeat[name] = now.Sub(t).Seconds()
		}
	}
	a.nodes.hbMu.Unlock()
	return resp
}

// handleNodeHeartbeat receives an agent's push heartbeat. 204 when this
// manager owns the node; 404 when it does not — the agent's cue to
// re-resolve the shard map and re-register with the current owner. The
// push channel complements (does not replace) the manager's pull-based
// failure detector: liveness decisions stay with ProbeHealth.
//
// An empty body is a liveness-only heartbeat. A body (Content-Length > 0)
// is the agent's CapacitySummary, folded into the node's cache so writers
// this manager never saw (an adopting shard, deflctl straight at the agent)
// are noticed within one heartbeat; a malformed one is a 400 that leaves
// the node's liveness stamp and cache as they were.
func (a *ManagerAPI) handleNodeHeartbeat(ep *Endpoint[CapacitySummary, noBody], w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var node Node
	a.mu.Lock()
	if idx, ok := a.mgr.index[name]; ok {
		node = a.mgr.Servers()[idx]
	}
	hbTel := a.hbTel
	a.mu.Unlock()
	if node == nil {
		http.Error(w, fmt.Sprintf("cluster: node %q is not managed here", name), http.StatusNotFound)
		return
	}
	if r.ContentLength > 0 {
		var sum CapacitySummary
		if err := json.NewDecoder(r.Body).Decode(&sum); err != nil {
			http.Error(w, "cluster: bad heartbeat body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if rn, ok := capability[*RemoteNode](node); ok {
			rn.foldCapacity(sum, capacityFromHeartbeat)
		}
	}
	a.nodes.hbMu.Lock()
	if a.nodes.heartbeats == nil {
		a.nodes.heartbeats = make(map[string]time.Time)
	}
	a.nodes.heartbeats[name] = time.Now()
	a.nodes.hbMu.Unlock()
	if hbTel != nil {
		hbTel.Inc()
	}
	w.WriteHeader(ep.Status)
}

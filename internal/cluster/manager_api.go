package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"deflation/internal/journal"
	"deflation/internal/telemetry"
)

// ManagerAPI serves the centralized manager over HTTP (cmd/deflated).
type ManagerAPI struct {
	mu       sync.Mutex
	mgr      *Manager
	recovery *RecoveryReport // last recovery outcome, if the manager recovered

	// nodes is dynamic fleet membership (see nodes.go); hbTel counts push
	// heartbeats received.
	nodes nodeAPIState
	hbTel *telemetry.Counter
}

// SetRecovery records the manager's last recovery outcome so /v1/state can
// report it to operators.
func (a *ManagerAPI) SetRecovery(rep *RecoveryReport) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recovery = rep
}

// NewManagerAPI wraps a manager.
func NewManagerAPI(mgr *Manager) (*ManagerAPI, error) {
	if mgr == nil {
		return nil, fmt.Errorf("cluster: nil manager")
	}
	return &ManagerAPI{mgr: mgr}, nil
}

// ProbeHealth runs one heartbeat round under the API lock; cmd/deflated
// calls it periodically.
func (a *ManagerAPI) ProbeHealth() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mgr.ProbeHealth()
}

// ManagerRoute is a row of the manager's wire with its types erased, and
// how a shard router finds its ring key.
type ManagerRoute struct {
	Method, Path string
	// PathKey names the path wildcard holding the ring key; BodyKey reads it
	// from a field of the route's typed request. A route with neither is
	// served by the shard it reaches, and so is an empty key.
	PathKey string
	BodyKey func(body []byte) (string, error)

	journal string // the row's Endpoint.journal, which the table lists
	serve   func(a *ManagerAPI, w http.ResponseWriter, r *http.Request)
}

// serveFunc serves the manager's row ep.
type serveFunc[Req, Resp any] func(a *ManagerAPI, ep *Endpoint[Req, Resp], w http.ResponseWriter, r *http.Request)

const (
	// WirePrefix begins the path of every route on the agent's and the
	// manager's wire; a program mounts a wire's handler under it.
	WirePrefix = "/v1/"
	// replicaWALPath is the leader's WAL streaming route (replica.go).
	replicaWALPath = "/v1/replica/wal"
)

// The manager's wire: every route ManagerAPI serves, shard.Router routes and
// ManagerClient calls.
var (
	launchRoute = &Endpoint[LaunchSpec, LaunchResponse]{Method: http.MethodPost, Path: "/v1/vms", Status: http.StatusCreated,
		errs: []error{ErrVMExists, ErrNoCapacity}, journal: "launch", bodyKey: func(s *LaunchSpec) string { return s.Name },
		serve: command("launch spec", (*ManagerAPI).launch)}
	releaseRoute = &Endpoint[noBody, noBody]{Method: http.MethodDelete, Path: "/v1/vms/{name}", Status: http.StatusNoContent,
		errs: []error{ErrVMNotFound}, journal: "release", pathKey: "name",
		serve: command("", (*ManagerAPI).release)}
	migrateRoute = &Endpoint[MigrateRequest, MigrationReport]{Method: http.MethodPost, Path: "/v1/migrate", Status: http.StatusOK,
		journal: "command", bodyKey: func(r *MigrateRequest) string { return r.VM },
		serve: command("migrate request", (*ManagerAPI).migrate)}
	// A registration of a node already registered at its URL changes
	// nothing and answers 200.
	registerRoute = &Endpoint[RegisterNodeRequest, RegisterNodeResponse]{Method: http.MethodPost, Path: "/v1/nodes",
		Status: http.StatusCreated, again: http.StatusOK,
		journal: "registration", bodyKey: func(r *RegisterNodeRequest) string { return r.Name },
		serve: (*ManagerAPI).registerNode}
	heartbeatRoute = &Endpoint[CapacitySummary, noBody]{Method: http.MethodPost, Path: "/v1/nodes/{name}/heartbeat",
		Status: http.StatusNoContent, errs: []error{ErrNodeNotFound}, pathKey: "name",
		serve: (*ManagerAPI).handleNodeHeartbeat}
	clusterRoute = &Endpoint[noBody, ClusterState]{Method: http.MethodGet, Path: "/v1/cluster", Status: http.StatusOK,
		serve: read((*ManagerAPI).cluster)}
	stateRoute = &Endpoint[noBody, ManagerStateResponse]{Method: http.MethodGet, Path: "/v1/state", Status: http.StatusOK,
		serve: read((*ManagerAPI).state)}
	nodesRoute = &Endpoint[noBody, NodeListResponse]{Method: http.MethodGet, Path: "/v1/nodes", Status: http.StatusOK,
		serve: read((*ManagerAPI).listNodes)}
	replicaWALRoute = &Endpoint[noBody, journal.Batch]{Method: http.MethodGet, Path: replicaWALPath, Status: http.StatusOK,
		serve: (*ManagerAPI).handleReplicaWAL}

	managerRoutes = []ManagerRoute{launchRoute.route(), releaseRoute.route(), migrateRoute.route(),
		registerRoute.route(), heartbeatRoute.route(), clusterRoute.route(), stateRoute.route(),
		nodesRoute.route(), replicaWALRoute.route()}
)

// ManagerRoutes returns the manager's wire, for routers in front of it.
func ManagerRoutes() []ManagerRoute { return slices.Clone(managerRoutes) }

// Handler serves the manager's wire (ManagerRoutes).
func (a *ManagerAPI) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range managerRoutes {
		mux.HandleFunc(rt.Method+" "+rt.Path, func(w http.ResponseWriter, r *http.Request) {
			rt.serve(a, w, r)
		})
	}
	return mux
}

// command serves a journaled command: decode and check the request, run it
// under journaled, and reply the row's status.
func command[Req, Resp any](what string, run func(a *ManagerAPI, r *http.Request, req Req) (Resp, error)) serveFunc[Req, Resp] {
	return func(a *ManagerAPI, ep *Endpoint[Req, Resp], w http.ResponseWriter, r *http.Request) {
		req, ok := decodeRequest[Req](w, r, what)
		if !ok {
			return
		}
		var out Resp
		if a.journaled(w, ep.journal, func() (err error) {
			out, err = run(a, r, req)
			return err
		}) {
			writeReply(w, ep.Status, out)
		}
	}
}

// read serves a read under a.mu.
func read[Resp any](run func(a *ManagerAPI, r *http.Request) Resp) serveFunc[noBody, Resp] {
	return func(a *ManagerAPI, ep *Endpoint[noBody, Resp], w http.ResponseWriter, r *http.Request) {
		a.mu.Lock()
		out := run(a, r)
		a.mu.Unlock()
		writeJSON(w, ep.Status, out)
	}
}

// journaled runs one mutating command under a.mu. It refuses up front (503)
// while the manager cannot stand behind the command, and after the fact
// when this very command poisoned the journal: it applied in memory but has
// no durable backing, so it must not be acknowledged. false means a reply
// has been written.
func (a *ManagerAPI) journaled(w http.ResponseWriter, what string, run func() error) bool {
	a.mu.Lock()
	if a.refuseUnservable(w) {
		a.mu.Unlock()
		return false
	}
	err := run()
	walErr := a.mgr.WALError()
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return false
	}
	if walErr != nil {
		http.Error(w, "cluster: journal write failed; "+what+" not durably recorded: "+walErr.Error(),
			http.StatusServiceUnavailable)
		return false
	}
	return true
}

// refuseUnservable refuses a mutating command (503, response written) when
// the manager can no longer stand behind it: the journal has fail-stopped
// (an acknowledgement would promise durability the WAL cannot back) or the
// manager has been deposed by a newer leader (every node RPC it issues is
// refused anyway). Called with a.mu held.
func (a *ManagerAPI) refuseUnservable(w http.ResponseWriter) bool {
	if err := a.mgr.WALError(); err != nil {
		http.Error(w, "cluster: journal fail-stopped; manager cannot durably back commands: "+err.Error(),
			http.StatusServiceUnavailable)
		return true
	}
	if a.mgr.Deposed() {
		http.Error(w, "cluster: manager deposed by a newer leadership epoch; standing down",
			http.StatusServiceUnavailable)
		return true
	}
	return false
}

// LaunchResponse reports where a VM landed and what was reclaimed.
type LaunchResponse struct {
	Server string       `json:"server"`
	Report LaunchReport `json:"report"`
}

func (a *ManagerAPI) launch(_ *http.Request, spec LaunchSpec) (LaunchResponse, error) {
	idx, rep, err := a.mgr.Launch(spec)
	resp := LaunchResponse{Report: rep}
	if idx >= 0 {
		resp.Server = a.mgr.Servers()[idx].Name()
	}
	return resp, err
}

func (a *ManagerAPI) release(r *http.Request, _ noBody) (noBody, error) {
	return noBody{}, a.mgr.Release(r.PathValue("name"))
}

// MigrateRequest names a placed VM and its destination server.
type MigrateRequest struct {
	VM   string `json:"vm"`
	Dest string `json:"dest"`
}

func (r *MigrateRequest) validate() error {
	if r.VM == "" || r.Dest == "" {
		return errors.New("cluster: migrate needs vm and dest")
	}
	return nil
}

func (a *ManagerAPI) migrate(_ *http.Request, req MigrateRequest) (MigrationReport, error) {
	return a.mgr.Migrate(req.VM, req.Dest)
}

// handleReplicaWAL streams WAL records after the follower's applied
// sequence (?after=SEQ) — the leader half of hot-standby replication. 404
// when this manager runs without a journal (nothing to replicate).
func (a *ManagerAPI) handleReplicaWAL(ep *Endpoint[noBody, journal.Batch], w http.ResponseWriter, r *http.Request) {
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil && r.URL.Query().Get("after") != "" {
		http.Error(w, "cluster: bad after param: "+err.Error(), http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	j := a.mgr.Journal()
	a.mu.Unlock()
	if j == nil {
		http.Error(w, "cluster: manager is not durable; no WAL to replicate", http.StatusNotFound)
		return
	}
	batch, err := j.RecordsAfter(after)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, ep.Status, batch)
}

// ClusterState is the manager's aggregate view.
type ClusterState struct {
	VMs                int         `json:"vms"`
	Rejected           int         `json:"rejected"`
	Preemptions        int         `json:"preemptions"`
	Servers            []NodeState `json:"servers,omitempty"`
	MeanOC             float64     `json:"mean_overcommitment"`
	MaxOC              float64     `json:"max_overcommitment"`
	DeadServers        int         `json:"dead_servers,omitempty"`
	FailurePreemptions int         `json:"failure_preemptions,omitempty"`
	ReplacedVMs        int         `json:"replaced_vms,omitempty"`
	LostVMs            int         `json:"lost_vms,omitempty"`
}

func (a *ManagerAPI) cluster(r *http.Request) ClusterState {
	snap := a.mgr.Snapshot()
	st := ClusterState{
		VMs:                snap.VMs,
		Rejected:           a.mgr.Rejected(),
		Preemptions:        a.mgr.Preemptions(),
		MeanOC:             snap.MeanOvercommitment,
		MaxOC:              snap.MaxOvercommitment,
		DeadServers:        snap.DeadServers,
		FailurePreemptions: snap.FailurePreemptions,
		ReplacedVMs:        snap.ReplacedVMs,
		LostVMs:            snap.LostVMs,
	}
	if r.URL.Query().Get("servers") == "true" {
		for _, n := range a.mgr.Servers() {
			var s NodeState
			err := errNoInventory
			if lc, ok := capability[*LocalController](n); ok {
				s, err = (&ControllerAPI{ctrl: lc}).state()
			} else if rn, ok := capability[*RemoteNode](n); ok {
				s, err = rn.State()
			}
			if err == nil {
				st.Servers = append(st.Servers, s)
			}
		}
	}
	return st
}

// JournalStatus is the wire form of the manager's journal state.
type JournalStatus struct {
	Dir             string  `json:"dir"`
	Seq             uint64  `json:"seq"`
	Appended        uint64  `json:"records_appended"`
	Fsyncs          uint64  `json:"fsyncs"`
	AppendErrors    uint64  `json:"append_errors,omitempty"`
	SnapshotSeq     uint64  `json:"snapshot_seq"`
	SnapshotBytes   int     `json:"snapshot_bytes"`
	SnapshotAgeSecs float64 `json:"snapshot_age_seconds"`
}

// Manager roles reported by /v1/state.
const (
	RoleLeader  = "leader"
	RoleStandby = "standby"
)

// ManagerStateResponse is the manager's durable-state view for operator
// debugging (deflctl state): current placements, journal position, last
// snapshot age, and the last recovery's report when the manager recovered.
// A standby answers with Role "standby" and its replication status instead
// of a journal.
type ManagerStateResponse struct {
	Placements map[string]string `json:"placements"`
	VMs        int               `json:"vms"`
	Durable    bool              `json:"durable"`
	// Role distinguishes the acting leader from a tailing standby; empty on
	// managers predating HA.
	Role string `json:"role,omitempty"`
	// Epoch is the manager's leadership fencing epoch (0 = unfenced).
	Epoch uint64 `json:"epoch,omitempty"`
	// Substrates maps server name → substrate kind, so operators can see
	// which nodes host hypervisor VMs vs cgroup containers. Absent on
	// managers predating multi-substrate support.
	Substrates  map[string]string  `json:"substrates,omitempty"`
	Journal     *JournalStatus     `json:"journal,omitempty"`
	Recovery    *RecoveryReport    `json:"recovery,omitempty"`
	Replication *ReplicationStatus `json:"replication,omitempty"`
}

func (a *ManagerAPI) state(*http.Request) ManagerStateResponse {
	resp := ManagerStateResponse{
		Placements: a.mgr.Placements(),
		Recovery:   a.recovery,
		Role:       RoleLeader,
		Epoch:      a.mgr.Epoch(),
		Substrates: a.mgr.Substrates(),
	}
	resp.VMs = len(resp.Placements)
	if j := a.mgr.Journal(); j != nil {
		resp.Durable = true
		st := j.Stats()
		js := &JournalStatus{
			Dir:           j.Dir(),
			Seq:           st.Seq,
			Appended:      st.Appended,
			Fsyncs:        st.Fsyncs,
			AppendErrors:  st.AppendErrors,
			SnapshotSeq:   st.SnapshotSeq,
			SnapshotBytes: st.SnapshotBytes,
		}
		if !st.SnapshotTime.IsZero() {
			js.SnapshotAgeSecs = time.Since(st.SnapshotTime).Seconds()
		}
		resp.Journal = js
	}
	return resp
}

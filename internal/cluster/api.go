package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"deflation/internal/restypes"
	"deflation/internal/substrate"
	"deflation/internal/telemetry"
)

// The REST control plane of §5: "the centralized cluster manager and the
// local-controllers... communicate with each other via a REST API". The
// ControllerAPI exposes one server's LocalController; RemoteNode is the
// manager-side client implementing Node over HTTP; ManagerAPI exposes the
// centralized manager to operators (cmd/deflctl).

// NodeState is the wire form of a server's capacity state.
type NodeState struct {
	Name               string          `json:"name"`
	Mode               string          `json:"mode"`
	Free               restypes.Vector `json:"free"`
	Availability       restypes.Vector `json:"availability"`
	PreemptableCeiling restypes.Vector `json:"preemptable_ceiling"`
	Overcommitment     float64         `json:"overcommitment"`
	Preemptions        int             `json:"preemptions"`
	// Substrate is the node's mechanism backend ("hypervisor" or
	// "container"; empty from nodes predating the substrate abstraction,
	// which means hypervisor).
	Substrate string    `json:"substrate,omitempty"`
	VMs       []VMState `json:"vms"`
}

// VMState is the wire form of one VM's state.
type VMState struct {
	Name       string          `json:"name"`
	Priority   string          `json:"priority"`
	Size       restypes.Vector `json:"size"`
	Allocation restypes.Vector `json:"allocation"`
	MinSize    restypes.Vector `json:"min_size"`
	Throughput float64         `json:"throughput"`
	App        string          `json:"app"`
	// Substrate is the VM's backend kind (empty = hypervisor, for wire
	// compatibility with pre-substrate nodes).
	Substrate string `json:"substrate,omitempty"`
	// BalloonMB is the guest balloon size. Structurally zero for container
	// VMs — there is no balloon driver behind them; the deflload invariant
	// sweep asserts exactly that.
	BalloonMB float64 `json:"balloon_mb,omitempty"`
}

// CapacitySummary is everything the manager's placement needs to know about
// a server, and nothing else (no VM inventory): the agent pushes it on every
// reply it writes (capacityHeader) and in its heartbeat body, and RemoteNode
// serves Free/Availability/... from the last one it saw. Instance names the
// agent process and Generation counts its capacity changes, so a receiver
// can order two summaries of one instance and notice a restarted agent.
type CapacitySummary struct {
	Instance           string          `json:"instance"`
	Generation         uint64          `json:"generation"`
	Mode               string          `json:"mode"`
	Free               restypes.Vector `json:"free"`
	Availability       restypes.Vector `json:"availability"`
	PreemptableCeiling restypes.Vector `json:"preemptable_ceiling"`
	Overcommitment     float64         `json:"overcommitment"`
	Preemptions        int             `json:"preemptions"`
	Substrate          string          `json:"substrate,omitempty"`
}

// capacityHeader carries the JSON-encoded CapacitySummary on every
// ControllerAPI reply; a header because 204s and error replies have no body.
const capacityHeader = "X-Deflation-Capacity"

// ControllerAPI serves a LocalController over HTTP. Handlers serialize all
// controller access through a mutex: the controller itself is
// single-threaded by design.
type ControllerAPI struct {
	mu   sync.Mutex
	ctrl *LocalController

	// instance identifies this API's lifetime in every CapacitySummary.
	instance string

	// guard fences mutating commands by leadership epoch: once a request
	// arrives stamped with epoch N, commands from epochs < N are refused
	// with 412 — a deposed leader on the wrong side of a partition cannot
	// deflate, launch, or release anything here.
	guard EpochGuard

	// idem caches completed deflate responses by Idempotency-Key so a
	// retried deflate (response lost in transit) replays the recorded
	// outcome instead of double-reclaiming. Bounded FIFO.
	idem      map[string]DeflateVMResponse
	idemOrder []string
}

// idemCacheLimit bounds the idempotency replay cache.
const idemCacheLimit = 1024

// NewControllerAPI wraps a controller.
func NewControllerAPI(ctrl *LocalController) (*ControllerAPI, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("cluster: nil controller")
	}
	return &ControllerAPI{
		ctrl:     ctrl,
		instance: strconv.FormatUint(rand.Uint64(), 16),
		idem:     make(map[string]DeflateVMResponse),
	}, nil
}

// Handler returns the controller's routes:
//
//	GET    /v1/healthz          — liveness probe (name)
//	GET    /v1/state            — NodeState
//	POST   /v1/vms              — LaunchSpec body → LaunchReport
//	DELETE /v1/vms/{name}       — release
//	POST   /v1/vms/{name}/deflate  — {"target": Vector} → cascade report;
//	                              honors the Idempotency-Key header
//
// Every reply, errors included, carries the capacity summary as it stands
// after the request (capacityHeader).
func (a *ControllerAPI) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", a.handleHealthz)
	mux.HandleFunc("GET /v1/state", a.handleState)
	mux.HandleFunc("POST /v1/vms", a.handleLaunch)
	mux.HandleFunc("DELETE /v1/vms/{name}", a.handleRelease)
	mux.HandleFunc("POST /v1/vms/{name}/deflate", a.handleDeflate)
	mux.HandleFunc("GET /v1/vms/{name}/checkpoint", a.handleCheckpoint)
	mux.HandleFunc("POST /v1/vms/{name}/deflate-fully", a.handleDeflateFully)
	mux.HandleFunc("POST /v1/restore", a.handleRestore)
	mux.HandleFunc("POST /v1/streams/{stream}/reserve", a.handleReserveStream)
	mux.HandleFunc("DELETE /v1/streams/{stream}", a.handleReleaseStream)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(&summaryWriter{ResponseWriter: w, api: a}, r)
	})
}

// summaryWriter stamps the capacity summary onto a reply just before its
// header goes out, i.e. after the handler's mutation. Handlers must not hold
// a.mu while writing. A summary that cannot be encoded (a non-finite
// reading) leaves the reply unstamped.
type summaryWriter struct {
	http.ResponseWriter
	api     *ControllerAPI
	stamped bool
}

func (w *summaryWriter) WriteHeader(code int) {
	if !w.stamped {
		w.stamped = true
		if b, err := json.Marshal(w.api.CapacitySummary()); err == nil {
			w.Header().Set(capacityHeader, string(b))
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *summaryWriter) Write(p []byte) (int, error) {
	if !w.stamped {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

// CapacitySummary returns the server's current placement summary, read
// under the API mutex from the controller's memoized readings.
func (a *ControllerAPI) CapacitySummary() CapacitySummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.ctrl
	return CapacitySummary{
		Instance:           a.instance,
		Generation:         c.generation,
		Mode:               c.Mode().String(),
		Free:               c.Free(),
		Availability:       c.Availability(),
		PreemptableCeiling: c.PreemptableCeiling(),
		Overcommitment:     c.Overcommitment(),
		Preemptions:        c.Preemptions(),
		Substrate:          c.SubstrateKind(),
	}
}

// FencedEpoch returns the highest leadership epoch this controller has
// obeyed, and how many stale-epoch commands it has refused.
func (a *ControllerAPI) FencedEpoch() (epoch, staleRejected uint64) {
	return a.guard.Current(), a.guard.StaleRejections()
}

// fence admits or refuses a mutating request by its fencing token: the
// leadership epoch plus the leader identity that breaks same-epoch ties.
// Returns false (response already written) when the caller's token is
// stale. Requests without the epoch header are legacy unfenced managers and
// are admitted.
func (a *ControllerAPI) fence(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get(epochHeader)
	if h == "" {
		return true
	}
	epoch, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		http.Error(w, "cluster: bad "+epochHeader+" header: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if err := a.guard.Check(epoch, r.Header.Get(leaderHeader)); err != nil {
		writeError(w, err)
		return false
	}
	return true
}

// HealthzResponse is the controller liveness probe's body. FencedEpoch and
// EpochAgeSeconds expose the guard's view of leadership: the highest epoch
// obeyed and how long since a command last asserted it. A standby uses them
// to corroborate a leader's death before promoting (a recently-asserted
// epoch means the leader is alive on some path), and a manager assuming
// leadership reads FencedEpoch to start its term past the cluster maximum.
type HealthzResponse struct {
	Name            string  `json:"name"`
	Status          string  `json:"status"`
	FencedEpoch     uint64  `json:"fenced_epoch,omitempty"`
	EpochAgeSeconds float64 `json:"epoch_age_seconds,omitempty"`
}

// handleHealthz is fenced despite being a read: a manager's liveness probe
// doubles as the epoch-assertion beacon (a new leader's first probe raises
// the guard; a deposed leader's probes are refused). Probes without the
// epoch header — load balancers, humans, standbys corroborating, leaders
// querying the fenced maximum — are always admitted.
func (a *ControllerAPI) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !a.fence(w, r) {
		return
	}
	a.mu.Lock()
	name := a.ctrl.Name()
	a.mu.Unlock()
	epoch, age := a.guard.Assertion()
	hz := HealthzResponse{Name: name, Status: "ok", FencedEpoch: epoch}
	if epoch > 0 {
		hz.EpochAgeSeconds = age.Seconds()
	}
	writeJSON(w, http.StatusOK, hz)
}

func (a *ControllerAPI) state() NodeState {
	c := a.ctrl
	st := NodeState{
		Name:               c.Name(),
		Mode:               c.Mode().String(),
		Free:               c.Free(),
		Availability:       c.Availability(),
		PreemptableCeiling: c.PreemptableCeiling(),
		Overcommitment:     c.Overcommitment(),
		Preemptions:        c.Preemptions(),
		Substrate:          c.SubstrateKind(),
	}
	st.VMs, _ = c.Inventory()
	return st
}

func (a *ControllerAPI) handleState(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	st := a.state()
	a.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (a *ControllerAPI) handleLaunch(w http.ResponseWriter, r *http.Request) {
	if !a.fence(w, r) {
		return
	}
	var spec LaunchSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, "cluster: bad launch spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	rep, err := a.ctrl.Launch(spec)
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, rep)
}

func (a *ControllerAPI) handleRelease(w http.ResponseWriter, r *http.Request) {
	if !a.fence(w, r) {
		return
	}
	a.mu.Lock()
	err := a.ctrl.Release(r.PathValue("name"))
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// DeflateVMRequest asks a controller to deflate one VM by a target vector.
type DeflateVMRequest struct {
	Target restypes.Vector `json:"target"`
}

// DeflateVMResponse reports the cascade outcome.
type DeflateVMResponse struct {
	NewAllocation restypes.Vector `json:"new_allocation"`
	Shortfall     restypes.Vector `json:"shortfall"`
	LatencyMS     float64         `json:"latency_ms"`
}

func (a *ControllerAPI) handleDeflate(w http.ResponseWriter, r *http.Request) {
	if !a.fence(w, r) {
		return
	}
	var req DeflateVMRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "cluster: bad deflate request: "+err.Error(), http.StatusBadRequest)
		return
	}
	out, replayed, err := a.deflate(r.PathValue("name"), r.Header.Get("Idempotency-Key"), req.Target)
	if err != nil {
		writeError(w, err)
		return
	}
	if replayed {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	writeJSON(w, http.StatusOK, out)
}

// deflate runs one keyed deflate under the API mutex. replayed reports that
// the key was seen before: the deflate already applied and the client
// retried because the response was lost, so the recorded outcome is returned
// instead of reclaiming twice.
func (a *ControllerAPI) deflate(name, key string, target restypes.Vector) (out DeflateVMResponse, replayed bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if key != "" {
		if cached, ok := a.idem[key]; ok {
			return cached, true, nil
		}
	}
	v, err := a.ctrl.VM(name)
	if err != nil {
		return out, false, err
	}
	rep, err := a.ctrl.casc.Deflate(v, target)
	a.ctrl.capacityChanged() // direct cascade call bypasses the controller's hooks
	if err != nil {
		return out, false, err
	}
	out = DeflateVMResponse{
		NewAllocation: rep.NewAllocation,
		Shortfall:     rep.Shortfall,
		LatencyMS:     float64(rep.TotalLatency) / float64(time.Millisecond),
	}
	if key != "" {
		if a.idem == nil {
			a.idem = make(map[string]DeflateVMResponse)
		}
		if len(a.idemOrder) >= idemCacheLimit {
			delete(a.idem, a.idemOrder[0])
			a.idemOrder = a.idemOrder[1:]
		}
		a.idem[key] = out
		a.idemOrder = append(a.idemOrder, key)
	}
	return out, false, nil
}

// The live-migration routes (see migrate.go). Checkpoint is a read;
// restore creates the VM on this (destination) server; the stream routes
// hold and release migration link bandwidth; deflate-fully is the
// deflate-then-migrate preparation step.

func (a *ControllerAPI) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	cp, err := a.ctrl.Checkpoint(r.PathValue("name"))
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

func (a *ControllerAPI) handleRestore(w http.ResponseWriter, r *http.Request) {
	if !a.fence(w, r) {
		return
	}
	var cp VMCheckpoint
	if err := json.NewDecoder(r.Body).Decode(&cp); err != nil {
		http.Error(w, "cluster: bad checkpoint: "+err.Error(), http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	err := a.ctrl.RestoreVM(cp)
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// ReserveStreamRequest asks for migration link bandwidth.
type ReserveStreamRequest struct {
	RateMBps float64 `json:"rate_mbps"`
}

// ReserveStreamResponse reports the rate actually granted.
type ReserveStreamResponse struct {
	GrantedMBps float64 `json:"granted_mbps"`
}

func (a *ControllerAPI) handleReserveStream(w http.ResponseWriter, r *http.Request) {
	if !a.fence(w, r) {
		return
	}
	var req ReserveStreamRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "cluster: bad stream request: "+err.Error(), http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	granted, err := a.ctrl.ReserveStream(r.PathValue("stream"), req.RateMBps)
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ReserveStreamResponse{GrantedMBps: granted})
}

func (a *ControllerAPI) handleReleaseStream(w http.ResponseWriter, r *http.Request) {
	if !a.fence(w, r) {
		return
	}
	a.mu.Lock()
	err := a.ctrl.ReleaseStream(r.PathValue("stream"))
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// DeflateFullyResponse reports the cascade latency of a full deflation.
type DeflateFullyResponse struct {
	LatencyMS float64 `json:"latency_ms"`
}

func (a *ControllerAPI) handleDeflateFully(w http.ResponseWriter, r *http.Request) {
	if !a.fence(w, r) {
		return
	}
	a.mu.Lock()
	d, err := a.ctrl.DeflateFully(r.PathValue("name"))
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DeflateFullyResponse{LatencyMS: float64(d) / float64(time.Millisecond)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		_ = err
	}
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrVMNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrVMExists):
		code = http.StatusConflict
	case errors.Is(err, ErrNoCapacity):
		code = http.StatusInsufficientStorage
	case errors.Is(err, ErrNodeNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrMigrationFailed):
		code = http.StatusConflict
	case errors.Is(err, ErrStaleEpoch):
		code = http.StatusPreconditionFailed
	case errors.Is(err, substrate.ErrKindMismatch):
		code = http.StatusUnprocessableEntity
	}
	http.Error(w, err.Error(), code)
}

// RemoteNode implements Node over a ControllerAPI endpoint, letting the
// centralized manager drive servers across the network exactly as the
// paper's deployment does.
//
// Unlike a naive HTTP client, RemoteNode assumes the network fails: every
// operation runs under a per-attempt context deadline (RetryPolicy.OpTimeout
// — replacing the old single flat 30 s client timeout), idempotent
// operations (State, Release, Deflate) retry with capped exponential backoff
// plus jitter, and deflate requests carry idempotency keys so a retried
// deflate never double-reclaims. Launch is not idempotent and never retries.
type RemoteNode struct {
	baseURL string
	client  *http.Client
	name    string
	retry   RetryPolicy

	mu      sync.Mutex
	rng     *rand.Rand // backoff jitter + idempotency key entropy
	idemSeq uint64
	epoch   uint64               // fencing epoch stamped on every request (0 = unfenced)
	leader  string               // leader identity stamped alongside the epoch
	retries int                  // lifetime retry count, for tests and metrics
	lastErr error                // most recent transport error, recorded distinctly
	tel     *remoteNodeTelemetry // nil = no instrumentation

	// The agent's last pushed capacity summary (see foldCapacity), the one
	// source Free/Availability/.../SubstrateKind read. capKnown is false
	// while the cache is cold and after any transport error: the node is
	// then no placement candidate until a reply, heartbeat or probe refills
	// it. capAt is when the summary was last confirmed. watchers run, under
	// mu, whenever the summary or capKnown moves (see WatchCapacity).
	cap      CapacitySummary
	capKnown bool
	capAt    time.Time
	watchers watchList

	sleep func(time.Duration) // test seam; time.Sleep by default
}

// NewRemoteNode connects to a controller endpoint with the default retry
// policy and caches its name.
func NewRemoteNode(baseURL string) (*RemoteNode, error) {
	return NewRemoteNodeWithPolicy(baseURL, RetryPolicy{})
}

// NewRemoteNodeWithPolicy connects with an explicit retry policy.
func NewRemoteNodeWithPolicy(baseURL string, policy RetryPolicy) (*RemoteNode, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("cluster: empty controller URL")
	}
	h := fnv.New64a()
	h.Write([]byte(baseURL))
	n := &RemoteNode{
		baseURL: baseURL,
		client:  &http.Client{},
		retry:   policy.withDefaults(),
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
		sleep:   time.Sleep,
	}
	st, err := n.State()
	if err != nil {
		return nil, fmt.Errorf("cluster: connecting to %s: %w", baseURL, err)
	}
	n.name = st.Name
	return n, nil
}

// NewRemoteNodeNamed builds a client for a controller whose name is
// already known — a registration request or a journaled node-add record —
// WITHOUT probing the endpoint. The node may be temporarily unreachable
// (recovery during a partition must not orphan its placements); every
// operation fails soft until it answers, exactly like any other transient
// network failure.
func NewRemoteNodeNamed(name, baseURL string, policy RetryPolicy) *RemoteNode {
	h := fnv.New64a()
	h.Write([]byte(baseURL))
	return &RemoteNode{
		baseURL: baseURL,
		client:  &http.Client{},
		name:    name,
		retry:   policy.withDefaults(),
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
		sleep:   time.Sleep,
	}
}

// BaseURL returns the controller endpoint this client talks to.
func (n *RemoteNode) BaseURL() string { return n.baseURL }

// SetEpoch sets the fencing epoch stamped (as X-Deflation-Epoch) onto every
// subsequent request. The manager calls this when it becomes leader; the
// controller refuses mutations from lower epochs.
func (n *RemoteNode) SetEpoch(epoch uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch = epoch
}

// SetLeaderID sets the leader identity stamped (as X-Deflation-Leader)
// alongside the epoch, breaking same-epoch ties at the controller's guard.
func (n *RemoteNode) SetLeaderID(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.leader = id
}

// FencedEpoch reports the highest leadership epoch the remote controller
// has obeyed. The probe is deliberately unfenced (no epoch header): a
// manager assuming leadership must be able to read the cluster-wide fenced
// maximum even while its own last term is already stale.
func (n *RemoteNode) FencedEpoch() (uint64, error) {
	hz, err := probeHealthz(n.client, n.baseURL, n.retry.OpTimeout)
	return hz.FencedEpoch, err
}

// probeHealthz fetches a controller's healthz without asserting any epoch.
// Shared by FencedEpoch and the standby's leader-death corroboration — in
// both cases the caller must see the guard's state without contending for
// leadership or being refused for holding a stale term.
func probeHealthz(client *http.Client, baseURL string, timeout time.Duration) (HealthzResponse, error) {
	var hz HealthzResponse
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/healthz", nil)
	if err != nil {
		return hz, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return hz, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return hz, fmt.Errorf("cluster: healthz probe: %s", resp.Status)
	}
	return hz, json.NewDecoder(resp.Body).Decode(&hz)
}

// Retries returns the lifetime number of retry attempts this client has
// made (not counting first attempts).
func (n *RemoteNode) Retries() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.retries
}

// LastTransportErr returns the most recent transport-level failure observed
// (nil if none). It is recorded distinctly from application-level errors
// like ErrVMNotFound so callers can tell "unreachable" from "gone".
func (n *RemoteNode) LastTransportErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastErr
}

// drainClose drains and closes an HTTP response body so the keep-alive
// connection can be reused rather than torn down.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}

// attempt performs one HTTP round trip under the per-operation deadline and
// hands the response to handle. Transport failures come back wrapped as
// retryable transport errors and invalidate the capacity cache; every reply
// refreshes it from its capacity header.
func (n *RemoteNode) attempt(method, path string, body []byte, hdr http.Header, handle func(*http.Response) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.retry.OpTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.baseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	n.mu.Lock()
	epoch, leader := n.epoch, n.leader
	n.mu.Unlock()
	if epoch > 0 {
		req.Header.Set(epochHeader, strconv.FormatUint(epoch, 10))
		if leader != "" {
			req.Header.Set(leaderHeader, leader)
		}
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := n.client.Do(req)
	if err != nil {
		n.mu.Lock()
		n.lastErr = err
		if n.capKnown {
			n.capKnown = false
			n.watchers.notify()
		}
		tel := n.tel
		n.mu.Unlock()
		if tel != nil {
			tel.transportErrors.Inc()
		}
		return transportFailure(err)
	}
	defer drainClose(resp.Body)
	if raw := resp.Header.Get(capacityHeader); raw != "" {
		var sum CapacitySummary
		if json.Unmarshal([]byte(raw), &sum) == nil {
			source := capacityFromReply
			if path == healthzPath {
				source = capacityFromProbe
			}
			n.foldCapacity(sum, source)
		}
	}
	return handle(resp)
}

// healthzPath is the inventory-free probe: Ping's and capacityKnown's.
const healthzPath = "/v1/healthz"

// Where a capacity summary reached the manager from (telemetry label).
const (
	capacityFromReply     = "reply"
	capacityFromHeartbeat = "heartbeat"
	capacityFromProbe     = "probe"
)

// foldCapacity folds a pushed summary into the cache unless it is older than
// what the cache holds: same agent instance, lower generation (replies and
// heartbeats race). A summary from another instance is a restarted agent and
// always replaces. A summary without an instance or with a mode this manager
// does not know is dropped whole — Mode never guesses.
func (n *RemoteNode) foldCapacity(sum CapacitySummary, source string) {
	knownMode := sum.Mode == ModeDeflation.String() || sum.Mode == ModePreemptionOnly.String()
	if !knownMode || sum.Instance == "" {
		return
	}
	n.mu.Lock()
	sameInstance := sum.Instance == n.cap.Instance
	if sameInstance && sum.Generation < n.cap.Generation {
		n.mu.Unlock()
		return
	}
	changed := !n.capKnown || !sameInstance || sum.Generation != n.cap.Generation
	n.cap, n.capKnown, n.capAt = sum, true, time.Now()
	if changed {
		n.watchers.notify()
	}
	tel := n.tel
	n.mu.Unlock()
	if changed && tel != nil {
		tel.capacityRefresh[source].Inc()
	}
}

// WatchCapacity implements Node: fn runs whenever the cached summary moves —
// a new instance or generation, or the cache turning known or unknown. It
// runs under the node's lock, on whichever goroutine moved the cache.
func (n *RemoteNode) WatchCapacity(fn func()) (unwatch func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	remove := n.watchers.add(fn)
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		remove()
	}
}

// capacityKnown reports whether the node may be a placement candidate. A
// valid cache costs nothing; a cold or invalidated one costs exactly one
// inventory-free, non-retried probe, whose reply (any status) carries the
// summary. The manager asks once per node per placement decision and skips
// the node when the answer is no.
func (n *RemoteNode) capacityKnown() bool {
	if _, known, _ := n.capacity(); known {
		return true
	}
	// The outcome is the cache state; attempt has already recorded a
	// transport error as LastTransportErr.
	_ = n.attempt(http.MethodGet, healthzPath, nil, nil, func(*http.Response) error { return nil })
	n.mu.Lock()
	known, tel := n.capKnown, n.tel
	n.mu.Unlock()
	if !known && tel != nil {
		tel.capacityUnknown.Inc()
	}
	return known
}

// capacity returns the last summary the agent pushed, whether it is
// currently trusted for placement, and when it was last confirmed.
func (n *RemoteNode) capacity() (sum CapacitySummary, known bool, at time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cap, n.capKnown, n.capAt
}

// placementCapacity is the summary placement may read: the zero summary
// while capacity is unknown, so that no reader places onto stale numbers.
// The placement index never reads an unknown node (see capacityCached).
func (n *RemoteNode) placementCapacity() CapacitySummary {
	sum, known, _ := n.capacity()
	if !known {
		return CapacitySummary{}
	}
	return sum
}

// withRetry runs op under the retry policy. Only retryable failures
// (transport errors, 5xx) are retried, with exponential backoff and jitter;
// non-idempotent callers pass retry=false and get exactly one attempt.
// opName labels the RPC latency histogram; the observation covers all
// attempts including backoff, i.e. the latency the manager actually paid.
func (n *RemoteNode) withRetry(opName string, retryOK bool, op func() error) error {
	defer n.observeRPC(opName, time.Now())
	attempts := n.retry.MaxAttempts
	if !retryOK {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			n.mu.Lock()
			d := n.retry.backoff(i-1, n.rng)
			n.retries++
			tel := n.tel
			n.mu.Unlock()
			if tel != nil {
				tel.retries.Inc()
			}
			n.sleep(d)
		}
		err = op()
		if err == nil || !isRetryable(err) {
			return err
		}
	}
	return err
}

// State fetches the remote controller's full state, VM inventory included,
// retrying transient failures. Placement never calls it: it is for the
// inventory consumers (Inventory, Has, registration, ?servers=true).
func (n *RemoteNode) State() (NodeState, error) {
	var st NodeState
	err := n.withRetry("state", true, func() error {
		return n.attempt(http.MethodGet, "/v1/state", nil, nil, func(resp *http.Response) error {
			if resp.StatusCode != http.StatusOK {
				return statusError("state", resp.Status, resp.StatusCode)
			}
			return json.NewDecoder(resp.Body).Decode(&st)
		})
	})
	return st, err
}

// SubstrateKind reports the agent's substrate kind as self-reported in its
// capacity summary. Until one arrives (probe-free NewRemoteNodeNamed
// construction, agent unreachable) it returns "" and the manager's placement
// treats the node as compatible with every spec — the agent's own Spawn is
// the authoritative check.
func (n *RemoteNode) SubstrateKind() string {
	sum, _, _ := n.capacity()
	return sum.Substrate
}

// Ping implements Node with a single non-retried liveness probe: the health
// monitor counts consecutive misses itself, so retrying here would only
// mask real failures.
func (n *RemoteNode) Ping() error {
	defer n.observeRPC("ping", time.Now())
	return n.attempt(http.MethodGet, healthzPath, nil, nil, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return statusError("healthz", resp.Status, resp.StatusCode)
		}
		return nil
	})
}

// Name implements Node.
func (n *RemoteNode) Name() string { return n.name }

// Launch implements Node. Launch is not idempotent (a replay could place
// the VM twice), so it never retries; it still runs under the per-attempt
// deadline.
func (n *RemoteNode) Launch(spec LaunchSpec) (LaunchReport, error) {
	var rep LaunchReport
	if spec.NewApp != nil {
		return rep, fmt.Errorf("cluster: remote launch of %q cannot carry NewApp; use AppKind", spec.Name)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return rep, err
	}
	err = n.withRetry("launch", false, func() error {
		return n.attempt(http.MethodPost, "/v1/vms", body, nil, func(resp *http.Response) error {
			switch resp.StatusCode {
			case http.StatusCreated:
				return json.NewDecoder(resp.Body).Decode(&rep)
			case http.StatusConflict:
				return fmt.Errorf("%w: %q", ErrVMExists, spec.Name)
			case http.StatusInsufficientStorage:
				return fmt.Errorf("%w: remote %s", ErrNoCapacity, n.name)
			default:
				return statusError("remote launch", resp.Status, resp.StatusCode)
			}
		})
	})
	return rep, err
}

// Release implements Node. Deleting a VM is idempotent, so Release retries;
// a 404 on a retry that follows a transport failure is treated as success
// (the earlier attempt applied and only the response was lost).
func (n *RemoteNode) Release(name string) error {
	sawTransportFailure := false
	return n.withRetry("release", true, func() error {
		err := n.attempt(http.MethodDelete, "/v1/vms/"+name, nil, nil, func(resp *http.Response) error {
			switch resp.StatusCode {
			case http.StatusNoContent:
				return nil
			case http.StatusNotFound:
				if sawTransportFailure {
					return nil
				}
				return fmt.Errorf("%w: %q", ErrVMNotFound, name)
			default:
				return statusError("remote release", resp.Status, resp.StatusCode)
			}
		})
		if isTransportFailure(err) {
			sawTransportFailure = true
		}
		return err
	})
}

// nextIdemKey mints a unique idempotency key for one logical deflate.
func (n *RemoteNode) nextIdemKey() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.idemSeq++
	return fmt.Sprintf("defl-%d-%08x", n.idemSeq, n.rng.Uint32())
}

// Deflate asks the remote controller to deflate one VM. The request carries
// an idempotency key, so retries after lost responses replay the recorded
// outcome server-side instead of reclaiming twice.
func (n *RemoteNode) Deflate(vmName string, target restypes.Vector) (DeflateVMResponse, error) {
	var out DeflateVMResponse
	body, err := json.Marshal(DeflateVMRequest{Target: target})
	if err != nil {
		return out, err
	}
	hdr := http.Header{"Idempotency-Key": []string{n.nextIdemKey()}}
	err = n.withRetry("deflate", true, func() error {
		return n.attempt(http.MethodPost, "/v1/vms/"+vmName+"/deflate", body, hdr, func(resp *http.Response) error {
			switch resp.StatusCode {
			case http.StatusOK:
				return json.NewDecoder(resp.Body).Decode(&out)
			case http.StatusNotFound:
				return fmt.Errorf("%w: %q", ErrVMNotFound, vmName)
			default:
				return statusError("remote deflate", resp.Status, resp.StatusCode)
			}
		})
	})
	return out, err
}

// Inventory implements InventoryNode over the wire: the remote server's
// actual VM list, or a transport error when it is unreachable (the
// reconciler then keeps the journaled view rather than guessing).
func (n *RemoteNode) Inventory() ([]VMState, error) {
	st, err := n.State()
	if err != nil {
		return nil, err
	}
	return st.VMs, nil
}

// Has implements Node. A definitive "not running here" is (false, nil); an
// unreachable controller returns the transport error so the caller never
// mistakes a dead network for a dead VM.
func (n *RemoteNode) Has(name string) (bool, error) {
	st, err := n.State()
	if err != nil {
		return false, fmt.Errorf("cluster: has %q: %w", name, err)
	}
	for _, v := range st.VMs {
		if v.Name == name {
			return true, nil
		}
	}
	return false, nil
}

// Free implements Node from the cached summary.
func (n *RemoteNode) Free() restypes.Vector { return n.placementCapacity().Free }

// Availability implements Node from the cached summary.
func (n *RemoteNode) Availability() restypes.Vector { return n.placementCapacity().Availability }

// PreemptableCeiling implements Node from the cached summary.
func (n *RemoteNode) PreemptableCeiling() restypes.Vector {
	return n.placementCapacity().PreemptableCeiling
}

// Mode implements Node: the mode the agent last reported, never a default
// for an agent that could not be asked — foldCapacity rejects a mode it does
// not know, and a node that has reported none is no placement candidate.
func (n *RemoteNode) Mode() Mode {
	if sum, _, _ := n.capacity(); sum.Mode == ModePreemptionOnly.String() {
		return ModePreemptionOnly
	}
	return ModeDeflation
}

// Overcommitment implements Node: the last value the agent reported.
func (n *RemoteNode) Overcommitment() float64 {
	sum, _, _ := n.capacity()
	return sum.Overcommitment
}

// Preemptions implements Node: the last count the agent reported.
func (n *RemoteNode) Preemptions() int {
	sum, _, _ := n.capacity()
	return sum.Preemptions
}

// Checkpoint implements Node over the wire. Reading a checkpoint does not
// change server state, so it retries. The returned checkpoint carries no
// live application object; the destination rebuilds it from AppKind.
func (n *RemoteNode) Checkpoint(name string) (VMCheckpoint, error) {
	var cp VMCheckpoint
	err := n.withRetry("checkpoint", true, func() error {
		return n.attempt(http.MethodGet, "/v1/vms/"+name+"/checkpoint", nil, nil, func(resp *http.Response) error {
			switch resp.StatusCode {
			case http.StatusOK:
				return json.NewDecoder(resp.Body).Decode(&cp)
			case http.StatusNotFound:
				return fmt.Errorf("%w: %q", ErrVMNotFound, name)
			case http.StatusConflict:
				return fmt.Errorf("%w: checkpoint %q", ErrMigrationFailed, name)
			default:
				return statusError("remote checkpoint", resp.Status, resp.StatusCode)
			}
		})
	})
	return cp, err
}

// RestoreVM implements Node over the wire. Restoring is creation, but a 409
// on a retry that follows a transport failure means the earlier attempt
// landed and only the response was lost — that is success, mirroring
// Release's lost-response handling.
func (n *RemoteNode) RestoreVM(cp VMCheckpoint) error {
	body, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	name := cp.VM.Domain.Name
	sawTransportFailure := false
	return n.withRetry("restore", true, func() error {
		err := n.attempt(http.MethodPost, "/v1/restore", body, nil, func(resp *http.Response) error {
			switch resp.StatusCode {
			case http.StatusCreated:
				return nil
			case http.StatusConflict:
				if sawTransportFailure {
					return nil
				}
				return fmt.Errorf("%w: %q", ErrVMExists, name)
			case http.StatusInsufficientStorage:
				return fmt.Errorf("%w: restoring %q on remote %s", ErrNoCapacity, name, n.name)
			case http.StatusUnprocessableEntity:
				return fmt.Errorf("%w: restoring %q on remote %s", substrate.ErrKindMismatch, name, n.name)
			default:
				return statusError("remote restore", resp.Status, resp.StatusCode)
			}
		})
		if isTransportFailure(err) {
			sawTransportFailure = true
		}
		return err
	})
}

// ReserveStream implements Node over the wire. The server-side reservation
// is idempotent per stream name, so retries are safe.
func (n *RemoteNode) ReserveStream(stream string, rateMBps float64) (float64, error) {
	body, err := json.Marshal(ReserveStreamRequest{RateMBps: rateMBps})
	if err != nil {
		return 0, err
	}
	var out ReserveStreamResponse
	err = n.withRetry("reserve-stream", true, func() error {
		return n.attempt(http.MethodPost, "/v1/streams/"+stream+"/reserve", body, nil, func(resp *http.Response) error {
			switch resp.StatusCode {
			case http.StatusOK:
				return json.NewDecoder(resp.Body).Decode(&out)
			case http.StatusInsufficientStorage:
				return fmt.Errorf("%w: stream %q on remote %s", ErrNoCapacity, stream, n.name)
			default:
				return statusError("remote reserve-stream", resp.Status, resp.StatusCode)
			}
		})
	})
	return out.GrantedMBps, err
}

// ReleaseStream implements Node over the wire; releasing is idempotent.
func (n *RemoteNode) ReleaseStream(stream string) error {
	return n.withRetry("release-stream", true, func() error {
		return n.attempt(http.MethodDelete, "/v1/streams/"+stream, nil, nil, func(resp *http.Response) error {
			if resp.StatusCode != http.StatusNoContent {
				return statusError("remote release-stream", resp.Status, resp.StatusCode)
			}
			return nil
		})
	})
}

// DeflateFully implements Node over the wire. Squeezing a VM to its minimum
// is idempotent in effect (a second squeeze is a no-op), so it retries.
func (n *RemoteNode) DeflateFully(name string) (time.Duration, error) {
	var out DeflateFullyResponse
	err := n.withRetry("deflate-fully", true, func() error {
		return n.attempt(http.MethodPost, "/v1/vms/"+name+"/deflate-fully", nil, nil, func(resp *http.Response) error {
			switch resp.StatusCode {
			case http.StatusOK:
				return json.NewDecoder(resp.Body).Decode(&out)
			case http.StatusNotFound:
				return fmt.Errorf("%w: %q", ErrVMNotFound, name)
			default:
				return statusError("remote deflate-fully", resp.Status, resp.StatusCode)
			}
		})
	})
	return time.Duration(out.LatencyMS * float64(time.Millisecond)), err
}

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

// LaunchResponse reports where a VM landed and what was reclaimed.
type LaunchResponse struct {
	Server string       `json:"server"`
	Report LaunchReport `json:"report"`
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

// ProbeHealth runs one heartbeat round under the API lock; cmd/deflated
// calls it periodically.
func (a *ManagerAPI) ProbeHealth() []HealthEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mgr.ProbeHealth()
}

// Handler returns the manager's routes:
//
//	POST   /v1/vms        — LaunchSpec → LaunchResponse
//	DELETE /v1/vms/{name} — release
//	GET    /v1/cluster    — ClusterState
//	GET    /v1/state      — ManagerStateResponse (durable-state debugging)
//	POST   /v1/nodes      — RegisterNodeRequest → RegisterNodeResponse
//	GET    /v1/nodes      — NodeListResponse
//	POST   /v1/nodes/{name}/heartbeat — agent push heartbeat, optionally with
//	                        a CapacitySummary body (204/400/404)
func (a *ManagerAPI) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/vms", a.handleLaunch)
	mux.HandleFunc("DELETE /v1/vms/{name}", a.handleRelease)
	mux.HandleFunc("GET /v1/cluster", a.handleCluster)
	mux.HandleFunc("GET /v1/state", a.handleState)
	mux.HandleFunc("POST /v1/migrate", a.handleMigrate)
	mux.HandleFunc("POST /v1/nodes", a.handleRegisterNode)
	mux.HandleFunc("GET /v1/nodes", a.handleListNodes)
	mux.HandleFunc("DELETE /v1/nodes/{name}", a.handleForgetNode)
	mux.HandleFunc("POST /v1/nodes/{name}/heartbeat", a.handleNodeHeartbeat)
	mux.HandleFunc("GET "+replicaWALPath, a.handleReplicaWAL)
	return mux
}

// handleReplicaWAL streams WAL records after the follower's applied
// sequence (?after=SEQ) — the leader half of hot-standby replication. 404
// when this manager runs without a journal (nothing to replicate).
func (a *ManagerAPI) handleReplicaWAL(w http.ResponseWriter, r *http.Request) {
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
	writeJSON(w, http.StatusOK, batch)
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

// MigrateRequest names a placed VM and its destination server.
type MigrateRequest struct {
	VM   string `json:"vm"`
	Dest string `json:"dest"`
}

func (a *ManagerAPI) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "cluster: bad migrate request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.VM == "" || req.Dest == "" {
		http.Error(w, "cluster: migrate needs vm and dest", http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	if a.refuseUnservable(w) {
		a.mu.Unlock()
		return
	}
	rep, err := a.mgr.Migrate(req.VM, req.Dest)
	walErr := a.mgr.WALError()
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	if walErr != nil {
		// This very command poisoned the journal: it applied in memory but
		// has no durable backing — refuse to acknowledge it.
		http.Error(w, "cluster: journal write failed; command not durably recorded: "+walErr.Error(),
			http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (a *ManagerAPI) handleLaunch(w http.ResponseWriter, r *http.Request) {
	var spec LaunchSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, "cluster: bad launch spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	if a.refuseUnservable(w) {
		a.mu.Unlock()
		return
	}
	idx, rep, err := a.mgr.Launch(spec)
	var server string
	if idx >= 0 {
		server = a.mgr.Servers()[idx].Name()
	}
	walErr := a.mgr.WALError()
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	if walErr != nil {
		http.Error(w, "cluster: journal write failed; launch not durably recorded: "+walErr.Error(),
			http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusCreated, LaunchResponse{Server: server, Report: rep})
}

func (a *ManagerAPI) handleRelease(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	if a.refuseUnservable(w) {
		a.mu.Unlock()
		return
	}
	err := a.mgr.Release(r.PathValue("name"))
	walErr := a.mgr.WALError()
	a.mu.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	if walErr != nil {
		http.Error(w, "cluster: journal write failed; release not durably recorded: "+walErr.Error(),
			http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusNoContent)
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

func (a *ManagerAPI) handleState(w http.ResponseWriter, _ *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
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
	writeJSON(w, http.StatusOK, resp)
}

func (a *ManagerAPI) handleCluster(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
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
			if lc, ok := capability[*LocalController](n); ok {
				api := ControllerAPI{ctrl: lc}
				st.Servers = append(st.Servers, api.state())
			} else if rn, ok := capability[*RemoteNode](n); ok {
				if s, err := rn.State(); err == nil {
					st.Servers = append(st.Servers, s)
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, st)
}

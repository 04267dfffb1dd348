package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/restypes"
	"deflation/internal/substrate"
)

// The REST control plane of §5: "the centralized cluster manager and the
// local-controllers... communicate with each other via a REST API". Each
// agent operation is declared once, as a row of agentOps below:
// ControllerAPI serves the rows and RemoteNode (remote_node.go) calls them.
// The manager's routes are the rows of managerRoutes (manager_api.go), which
// shard.Router routes from.

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
}

// CapacitySummary is everything the manager's placement needs to know about
// a server, and nothing else (no VM inventory): Node.Capacity returns it, the
// agent pushes it on every reply it writes (capacityHeader) and in its
// heartbeat body, and RemoteNode returns the last one it saw. Instance names
// the agent process and Generation counts its capacity changes, so a
// receiver can order two summaries of one instance and notice a restarted
// agent.
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

// ReserveStreamRequest asks for migration link bandwidth.
type ReserveStreamRequest struct {
	RateMBps float64 `json:"rate_mbps"`
}

// ReserveStreamResponse reports the rate actually granted.
type ReserveStreamResponse struct {
	GrantedMBps float64 `json:"granted_mbps"`
}

// DeflateFullyResponse reports the cascade latency of a full deflation.
type DeflateFullyResponse struct {
	LatencyMS float64 `json:"latency_ms"`
}

// agentOp is one agent operation on the wire. ControllerAPI serves it: fence
// when fenced, decode Req, run do under the API mutex, reply status with
// Resp. RemoteNode calls it: retry when retry, and decode a refusal back to
// the sentinel errs lists for its status.
type agentOp[Req, Resp any] struct {
	name         string // RPC telemetry label
	method, path string // path has at most one {wildcard}
	status       int    // the success status
	fenced       bool   // refused from a stale leadership epoch
	retry        bool   // safe to repeat: idempotent in effect
	// lost is the status that, on a retry after a transport failure, means
	// the earlier attempt applied and only its response was lost (0: none).
	lost int
	bad  string    // names the request body in a 400
	errs []wireErr // the sentinels do can return, by the status they map to
	do   func(a *ControllerAPI, w http.ResponseWriter, r *http.Request, req Req) (Resp, error)
}

// wireErr is a sentinel an operation decodes from its status. detail
// formats the client's error after the sentinel, over (the VM, stream or
// spec name the call names, the remote node's name).
type wireErr struct {
	err    error
	detail string
}

var vmNotFound = []wireErr{{ErrVMNotFound, "%[1]q"}}

// noBody is the Req or Resp of an operation without a body. It is struct{},
// so that a shard router's Endpoint rows can name it.
type noBody = struct{}

// hasBody reports whether T is carried as a JSON body.
func hasBody[T any]() bool {
	_, none := any((*T)(nil)).(*noBody)
	return !none
}

// The agent's wire: every route ControllerAPI serves and RemoteNode calls.
var (
	// healthz is fenced despite being a read: a manager's liveness probe
	// doubles as the epoch-assertion beacon (a new leader's first probe
	// raises the guard; a deposed leader's probes are refused).
	opHealthz = &agentOp[noBody, HealthzResponse]{name: "ping", method: "GET", path: "/v1/healthz",
		status: http.StatusOK, fenced: true,
		do: func(a *ControllerAPI, _ http.ResponseWriter, _ *http.Request, _ noBody) (HealthzResponse, error) {
			epoch, age := a.guard.Assertion()
			hz := HealthzResponse{Name: a.ctrl.Name(), Status: "ok", FencedEpoch: epoch}
			if epoch > 0 {
				hz.EpochAgeSeconds = age.Seconds()
			}
			return hz, nil
		}}
	// state is the full state, VM inventory included.
	opState = &agentOp[noBody, NodeState]{name: "state", method: "GET", path: "/v1/state",
		status: http.StatusOK, retry: true,
		do: func(a *ControllerAPI, _ http.ResponseWriter, _ *http.Request, _ noBody) (NodeState, error) {
			return a.state()
		}}
	// launch never retries: a replay could place the VM twice.
	opLaunch = &agentOp[LaunchSpec, LaunchReport]{name: "launch", method: "POST", path: "/v1/vms",
		status: http.StatusCreated, fenced: true, bad: "launch spec",
		errs: []wireErr{{ErrVMExists, "%[1]q"}, {ErrNoCapacity, "remote %[2]s"}},
		do: func(a *ControllerAPI, _ http.ResponseWriter, _ *http.Request, spec LaunchSpec) (LaunchReport, error) {
			return a.ctrl.Launch(spec)
		}}
	opRelease = &agentOp[noBody, noBody]{name: "release", method: "DELETE", path: "/v1/vms/{name}",
		status: http.StatusNoContent, fenced: true, retry: true, lost: http.StatusNotFound, errs: vmNotFound,
		do: func(a *ControllerAPI, _ http.ResponseWriter, r *http.Request, _ noBody) (noBody, error) {
			return noBody{}, a.ctrl.Release(r.PathValue("name"))
		}}
	// deflate retries safely because every call carries an Idempotency-Key:
	// a replay returns the recorded outcome (see ControllerAPI.deflate).
	opDeflate = &agentOp[DeflateVMRequest, DeflateVMResponse]{name: "deflate", method: "POST", path: "/v1/vms/{name}/deflate",
		status: http.StatusOK, fenced: true, retry: true, bad: "deflate request", errs: vmNotFound,
		do: func(a *ControllerAPI, w http.ResponseWriter, r *http.Request, req DeflateVMRequest) (DeflateVMResponse, error) {
			out, replayed, err := a.deflate(r.PathValue("name"), r.Header.Get("Idempotency-Key"), req.Target)
			if replayed {
				w.Header().Set("Idempotency-Replayed", "true")
			}
			return out, err
		}}
	// The live-migration routes (see migrate.go). Checkpoint is a read;
	// restore creates the VM on this (destination) server; the stream routes
	// hold and release migration link bandwidth; deflate-fully is the
	// deflate-then-migrate preparation step.
	opCheckpoint = &agentOp[noBody, VMCheckpoint]{name: "checkpoint", method: "GET", path: "/v1/vms/{name}/checkpoint",
		status: http.StatusOK, retry: true,
		errs: []wireErr{{ErrVMNotFound, "%[1]q"}, {ErrMigrationFailed, "checkpoint %[1]q"}},
		do: func(a *ControllerAPI, _ http.ResponseWriter, r *http.Request, _ noBody) (VMCheckpoint, error) {
			return a.ctrl.Checkpoint(r.PathValue("name"))
		}}
	opDeflateFully = &agentOp[noBody, DeflateFullyResponse]{name: "deflate-fully", method: "POST", path: "/v1/vms/{name}/deflate-fully",
		status: http.StatusOK, fenced: true, retry: true, errs: vmNotFound,
		do: func(a *ControllerAPI, _ http.ResponseWriter, r *http.Request, _ noBody) (DeflateFullyResponse, error) {
			d, err := a.ctrl.DeflateFully(r.PathValue("name"))
			return DeflateFullyResponse{LatencyMS: float64(d) / float64(time.Millisecond)}, err
		}}
	opRestore = &agentOp[VMCheckpoint, noBody]{name: "restore", method: "POST", path: "/v1/restore",
		status: http.StatusCreated, fenced: true, retry: true, lost: http.StatusConflict, bad: "checkpoint",
		errs: []wireErr{{ErrVMExists, "%[1]q"}, {ErrNoCapacity, "restoring %[1]q on remote %[2]s"},
			{substrate.ErrKindMismatch, "restoring %[1]q on remote %[2]s"}},
		do: func(a *ControllerAPI, _ http.ResponseWriter, _ *http.Request, cp VMCheckpoint) (noBody, error) {
			return noBody{}, a.ctrl.RestoreVM(cp)
		}}
	opReserveStream = &agentOp[ReserveStreamRequest, ReserveStreamResponse]{name: "reserve-stream",
		method: "POST", path: "/v1/streams/{stream}/reserve", status: http.StatusOK, fenced: true, retry: true, bad: "stream request",
		errs: []wireErr{{ErrNoCapacity, "stream %[1]q on remote %[2]s"}},
		do: func(a *ControllerAPI, _ http.ResponseWriter, r *http.Request, req ReserveStreamRequest) (ReserveStreamResponse, error) {
			granted, err := a.ctrl.ReserveStream(r.PathValue("stream"), req.RateMBps)
			return ReserveStreamResponse{GrantedMBps: granted}, err
		}}
	opReleaseStream = &agentOp[noBody, noBody]{name: "release-stream", method: "DELETE", path: "/v1/streams/{stream}",
		status: http.StatusNoContent, fenced: true, retry: true,
		do: func(a *ControllerAPI, _ http.ResponseWriter, r *http.Request, _ noBody) (noBody, error) {
			return noBody{}, a.ctrl.ReleaseStream(r.PathValue("stream"))
		}}

	agentOps = []agentRoute{opHealthz, opState, opLaunch, opRelease, opDeflate,
		opCheckpoint, opDeflateFully, opRestore, opReserveStream, opReleaseStream}
)

// agentRoute is an agentOp with its types erased, for the table.
type agentRoute interface {
	pattern() string
	handler(a *ControllerAPI) http.HandlerFunc
}

func (op *agentOp[Req, Resp]) pattern() string { return op.method + " " + op.path }

// url fills the path's wildcard with name.
func (op *agentOp[Req, Resp]) url(name string) string { return fillPath(op.path, name) }

// fillPath fills a route path's wildcard with name.
func fillPath(path, name string) string {
	i := strings.IndexByte(path, '{')
	if i < 0 {
		return path
	}
	return path[:i] + name + path[strings.IndexByte(path, '}')+1:]
}

// refusal is the client's error for a reply other than op.status: the
// sentinel op.errs maps the status to; else ErrStaleEpoch for a 412, which
// is never retried (the only cure is standing down); else an error carrying
// the agent's message, retryable for a 5xx (the agent answered without
// committing a change).
func (op *agentOp[Req, Resp]) refusal(resp *http.Response, name, node string) error {
	for _, e := range op.errs {
		if statusOf(e.err) == resp.StatusCode {
			return fmt.Errorf("%w: %s", e.err, fmt.Sprintf(e.detail, name, node))
		}
	}
	if resp.StatusCode == http.StatusPreconditionFailed {
		return fmt.Errorf("%w: remote %s refused: %s", ErrStaleEpoch, op.name, resp.Status)
	}
	err := fmt.Errorf("cluster: remote %s: %s", op.name, resp.Status)
	if msg, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<10)); rerr == nil && len(bytes.TrimSpace(msg)) > 0 {
		err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(msg))
	}
	if resp.StatusCode >= 500 {
		return retryable(err)
	}
	return err
}

// wireErrors maps each sentinel a handler can fail with to its status, the
// first match winning; any other error is a 500. 404 and 409 each stand for
// two sentinels, so a client decodes a status only to the sentinels its
// operation's handler can return (agentOp.errs).
var wireErrors = []struct {
	err    error
	status int
}{
	{ErrVMNotFound, http.StatusNotFound},
	{ErrVMExists, http.StatusConflict},
	{ErrNoCapacity, http.StatusInsufficientStorage},
	{ErrNodeNotFound, http.StatusNotFound},
	{ErrMigrationFailed, http.StatusConflict},
	{ErrStaleEpoch, http.StatusPreconditionFailed},
	{substrate.ErrKindMismatch, http.StatusUnprocessableEntity},
	// The cascade's refusals are deterministic: a retry cannot succeed.
	{cascade.ErrHighPriority, http.StatusConflict},
	{cascade.ErrPreempted, http.StatusConflict},
	{cascade.ErrExceedsDeflatable, http.StatusConflict},
}

// statusOf returns the status err is sent with.
func statusOf(err error) int {
	for _, e := range wireErrors {
		if errors.Is(err, e.err) {
			return e.status
		}
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), statusOf(err))
}

// writeJSON replies code with v as a JSON line, or 500 with the encoding
// error when v cannot be encoded (a non-finite float): v is encoded before
// the status goes out.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "cluster: encoding reply: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// writeReply sends a success: the status alone when Resp has no body.
func writeReply[Resp any](w http.ResponseWriter, status int, out Resp) {
	if !hasBody[Resp]() {
		w.WriteHeader(status)
		return
	}
	writeJSON(w, status, out)
}

// decodeRequest reads a request's body into Req, then checks it when Req
// has a validate method. what names the body in a 400. false means the 400
// has been written.
func decodeRequest[Req any](w http.ResponseWriter, r *http.Request, what string) (req Req, ok bool) {
	if !hasBody[Req]() {
		return req, true
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "cluster: bad "+what+": "+err.Error(), http.StatusBadRequest)
		return req, false
	}
	if v, ok := any(&req).(interface{ validate() error }); ok {
		if err := v.validate(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return req, false
		}
	}
	return req, true
}

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

// Handler serves the agent's wire (agentOps). Every reply, errors included,
// carries the capacity summary as it stands after the request
// (capacityHeader).
func (a *ControllerAPI) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, op := range agentOps {
		mux.HandleFunc(op.pattern(), op.handler(a))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(&summaryWriter{ResponseWriter: w, api: a}, r)
	})
}

// handler serves op: fence, decode, run under a.mu, and reply after
// unlocking, because summaryWriter takes a.mu to stamp the reply.
func (op *agentOp[Req, Resp]) handler(a *ControllerAPI) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if op.fenced && !a.fence(w, r) {
			return
		}
		req, ok := decodeRequest[Req](w, r, op.bad)
		if !ok {
			return
		}
		a.mu.Lock()
		out, err := op.do(a, w, r, req)
		a.mu.Unlock()
		if err != nil {
			writeError(w, err)
			return
		}
		writeReply(w, op.status, out)
	}
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

// CapacitySummary returns the server's current placement summary: the
// controller's memo, read under the API mutex and stamped with this agent's
// instance.
func (a *ControllerAPI) CapacitySummary() CapacitySummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	sum := a.ctrl.memo().sum
	sum.Instance = a.instance
	return sum
}

// FencedEpoch returns the highest leadership epoch this controller has
// obeyed, and how many stale-epoch commands it has refused.
func (a *ControllerAPI) FencedEpoch() (epoch, staleRejected uint64) {
	return a.guard.Current(), a.guard.StaleRejections()
}

// fence admits or refuses a mutating request by its fencing token: the
// leadership epoch plus the leader identity that breaks same-epoch ties.
// Returns false (response already written) when the caller's token is
// stale. Requests without the epoch header — legacy unfenced managers, load
// balancers, humans, standbys corroborating, leaders querying the fenced
// maximum — are admitted.
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

// state is the server's full state, VM inventory included. Called with a.mu
// held.
func (a *ControllerAPI) state() (NodeState, error) {
	sum := &a.ctrl.memo().sum
	st := NodeState{
		Name:               a.ctrl.Name(),
		Mode:               sum.Mode,
		Free:               sum.Free,
		Availability:       sum.Availability,
		PreemptableCeiling: sum.PreemptableCeiling,
		Overcommitment:     sum.Overcommitment,
		Preemptions:        sum.Preemptions,
		Substrate:          sum.Substrate,
	}
	var err error
	st.VMs, err = a.ctrl.Inventory()
	return st, err
}

// deflate runs one keyed deflate. Called with a.mu held. replayed reports
// that the key was seen before: the deflate already applied and the client
// retried because the response was lost, so the recorded outcome is
// returned instead of reclaiming twice.
func (a *ControllerAPI) deflate(name, key string, target restypes.Vector) (out DeflateVMResponse, replayed bool, err error) {
	if key != "" {
		if cached, ok := a.idem[key]; ok {
			return cached, true, nil
		}
	}
	v, err := a.ctrl.VM(name)
	if err != nil {
		return out, false, err
	}
	rep := &a.ctrl.rep
	err = a.ctrl.casc.Deflate(v, target, rep)
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

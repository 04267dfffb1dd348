package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"deflation/internal/restypes"
)

// RemoteNode implements Node over a ControllerAPI endpoint, letting the
// centralized manager drive servers across the network exactly as the
// paper's deployment does.
//
// Unlike a naive HTTP client, RemoteNode assumes the network fails: every
// operation runs under a per-attempt context deadline (RetryPolicy.OpTimeout
// — replacing the old single flat 30 s client timeout), idempotent
// operations retry with capped exponential backoff plus jitter, and deflate
// requests carry idempotency keys so a retried deflate never double-reclaims.
// Launch is not idempotent and never retries. Which operation retries is
// agentOp.retry.
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

	// The agent's last pushed capacity summary (see foldCapacity), which
	// Capacity returns. capKnown is false while the cache is cold and after
	// any transport error: the node is then no placement candidate until a
	// reply, heartbeat or probe refills it. capAt is when the summary was
	// last confirmed. watchers run, under mu, whenever the summary or
	// capKnown moves (see WatchCapacity).
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
	n := NewRemoteNodeNamed("", baseURL, policy)
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+opHealthz.path, nil)
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

// drainClose drains and closes an HTTP response body so the keep-alive
// connection can be reused rather than torn down.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}

// call runs one agent operation: the request body is req unless Req has
// none, name fills the path's wildcard and names the subject in errors. It
// retries under op.retry, and a reply with op.lost after a transport
// failure counts as success: the earlier attempt applied and only its
// response was lost.
func call[Req, Resp any](n *RemoteNode, op *agentOp[Req, Resp], name string, req Req, hdr http.Header) (Resp, error) {
	var out Resp
	var body []byte
	if hasBody[Req]() {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return out, err
		}
	}
	path := op.url(name)
	sawTransportFailure := false
	err := n.withRetry(op.name, op.retry, func() error {
		err := n.attempt(op.method, path, body, hdr, func(resp *http.Response) error {
			switch {
			case resp.StatusCode == op.status && hasBody[Resp]():
				return json.NewDecoder(resp.Body).Decode(&out)
			case resp.StatusCode == op.status, resp.StatusCode == op.lost && sawTransportFailure:
				return nil
			}
			return op.refusal(resp, name, n.name)
		})
		if isTransportFailure(err) {
			sawTransportFailure = true
		}
		return err
	})
	return out, err
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
			if path == opHealthz.path {
				source = capacityFromProbe
			}
			n.foldCapacity(sum, source)
		}
	}
	return handle(resp)
}

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
	if _, known := n.Capacity(); known {
		return true
	}
	// The outcome is the cache state: attempt has already recorded a
	// transport error in lastErr, counted it and marked the capacity
	// unknown.
	_ = n.attempt(http.MethodGet, opHealthz.path, nil, nil, func(*http.Response) error { return nil })
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

// Capacity implements Node: the last summary the agent pushed, and whether
// it is currently trusted (capKnown).
func (n *RemoteNode) Capacity() (CapacitySummary, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cap, n.capKnown
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
	return call(n, opState, "", noBody{}, nil)
}

// Ping implements Node with a single non-retried liveness probe: the health
// monitor counts consecutive misses itself, so retrying here would only
// mask real failures.
func (n *RemoteNode) Ping() error {
	_, err := call(n, opHealthz, "", noBody{}, nil)
	return err
}

// Name implements Node.
func (n *RemoteNode) Name() string { return n.name }

// Launch implements Node. It runs under the per-attempt deadline and never
// retries.
func (n *RemoteNode) Launch(spec LaunchSpec) (LaunchReport, error) {
	if spec.NewApp != nil {
		return LaunchReport{}, fmt.Errorf("cluster: remote launch of %q cannot carry NewApp; use AppKind", spec.Name)
	}
	return call(n, opLaunch, spec.Name, spec, nil)
}

// Release implements Node. Deleting a VM is idempotent, so Release retries;
// a 404 on a retry that follows a transport failure is treated as success
// (the earlier attempt applied and only the response was lost).
func (n *RemoteNode) Release(name string) error {
	_, err := call(n, opRelease, name, noBody{}, nil)
	return err
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
	hdr := http.Header{"Idempotency-Key": []string{n.nextIdemKey()}}
	return call(n, opDeflate, vmName, DeflateVMRequest{Target: target}, hdr)
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

// Checkpoint implements Node over the wire. The returned checkpoint carries
// no live application object; the destination rebuilds it from AppKind.
func (n *RemoteNode) Checkpoint(name string) (VMCheckpoint, error) {
	return call(n, opCheckpoint, name, noBody{}, nil)
}

// RestoreVM implements Node over the wire. Restoring is creation, but a 409
// on a retry that follows a transport failure means the earlier attempt
// landed and only the response was lost — that is success, mirroring
// Release's lost-response handling.
func (n *RemoteNode) RestoreVM(cp VMCheckpoint) error {
	_, err := call(n, opRestore, cp.VM.Domain.Name, cp, nil)
	return err
}

// ReserveStream implements Node over the wire. The server-side reservation
// is idempotent per stream name, so retries are safe.
func (n *RemoteNode) ReserveStream(stream string, rateMBps float64) (float64, error) {
	out, err := call(n, opReserveStream, stream, ReserveStreamRequest{RateMBps: rateMBps}, nil)
	return out.GrantedMBps, err
}

// ReleaseStream implements Node over the wire; releasing is idempotent.
func (n *RemoteNode) ReleaseStream(stream string) error {
	_, err := call(n, opReleaseStream, stream, noBody{}, nil)
	return err
}

// DeflateFully implements Node over the wire. Squeezing a VM to its minimum
// is idempotent in effect (a second squeeze is a no-op), so it retries.
func (n *RemoteNode) DeflateFully(name string) (time.Duration, error) {
	out, err := call(n, opDeflateFully, name, noBody{}, nil)
	return time.Duration(out.LatencyMS * float64(time.Millisecond)), err
}

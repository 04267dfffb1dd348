package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"deflation/internal/journal"
)

// Endpoint is one route of a manager-side wire, typed by its request and
// its reply: the server answers Status with a Resp, and Call sends a Req
// and decodes that Resp. Req or Resp is struct{} where the route carries no
// body. The manager's rows are managerRoutes; a shard router declares its
// own, which set only the exported fields.
type Endpoint[Req, Resp any] struct {
	Method, Path string
	Status       int // the success status

	// again is a second success status, for a repeat that changed nothing
	// (0: none).
	again int
	// errs are the sentinels a refusal unwraps to, by their wireErrors
	// status.
	errs []error
	// journal names the command in the 503 refusing an acknowledgement its
	// journal record does not back; "" for a route that journals nothing.
	journal string
	// pathKey names the path wildcard holding the ring key; bodyKey reads
	// it from the request (see ManagerRoute).
	pathKey string
	bodyKey func(*Req) string
	serve   serveFunc[Req, Resp]
}

// Pattern is the route's ServeMux pattern.
func (ep *Endpoint[Req, Resp]) Pattern() string { return ep.Method + " " + ep.Path }

// route is ep's row of managerRoutes, its types erased.
func (ep *Endpoint[Req, Resp]) route() ManagerRoute {
	rt := ManagerRoute{Method: ep.Method, Path: ep.Path, PathKey: ep.pathKey, journal: ep.journal,
		serve: func(a *ManagerAPI, w http.ResponseWriter, r *http.Request) { ep.serve(a, ep, w, r) }}
	if ep.bodyKey != nil {
		rt.BodyKey = func(body []byte) (string, error) {
			var req Req
			if err := json.Unmarshal(body, &req); err != nil {
				return "", err
			}
			return ep.bodyKey(&req), nil
		}
	}
	return rt
}

// Call sends one request on ep to c's manager: name fills the path's
// wildcard, query (nil for none) follows the path, and req is the JSON body
// unless Req is struct{}. The body is a bytes.Reader, so a 307 from a shard
// that does not own the key re-sends it. A reply other than ep's success
// status is a *StatusError.
func (ep *Endpoint[Req, Resp]) Call(ctx context.Context, c ManagerClient, name string, query url.Values, req Req) (Resp, error) {
	var out Resp
	var body io.Reader
	if hasBody[Req]() {
		b, err := json.Marshal(req)
		if err != nil {
			return out, err
		}
		body = bytes.NewReader(b)
	}
	target := c.Base + fillPath(ep.Path, name)
	if len(query) > 0 {
		target += "?" + query.Encode()
	}
	hreq, err := http.NewRequestWithContext(ctx, ep.Method, target, body)
	if err != nil {
		return out, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(hreq)
	if err != nil {
		return out, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != ep.Status && (ep.again == 0 || resp.StatusCode != ep.again) {
		se := NewStatusError(resp)
		for _, sentinel := range ep.errs {
			if statusOf(sentinel) == resp.StatusCode {
				se.err = sentinel
				break
			}
		}
		return out, se
	}
	if hasBody[Resp]() {
		err = json.NewDecoder(resp.Body).Decode(&out)
	}
	return out, err
}

// StatusError is a reply other than the status a request expected. It
// unwraps to the sentinel its route decodes the status to, if any.
type StatusError struct {
	Code         int
	status, body string
	err          error
}

// NewStatusError reads resp's status and the start of its body.
func NewStatusError(resp *http.Response) *StatusError {
	// The status is the error; a body cut short by a read error still
	// names it.
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return &StatusError{Code: resp.StatusCode, status: resp.Status, body: string(bytes.TrimSpace(body))}
}

func (e *StatusError) Error() string { return e.status + ": " + e.body }

func (e *StatusError) Unwrap() error { return e.err }

// ManagerClient calls a manager's wire at Base through HTTP, one method per
// row of managerRoutes. A federated manager redirects a keyed request to
// the shard that owns its key, and HTTP follows. The reads take shard, the
// ID a federated manager's ?shard= selects ("" for the shard reached).
type ManagerClient struct {
	Base string
	HTTP *http.Client
}

// Launch places a VM.
func (c ManagerClient) Launch(ctx context.Context, spec LaunchSpec) (LaunchResponse, error) {
	return launchRoute.Call(ctx, c, "", nil, spec)
}

// Release releases a VM.
func (c ManagerClient) Release(ctx context.Context, name string) error {
	_, err := releaseRoute.Call(ctx, c, name, nil, noBody{})
	return err
}

// Migrate live-migrates a VM.
func (c ManagerClient) Migrate(ctx context.Context, req MigrateRequest) (MigrationReport, error) {
	return migrateRoute.Call(ctx, c, "", nil, req)
}

// Register registers an agent with the manager that owns its name.
func (c ManagerClient) Register(ctx context.Context, req RegisterNodeRequest) (RegisterNodeResponse, error) {
	return registerRoute.Call(ctx, c, "", nil, req)
}

// Heartbeat pushes a node's heartbeat and capacity summary. An error that
// is ErrNodeNotFound means no manager manages the node: register again.
func (c ManagerClient) Heartbeat(ctx context.Context, name string, sum CapacitySummary) error {
	_, err := heartbeatRoute.Call(ctx, c, name, nil, sum)
	return err
}

// Cluster reads the aggregate view, with each server's state when servers
// is set.
func (c ManagerClient) Cluster(ctx context.Context, shard string, servers bool) (ClusterState, error) {
	q := shardQuery(shard)
	if servers {
		q.Set("servers", "true")
	}
	return clusterRoute.Call(ctx, c, "", q, noBody{})
}

// State reads the durable-state view.
func (c ManagerClient) State(ctx context.Context, shard string) (ManagerStateResponse, error) {
	return stateRoute.Call(ctx, c, "", shardQuery(shard), noBody{})
}

// Nodes reads the registered fleet.
func (c ManagerClient) Nodes(ctx context.Context, shard string) (NodeListResponse, error) {
	return nodesRoute.Call(ctx, c, "", shardQuery(shard), noBody{})
}

// ReplicaWAL reads the leader's journal after sequence after.
func (c ManagerClient) ReplicaWAL(ctx context.Context, after uint64) (journal.Batch, error) {
	return replicaWALRoute.Call(ctx, c, "", url.Values{"after": {strconv.FormatUint(after, 10)}}, noBody{})
}

func shardQuery(shard string) url.Values {
	q := url.Values{}
	if shard != "" {
		q.Set("shard", shard)
	}
	return q
}

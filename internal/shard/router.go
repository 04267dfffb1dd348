package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"deflation/internal/cluster"
)

// ShardEpochHeader carries the shard-map version a response was routed
// under. Clients cache the map and re-fetch when the header outruns their
// copy — after an adoption, the first redirected request teaches them the
// new ownership.
const ShardEpochHeader = "X-Deflation-Shard-Epoch"

// The router's own wire, beside the manager's (cluster.ManagerRoutes).
const (
	shardMapPath = "/v1/shardmap"
	adoptPath    = "/v1/adopt"
)

var (
	// mapGetRoute serves the shard map and mapPushRoute gossips one.
	mapGetRoute  = &cluster.Endpoint[struct{}, Map]{Method: http.MethodGet, Path: shardMapPath, Status: http.StatusOK}
	mapPushRoute = &cluster.Endpoint[Map, struct{}]{Method: http.MethodPost, Path: shardMapPath, Status: http.StatusNoContent}
	// adoptRoute has the server adopt the dead shard ?shard=ID.
	adoptRoute = &cluster.Endpoint[struct{}, cluster.RecoveryReport]{Method: http.MethodPost, Path: adoptPath, Status: http.StatusOK}
)

// Client calls a federated manager: the manager's wire, and one method per
// route of the router's own.
type Client struct{ cluster.ManagerClient }

// ShardMap reads the manager's shard map.
func (c Client) ShardMap(ctx context.Context) (Map, error) {
	return mapGetRoute.Call(ctx, c.ManagerClient, "", nil, struct{}{})
}

// PushShardMap offers the manager a map, which it keeps iff it is newer
// than its own.
func (c Client) PushShardMap(ctx context.Context, m Map) error {
	_, err := mapPushRoute.Call(ctx, c.ManagerClient, "", nil, m)
	return err
}

// Adopt has the manager adopt the dead shard's journal.
func (c Client) Adopt(ctx context.Context, dead string) (cluster.RecoveryReport, error) {
	return adoptRoute.Call(ctx, c.ManagerClient, "", url.Values{"shard": {dead}}, struct{}{})
}

// Router is a federated manager's HTTP front door. A keyed request (VM name
// for VM commands, node name for registrations and heartbeats) is either
// dispatched to a locally mounted shard — this manager's own, plus any it
// has adopted — or redirected (307 + ShardEpochHeader) to the owning peer.
// A key-less request serves the local shard's view; ?shard=ID selects an
// adopted shard instead.
type Router struct {
	self  string
	store *MapStore
	// adopt serves POST /v1/adopt (set by the Server owning the router;
	// nil = this router adopts nothing).
	adopt func(ctx context.Context, dead string) (*cluster.RecoveryReport, error)

	mu    sync.RWMutex
	local map[string]http.Handler
}

// NewRouter builds a router for the manager identified by self.
func NewRouter(self string, store *MapStore) *Router {
	return &Router{self: self, store: store, local: make(map[string]http.Handler)}
}

// Store returns the router's shard-map store.
func (rt *Router) Store() *MapStore { return rt.store }

// Mount installs the handler serving shard id locally (this manager's own
// shard at boot, a dead peer's shard after adoption).
func (rt *Router) Mount(id string, h http.Handler) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.local[id] = h
}

func (rt *Router) localHandler(id string) http.Handler {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.local[id]
}

// Handler serves the router's routes from one mux.
func (rt *Router) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	for pattern, h := range rt.routes() {
		mux.HandleFunc(pattern, h)
	}
	return mux
}

// routes maps each pattern the router serves to its handler: the shard map,
// adoption, and every manager route (cluster.ManagerRoutes), routed by the
// ring key the route declares. VM and node names hash onto the same ring,
// so ownership is total and deterministic. A route without a key serves
// the local (or ?shard=ID) view.
func (rt *Router) routes() map[string]http.HandlerFunc {
	routes := map[string]http.HandlerFunc{
		mapGetRoute.Pattern():  rt.handleMapGet,
		mapPushRoute.Pattern(): rt.handleMapPost,
		adoptRoute.Pattern():   rt.handleAdopt,
	}
	for _, r := range cluster.ManagerRoutes() {
		routes[r.Method+" "+r.Path] = rt.serveLocal
		if r.PathKey != "" || r.BodyKey != nil {
			routes[r.Method+" "+r.Path] = rt.keyed(r)
		}
	}
	return routes
}

// handleMapGet serves the current shard map.
func (rt *Router) handleMapGet(w http.ResponseWriter, _ *http.Request) {
	v := rt.store.View()
	body, err := json.Marshal(v.Map)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set(ShardEpochHeader, strconv.FormatUint(v.Map.Version, 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(mapGetRoute.Status)
	w.Write(append(body, '\n'))
}

// handleMapPost merges a gossiped map (kept iff strictly newer).
func (rt *Router) handleMapPost(w http.ResponseWriter, r *http.Request) {
	var m Map
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		http.Error(w, "shard: bad map: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := m.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rt.store.Merge(m)
	v := rt.store.View()
	w.Header().Set(ShardEpochHeader, strconv.FormatUint(v.Map.Version, 10))
	w.WriteHeader(mapPushRoute.Status)
}

// handleAdopt adopts the dead shard ?shard=ID and replies with its
// recovery report: 404 when the shard map does not list the ID, 409 when
// the shard is served here already.
func (rt *Router) handleAdopt(w http.ResponseWriter, r *http.Request) {
	dead := r.URL.Query().Get("shard")
	if dead == "" {
		http.Error(w, "shard: "+adoptPath+" needs ?shard=ID", http.StatusBadRequest)
		return
	}
	if rt.adopt == nil {
		http.Error(w, "shard: "+rt.self+" adopts no shards", http.StatusNotFound)
		return
	}
	rep, err := rt.adopt(r.Context(), dead)
	switch {
	case errors.Is(err, errNotMember):
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	case errors.Is(err, errServed):
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	var body []byte
	if err == nil {
		body, err = json.Marshal(rep)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(adoptRoute.Status)
	w.Write(append(body, '\n'))
}

// keyed routes by the route's ring key: a path value, or a field of the
// JSON body, which is re-injected for the local handler (or discarded on
// redirect — a 307 makes the client resend it).
func (rt *Router) keyed(route cluster.ManagerRoute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue(route.PathKey)
		if route.BodyKey != nil {
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				http.Error(w, "shard: reading body: "+err.Error(), http.StatusBadRequest)
				return
			}
			if key, err = route.BodyKey(body); err != nil {
				http.Error(w, "shard: bad request body: "+err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		rt.route(w, r, key)
	}
}

// route dispatches to the owning shard's local handler or redirects to
// the member serving that shard. Ownership is the RING owner — adoption
// never reassigns keys to a different shard, it only changes which member
// serves the dead shard's journal — so the local check is by shard ID
// (which is how adopted handlers are mounted) and only the redirect target
// resolves through the adoption overlay. An empty key serves locally (the
// request cannot be ring-routed; the local shard resolves it).
func (rt *Router) route(w http.ResponseWriter, r *http.Request, key string) {
	v := rt.store.View()
	version := strconv.FormatUint(v.Map.Version, 10)
	owner := rt.self
	if key != "" {
		if owner = v.RingOwner(key); owner == "" {
			http.Error(w, "shard: empty shard map", http.StatusServiceUnavailable)
			return
		}
	}
	if h := rt.localHandler(owner); h != nil {
		w.Header().Set(ShardEpochHeader, version)
		h.ServeHTTP(w, r)
		return
	}
	target := v.Map.MemberURL(v.Map.resolveAdoption(owner))
	if target == "" {
		http.Error(w, fmt.Sprintf("shard: no endpoint for owner %s of %q", owner, key),
			http.StatusServiceUnavailable)
		return
	}
	w.Header().Set(ShardEpochHeader, version)
	redirect(w, r, target)
}

// redirect sends the request on to the same path and query at target.
func redirect(w http.ResponseWriter, r *http.Request, target string) {
	url := target + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, url, http.StatusTemporaryRedirect)
}

// serveLocal serves a key-less read from the local shard (?shard=ID
// selects a specific mounted shard, e.g. one this manager adopted; an ID
// mounted elsewhere redirects there).
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request) {
	v := rt.store.View()
	id := r.URL.Query().Get("shard")
	if id == "" {
		id = rt.self
	}
	if h := rt.localHandler(id); h != nil {
		w.Header().Set(ShardEpochHeader, strconv.FormatUint(v.Map.Version, 10))
		h.ServeHTTP(w, r)
		return
	}
	owner := v.Map.resolveAdoption(id)
	if target := v.Map.MemberURL(owner); owner != rt.self && target != "" {
		redirect(w, r, target)
		return
	}
	http.Error(w, fmt.Sprintf("shard: %s not served here", id), http.StatusNotFound)
}

// GossipOnce pulls every peer's shard map and merges newer versions, then
// pushes the local map to any peer that answered with an older one.
// Unreachable peers are skipped — gossip is best-effort; correctness
// comes from redirects carrying ShardEpochHeader. The pushes a peer
// refused or lost come back joined: that peer still routes by its old map.
func (rt *Router) GossipOnce(ctx context.Context, client *http.Client) error {
	if client == nil {
		client = http.DefaultClient
	}
	var errs []error
	self := rt.store.View()
	for _, mem := range self.Map.Members {
		if mem.ID == rt.self || mem.URL == "" {
			continue
		}
		peer := Client{cluster.ManagerClient{Base: mem.URL, HTTP: client}}
		m, err := peer.ShardMap(ctx)
		if err != nil {
			continue
		}
		cur := rt.store.View().Map
		if m.Version > cur.Version {
			rt.store.Merge(m)
		} else if m.Version < cur.Version {
			if err := peer.PushShardMap(ctx, cur); err != nil {
				errs = append(errs, fmt.Errorf("shard: pushing map v%d to %s: %w", cur.Version, mem.ID, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Gossip runs GossipOnce every interval until ctx is done, handing each
// round's error to report.
func (rt *Router) Gossip(ctx context.Context, client *http.Client, interval time.Duration, report func(error)) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := rt.GossipOnce(ctx, client); err != nil {
				report(err)
			}
		}
	}
}

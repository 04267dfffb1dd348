package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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

// shardMapPath serves (GET) and gossips (POST) the shard map.
const shardMapPath = "/v1/shardmap"

// adoptPath has the server adopt the dead shard ?shard=ID (POST).
const adoptPath = "/v1/adopt"

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
		"GET " + shardMapPath:  rt.handleMapGet,
		"POST " + shardMapPath: rt.handleMapPost,
		"POST " + adoptPath:    rt.handleAdopt,
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
	w.WriteHeader(http.StatusNoContent)
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
// comes from redirects carrying ShardEpochHeader.
func (rt *Router) GossipOnce(ctx context.Context, client *http.Client) {
	if client == nil {
		client = http.DefaultClient
	}
	self := rt.store.View()
	for _, mem := range self.Map.Members {
		if mem.ID == rt.self || mem.URL == "" {
			continue
		}
		peer, err := FetchMap(ctx, client, mem.URL)
		if err != nil {
			continue
		}
		if peer.Version > rt.store.View().Map.Version {
			rt.store.Merge(peer)
		} else if peer.Version < rt.store.View().Map.Version {
			PushMap(ctx, client, mem.URL, rt.store.View().Map)
		}
	}
}

// Gossip runs GossipOnce every interval until ctx is done.
func (rt *Router) Gossip(ctx context.Context, client *http.Client, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.GossipOnce(ctx, client)
		}
	}
}

// FetchMap retrieves a manager's shard map.
func FetchMap(ctx context.Context, client *http.Client, baseURL string) (Map, error) {
	var m Map
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+shardMapPath, nil)
	if err != nil {
		return m, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return m, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("shard: fetching map from %s: %s", baseURL, resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// PushMap offers a map to a peer (kept iff newer than the peer's own).
func PushMap(ctx context.Context, client *http.Client, baseURL string, m Map) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+shardMapPath, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	drain(resp)
	if resp.StatusCode >= 300 {
		return fmt.Errorf("shard: pushing map to %s: %s", baseURL, resp.Status)
	}
	return nil
}

package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"deflation/internal/cluster"
)

// echoShard is a stand-in shard handler that reports which shard served
// the request.
func echoShard(id string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "served-by:%s", id)
	})
}

// twoRouterFixture builds two routers over real listeners, each serving
// its own shard, sharing one map.
func twoRouterFixture(t *testing.T) (a, b *Router, aURL, bURL string) {
	t.Helper()
	srvA := httptest.NewServer(nil)
	srvB := httptest.NewServer(nil)
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)
	m := Map{Version: 1, Members: []Member{
		{ID: "shard-a", URL: srvA.URL},
		{ID: "shard-b", URL: srvB.URL},
	}}
	a = NewRouter("shard-a", NewMapStore(m))
	b = NewRouter("shard-b", NewMapStore(m))
	a.Mount("shard-a", echoShard("shard-a"))
	b.Mount("shard-b", echoShard("shard-b"))
	srvA.Config.Handler = a.Handler()
	srvB.Config.Handler = b.Handler()
	return a, b, srvA.URL, srvB.URL
}

// keyOwnedBy finds a VM name the given shard owns under the fixture's map.
func keyOwnedBy(t *testing.T, v *View, shard string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("vm-%d", i)
		if v.Owner(k) == shard {
			return k
		}
	}
	t.Fatal("no key found for shard", shard)
	return ""
}

func TestRouterLocalDispatchAndRedirect(t *testing.T) {
	a, _, aURL, bURL := twoRouterFixture(t)
	v := a.Store().View()

	client := &http.Client{} // follows 307s, re-sending the body
	for _, shard := range []string{"shard-a", "shard-b"} {
		key := keyOwnedBy(t, v, shard)
		body := fmt.Sprintf(`{"name":%q}`, key)
		resp, err := client.Post(aURL+"/v1/vms", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := readAll(resp)
		if want := "served-by:" + shard; got != want {
			t.Errorf("key %s (owner %s) served by %q", key, shard, got)
		}
		if resp.Header.Get(ShardEpochHeader) != "1" {
			t.Errorf("missing/wrong %s: %q", ShardEpochHeader, resp.Header.Get(ShardEpochHeader))
		}
	}

	// Without following redirects the foreign-owned key must 307 to the peer.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	key := keyOwnedBy(t, v, "shard-b")
	resp, err := noFollow.Post(aURL+"/v1/vms", "application/json",
		strings.NewReader(fmt.Sprintf(`{"name":%q}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	readAll(resp)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("foreign key status = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, bURL) {
		t.Errorf("redirect location = %q, want prefix %q", loc, bURL)
	}
}

func TestRouterHeartbeatRoutesByPathKey(t *testing.T) {
	a, _, aURL, _ := twoRouterFixture(t)
	v := a.Store().View()
	client := &http.Client{}
	for _, shard := range []string{"shard-a", "shard-b"} {
		key := keyOwnedBy(t, v, shard)
		resp, err := client.Post(aURL+"/v1/nodes/"+key+"/heartbeat", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := readAll(resp); got != "served-by:"+shard {
			t.Errorf("heartbeat for %s served by %q, want %s", key, got, shard)
		}
	}
}

func TestRouterServeLocalShardSelector(t *testing.T) {
	a, _, aURL, _ := twoRouterFixture(t)
	client := &http.Client{}

	// A foreign shard not mounted here redirects to wherever the map says
	// it lives.
	resp, err := client.Get(aURL + "/v1/cluster?shard=shard-b")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(resp); got != "served-by:shard-b" {
		t.Errorf("?shard=shard-b before mounting served %q", got)
	}

	// shard-a adopts shard-b's handler (as adoption would mount it).
	a.Mount("shard-b", echoShard("shard-b-adopted"))
	resp, err = client.Get(aURL + "/v1/cluster?shard=shard-b")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(resp); got != "served-by:shard-b-adopted" {
		t.Errorf("?shard=shard-b on adopter served %q", got)
	}
}

func TestRouterGossipSpreadsNewerMap(t *testing.T) {
	a, b, _, _ := twoRouterFixture(t)
	// b learns of an adoption (version bump); a still has v1.
	b.Store().Adopt("shard-a", "shard-b")
	bumped := b.Store().View().Map.Version
	if bumped <= 1 {
		t.Fatal("Adopt did not bump version")
	}
	if err := b.GossipOnce(context.Background(), nil); err != nil { // push: b is newer
		t.Fatal(err)
	}
	if got := a.Store().View().Map.Version; got != bumped {
		t.Fatalf("gossip did not spread: a at v%d, want v%d", got, bumped)
	}
	if got := a.Store().View().Owner(keyOwnedBy(t, NewView(Map{Version: 1, Members: a.Store().View().Map.Members}), "shard-a")); got != "shard-b" {
		t.Errorf("adopted ownership not visible on peer: owner = %s", got)
	}
}

// TestRouterGossipReportsRefusedPush: a peer that serves an older map but
// answers the push 500 makes GossipOnce return an error naming it.
func TestRouterGossipReportsRefusedPush(t *testing.T) {
	peer := httptest.NewServer(nil)
	t.Cleanup(peer.Close)
	m := Map{Version: 1, Members: []Member{{ID: "shard-a", URL: "http://unused"}, {ID: "shard-b", URL: peer.URL}}}
	b := NewRouter("shard-b", NewMapStore(m))
	peer.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			http.Error(w, "disk full", http.StatusInternalServerError)
			return
		}
		b.Handler().ServeHTTP(w, r)
	})
	a := NewRouter("shard-a", NewMapStore(m))
	a.Store().Adopt("shard-b", "shard-a")
	err := a.GossipOnce(context.Background(), nil)
	var refused *cluster.StatusError
	if !errors.As(err, &refused) || refused.Code != http.StatusInternalServerError || !strings.Contains(err.Error(), "to shard-b") {
		t.Errorf("GossipOnce = %v, want the 500 from shard-b", err)
	}
}

func TestRouterEmptyKeyServesLocally(t *testing.T) {
	_, _, aURL, _ := twoRouterFixture(t)
	client := &http.Client{}
	// A nameless registration cannot be ring-routed; the reached shard keeps it.
	resp, err := client.Post(aURL+"/v1/nodes", "application/json", strings.NewReader(`{"url":"http://x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(resp); got != "served-by:shard-a" {
		t.Errorf("nameless registration served by %q, want local shard", got)
	}
}

// TestRouterRoutesEveryManagerRoute sends every row of the manager's wire
// table through a router: a keyed route reaches its key's ring owner (an
// empty key stays on the shard it reached), a key-less route is served
// locally, and no route is unknown to the router's mux.
func TestRouterRoutesEveryManagerRoute(t *testing.T) {
	a, _, aURL, bURL := twoRouterFixture(t)
	v := a.Store().View()
	client := &http.Client{} // follows 307s, re-sending the body
	send := func(base string, route cluster.ManagerRoute, key, body string) string {
		t.Helper()
		req, err := http.NewRequest(route.Method, base+strings.Replace(route.Path, "{name}", key, 1), strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := readAll(resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d (%s)", route.Method, route.Path, resp.StatusCode, got)
		}
		return got
	}
	// bodyFor finds a request body whose ring key the route reads as key.
	bodyFor := func(route cluster.ManagerRoute, key string) string {
		t.Helper()
		for _, f := range []string{`{"name":%q,"url":"http://agent"}`, `{"vm":%q,"dest":"s1"}`} {
			body := fmt.Sprintf(f, key)
			if got, err := route.BodyKey([]byte(body)); err == nil && got == key {
				return body
			}
		}
		t.Fatalf("%s %s: no test body carries its ring key", route.Method, route.Path)
		return ""
	}
	var keyed, local []string
	for _, route := range cluster.ManagerRoutes() {
		pattern := route.Method + " " + route.Path
		if route.PathKey == "" && route.BodyKey == nil {
			local = append(local, pattern)
			for base, self := range map[string]string{aURL: "shard-a", bURL: "shard-b"} {
				if got := send(base, route, "n1", ""); got != "served-by:"+self {
					t.Errorf("%s on %s served by %q", pattern, self, got)
				}
			}
			continue
		}
		keyed = append(keyed, pattern)
		for _, shard := range []string{"shard-a", "shard-b"} {
			key := keyOwnedBy(t, v, shard)
			body := ""
			if route.BodyKey != nil {
				body = bodyFor(route, key)
			}
			if got := send(aURL, route, key, body); got != "served-by:"+shard {
				t.Errorf("%s for %s (owner %s) served by %q", pattern, key, shard, got)
			}
		}
		if route.BodyKey != nil {
			if got := send(bURL, route, "", bodyFor(route, "")); got != "served-by:shard-b" {
				t.Errorf("%s without a key served by %q, want the shard it reached", pattern, got)
			}
		}
	}
	sort.Strings(keyed)
	sort.Strings(local)
	if want := []string{"DELETE /v1/vms/{name}", "POST /v1/migrate", "POST /v1/nodes",
		"POST /v1/nodes/{name}/heartbeat", "POST /v1/vms"}; !slices.Equal(keyed, want) {
		t.Errorf("keyed routes %v, want %v", keyed, want)
	}
	if want := []string{"GET /v1/cluster", "GET /v1/nodes", "GET /v1/replica/wal",
		"GET /v1/state"}; !slices.Equal(local, want) {
		t.Errorf("key-less routes %v, want %v", local, want)
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/journal"
)

// TestServerAdoptRefusesNonMembers: adopting an ID the shard map does not
// list is a 404 that makes no directory under (or beside) the state root
// and leaves the map alone, and a gossiped map that adopts a non-member is
// a 400.
func TestServerAdoptRefusesNonMembers(t *testing.T) {
	root := filepath.Join(t.TempDir(), "state")
	fed, err := NewFederation(FederationConfig{
		Shards: []string{"shard-0", "shard-1"}, StateRoot: root, Policy: cluster.BestFit, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	s := fed.Shard("shard-0")
	client := &http.Client{Timeout: 10 * time.Second}
	ctx := context.Background()
	before, err := Client{cluster.ManagerClient{Base: s.URL, HTTP: client}}.ShardMap(ctx)
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{"s9", "../x"} {
		resp, err := client.Post(s.URL+"/v1/adopt?shard="+url.QueryEscape(id), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if body, _ := readAll(resp); resp.StatusCode != http.StatusNotFound {
			t.Errorf("adopting %q: %d %s, want 404", id, resp.StatusCode, body)
		}
		if _, err := os.Stat(filepath.Join(root, id)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("adopting %q made %s (%v)", id, filepath.Join(root, id), err)
		}
	}
	after, err := Client{cluster.ManagerClient{Base: s.URL, HTTP: client}}.ShardMap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version || len(after.Adopted) != 0 {
		t.Errorf("map after refused adoptions: %+v, want v%d with no adoptions", after, before.Version)
	}

	bad := after.Clone()
	bad.Version++
	bad.Adopted = map[string]string{"s9": "shard-0"}
	body, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(s.URL+"/v1/shardmap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if msg, _ := readAll(resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("gossiped map adopting s9: %d %s, want 400", resp.StatusCode, msg)
	}
}

// TestServerAdoptRoute drives POST /v1/adopt through a served handler: the
// refusals, then an adoption whose reply is the dead shard's recovery
// report and whose shard map has the adopter serving the dead shard.
func TestServerAdoptRoute(t *testing.T) {
	fed := newTestFederation(t, 2)
	adopter, dead := fed.Shard("shard-0"), fed.Shard("shard-1")
	client := &http.Client{Timeout: 10 * time.Second}

	// A registration the dead shard journals, for the adopter to replay.
	node := keyOwnedBy(t, fed.View(), dead.ID)
	resp, err := client.Post(adopter.URL+"/v1/nodes", "application/json",
		strings.NewReader(fmt.Sprintf(`{"name":%q,"url":"http://127.0.0.1:1"}`, node)))
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := readAll(resp); resp.StatusCode != http.StatusCreated {
		t.Fatalf("registering %s: %d %s", node, resp.StatusCode, body)
	}
	if err := fed.Kill(dead.ID); err != nil {
		t.Fatal(err)
	}

	adopt := func(query string) (int, []byte) {
		t.Helper()
		resp, err := client.Post(adopter.URL+"/v1/adopt"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		return resp.StatusCode, []byte(body)
	}
	for query, want := range map[string]int{
		"":               http.StatusBadRequest,
		"?shard=shard-0": http.StatusConflict, // its own shard
	} {
		if code, body := adopt(query); code != want {
			t.Errorf("POST /v1/adopt%s: %d %s, want %d", query, code, body, want)
		}
	}

	code, body := adopt("?shard=shard-1")
	if code != http.StatusOK {
		t.Fatalf("adopting shard-1: %d %s", code, body)
	}
	var rep cluster.RecoveryReport
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("reply %s is not a RecoveryReport: %v", body, err)
	}
	if rep.RecordsReplayed == 0 || rep.Lost != 0 || rep.Replaced != 0 {
		t.Errorf("adoption report %+v: want the registration replayed, nothing lost or replaced", rep)
	}
	if code, body := adopt("?shard=shard-1"); code != http.StatusConflict {
		t.Errorf("adopting shard-1 twice: %d %s, want 409", code, body)
	}

	m, err := Client{cluster.ManagerClient{Base: adopter.URL, HTTP: client}}.ShardMap(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Adopted[dead.ID] != adopter.ID || NewView(m).Owner(node) != adopter.ID {
		t.Errorf("shard map after adoption: %+v, want %s served by %s", m, dead.ID, adopter.ID)
	}
	var nodes cluster.NodeListResponse
	resp, err = client.Get(adopter.URL + "/v1/nodes?shard=" + dead.ID)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&nodes)
	resp.Body.Close()
	if err != nil || nodes.Nodes[node] == "" {
		t.Errorf("adopted shard's fleet %+v (%v), want %s", nodes, err, node)
	}
}

// TestRouterWithoutServerAdoptsNothing: a bare router has no server to
// adopt into.
func TestRouterWithoutServerAdoptsNothing(t *testing.T) {
	rt := NewRouter("shard-a", NewMapStore(Map{Version: 1, Members: []Member{{ID: "shard-a"}}}))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/adopt?shard=shard-b", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("adopt on a bare router: %d %s, want 404", rec.Code, rec.Body)
	}
}

// newTestServer boots a lone server shard-a whose map also lists shard-b
// at an address nothing serves, as if shard-b had died.
func newTestServer(t *testing.T, maxMisses int) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, rep, err := NewServer(ServerConfig{
		ID: "shard-a",
		Map: Map{Version: 1, Members: []Member{
			{ID: "shard-a", URL: "http://" + ln.Addr().String()},
			{ID: "shard-b", URL: "http://127.0.0.1:1"},
		}},
		StateRoot: t.TempDir(), Policy: cluster.BestFit, Seed: 7, MaxMisses: maxMisses,
	})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	if rep == nil || rep.Placements != 0 {
		t.Fatalf("first boot recovered %+v", rep)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s
}

// TestServerProbeHealthCoversAdoptedShards: one failure-detector round
// probes the server's own shard and every shard it adopted.
func TestServerProbeHealthCoversAdoptedShards(t *testing.T) {
	s := newTestServer(t, 1)
	if _, err := s.Adopt(context.Background(), "shard-b"); err != nil {
		t.Fatal(err)
	}
	ring := NewView(Map{Version: 1, Members: s.Router.Store().View().Map.Members}) // before the adoption
	want := []string{keyOwnedBy(t, ring, "shard-a"), keyOwnedBy(t, ring, "shard-b")}
	client := &http.Client{Timeout: 10 * time.Second}
	for _, name := range want {
		resp, err := client.Post(s.URL+"/v1/nodes", "application/json",
			strings.NewReader(fmt.Sprintf(`{"name":%q,"url":"http://127.0.0.1:1"}`, name)))
		if err != nil {
			t.Fatal(err)
		}
		if body, _ := readAll(resp); resp.StatusCode != http.StatusCreated {
			t.Fatalf("registering %s: %d %s", name, resp.StatusCode, body)
		}
	}
	var down []string
	for _, ev := range s.ProbeHealth() {
		if ev.Kind == cluster.NodeDown {
			down = append(down, ev.Node)
		}
	}
	slices.Sort(down)
	slices.Sort(want)
	if !slices.Equal(down, want) {
		t.Errorf("nodes declared down %v, want %v (one per served shard)", down, want)
	}
}

// servedJournals lists the journals a server operates.
func servedJournals(s *Server) []*journal.Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*journal.Journal
	for _, sh := range s.served {
		out = append(out, sh.mgr.Journal())
	}
	return out
}

// TestCloseClosesEveryServedJournal: a graceful stop (Federation.Close,
// Server.Close) syncs and closes every served shard's journal, adopted ones
// included; a crash-stop (Kill) leaves the killed shard's journal open, as
// SIGKILL would.
func TestCloseClosesEveryServedJournal(t *testing.T) {
	fed := newTestFederation(t, 3)
	if err := fed.Kill("shard-2"); err != nil {
		t.Fatal(err)
	}
	adopter, _, err := fed.Adopt(context.Background(), "shard-2", "")
	if err != nil {
		t.Fatal(err)
	}
	killed := servedJournals(fed.Shard("shard-2"))
	var live []*journal.Journal
	for _, id := range fed.Live() {
		live = append(live, servedJournals(fed.Shard(id))...)
	}
	if len(live) != 3 || len(servedJournals(fed.Shard(adopter))) != 2 {
		t.Fatalf("live servers operate %d journals, adopter %s %d; want 3 and 2",
			len(live), adopter, len(servedJournals(fed.Shard(adopter))))
	}

	fed.Close()
	for i, j := range live {
		if _, err := j.Append("probe", nil); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Errorf("live journal %d after Close: append err = %v, want closed", i, err)
		}
	}
	if _, err := killed[0].Append("probe", nil); err != nil {
		t.Errorf("killed shard's journal after Close: %v, want still open", err)
	}

	s := newTestServer(t, 0)
	if _, err := s.Adopt(context.Background(), "shard-b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, j := range servedJournals(s) {
		if _, err := j.Append("probe", nil); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Errorf("server journal %d after Close: append err = %v, want closed", i, err)
		}
	}
	if _, err := s.Adopt(context.Background(), "shard-c"); err == nil {
		t.Error("a closed server adopted a shard")
	}
}

// TestServerShutdownDrainsThenCloses: Shutdown stops serving and closes
// the journals as Close does.
func TestServerShutdownDrainsThenCloses(t *testing.T) {
	s := newTestServer(t, 0)
	resp, err := http.Get(s.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	readAll(resp)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(s.URL + "/v1/state"); err == nil {
		t.Error("still serving after Shutdown")
	}
	if _, err := servedJournals(s)[0].Append("probe", nil); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("journal after Shutdown: append err = %v, want closed", err)
	}
}

// TestFederationRefusals: the in-process federation refuses to boot
// without shards or a state root, and refuses adoptions and kills it
// cannot carry out.
func TestFederationRefusals(t *testing.T) {
	if _, err := NewFederation(FederationConfig{StateRoot: t.TempDir()}); err == nil {
		t.Error("booted a federation of no shards")
	}
	if _, err := NewFederation(FederationConfig{Shards: []string{"shard-0"}}); err == nil {
		t.Error("booted a federation without a state root")
	}

	fed := newTestFederation(t, 2)
	ctx := context.Background()
	if err := fed.Kill("shard-9"); err == nil {
		t.Error("killed an unknown shard")
	}
	if _, _, err := fed.Adopt(ctx, "shard-9", ""); err == nil {
		t.Error("adopted an unknown shard")
	}
	if _, _, err := fed.Adopt(ctx, "shard-1", ""); err == nil {
		t.Error("adopted a live shard")
	}
	if err := fed.Kill("shard-1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fed.Adopt(ctx, "shard-1", "shard-1"); err == nil {
		t.Error("a dead shard adopted itself")
	}
	if err := fed.Kill("shard-0"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fed.Adopt(ctx, "shard-1", ""); err == nil {
		t.Error("adopted with no live shard left")
	}
	if live := fed.Live(); len(live) != 0 || len(fed.View().Map.Members) != 0 {
		t.Errorf("after killing every shard: live %v, view %+v", live, fed.View().Map)
	}
}

// TestRouterGossipLoop: the periodic loop pulls a peer's newer map, and a
// malformed or memberless map posted to the router is refused.
func TestRouterGossipLoop(t *testing.T) {
	a, b, aURL, _ := twoRouterFixture(t)
	b.Store().Adopt("shard-a", "shard-b")
	want := b.Store().View().Map.Version

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		a.Gossip(ctx, nil, time.Millisecond, func(err error) { t.Error(err) })
		close(done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for a.Store().View().Map.Version != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if got := a.Store().View().Map.Version; got != want {
		t.Fatalf("gossip loop left a at v%d, want v%d", got, want)
	}

	for _, body := range []string{`{`, `{"version":9}`, `{"version":9,"members":[{"id":"x"}],"adopted":{"x":"nobody"}}`} {
		resp, err := http.Post(aURL+"/v1/shardmap", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		readAll(resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /v1/shardmap %s: %d, want 400", body, resp.StatusCode)
		}
	}
	if got := a.Store().View().Map.Version; got != want {
		t.Errorf("a refused map moved a to v%d", got)
	}
}

// TestServerConcurrentAdoptions: adoptions of one shard racing each other
// and the failure detector adopt it once; the rest are refused as served.
func TestServerConcurrentAdoptions(t *testing.T) {
	s := newTestServer(t, 0)
	stop := make(chan struct{})
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		for {
			select {
			case <-stop:
				return
			default:
				s.ProbeHealth()
			}
		}
	}()
	errs := make(chan error, 4)
	for range cap(errs) {
		go func() {
			_, err := s.Adopt(context.Background(), "shard-b")
			errs <- err
		}()
	}
	adopted := 0
	for range cap(errs) {
		switch err := <-errs; {
		case err == nil:
			adopted++
		case !errors.Is(err, errServed):
			t.Errorf("racing adoption: %v, want success or %v", err, errServed)
		}
	}
	close(stop)
	<-probed
	if adopted != 1 || len(servedJournals(s)) != 2 {
		t.Errorf("%d racing adoptions succeeded, server operates %d journals; want 1 and 2",
			adopted, len(servedJournals(s)))
	}
}

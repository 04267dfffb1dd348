package agent

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"deflation/internal/apps/apptest"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
)

func newAgent(t *testing.T, app *apptest.App) (*httptest.Server, *RemoteApp) {
	t.Helper()
	s, err := NewServer(app)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	remote, err := NewRemoteApp(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return srv, remote
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("nil app accepted")
	}
	if _, err := NewRemoteApp(""); err == nil {
		t.Error("empty URL accepted")
	}
}

func TestStatusRoundTrip(t *testing.T) {
	app := apptest.NewElastic("memcached", 4000, 500)
	app.CacheMB = 100
	_, remote := newAgent(t, app)

	if got := remote.Name(); got != "memcached" {
		t.Errorf("remote name = %q", got)
	}
	rss, cache := remote.Footprint()
	if rss != 4000 || cache != 100 {
		t.Errorf("remote footprint = %g/%g", rss, cache)
	}
}

func TestDeflateOverHTTP(t *testing.T) {
	app := apptest.NewElastic("a", 4000, 1000)
	app.DeflateLatency = 250 * time.Millisecond
	_, remote := newAgent(t, app)

	rel, lat := remote.SelfDeflate(restypes.V(0, 2000, 0, 0))
	if rel.MemoryMB != 2000 {
		t.Errorf("relinquished %v", rel)
	}
	if lat != 250*time.Millisecond {
		t.Errorf("latency = %v", lat)
	}
	if app.RSSMB != 2000 {
		t.Errorf("server-side app RSS = %g", app.RSSMB)
	}
	if len(app.Calls) != 1 {
		t.Errorf("app saw %d calls", len(app.Calls))
	}
}

func TestReinflateOverHTTP(t *testing.T) {
	app := apptest.NewElastic("a", 4000, 1000)
	_, remote := newAgent(t, app)
	remote.Reinflate(hypervisor.Env{GuestMemMB: 16384})
	if app.Reinflations != 1 {
		t.Errorf("reinflations = %d", app.Reinflations)
	}
}

func TestRemoteAppFailureIsDecline(t *testing.T) {
	// An unreachable agent relinquishes nothing — safe under cascade.
	remote, err := NewRemoteApp("http://127.0.0.1:1") // nothing listens
	if err != nil {
		t.Fatal(err)
	}
	rel, lat := remote.SelfDeflate(restypes.V(0, 1000, 0, 0))
	if !rel.IsZero() || lat != 0 {
		t.Errorf("unreachable agent relinquished %v", rel)
	}
	rss, cache := remote.Footprint()
	if rss != 0 || cache != 0 {
		t.Errorf("unreachable footprint = %g/%g", rss, cache)
	}
	remote.Reinflate(hypervisor.Env{}) // must not panic
}

// TestFailedStatusKeepsCachedFootprint: once the agent has answered
// /status, a later 500 or an undecodable body must not read as an
// application with no resident memory — level 2's safe-unplug bound
// (vm.SyncFootprint) would then unplug memory the application holds.
func TestFailedStatusKeepsCachedFootprint(t *testing.T) {
	replies := []func(http.ResponseWriter){
		func(w http.ResponseWriter) { writeJSON(w, StatusResponse{Name: "a", RSSMB: 3000, CacheMB: 200}) },
		func(w http.ResponseWriter) { http.Error(w, "boom", http.StatusInternalServerError) },
		func(w http.ResponseWriter) { w.Write([]byte("not json")) },
	}
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		replies[min(int(calls.Add(1)), len(replies))-1](w)
	}))
	defer srv.Close()
	remote, err := NewRemoteApp(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i := range replies {
		if rss, cache := remote.Footprint(); rss != 3000 || cache != 200 {
			t.Errorf("reply %d: footprint = %g/%g, want the cached 3000/200", i, rss, cache)
		}
	}
	if n := calls.Load(); n != int32(len(replies)) {
		t.Fatalf("agent saw %d status calls, want %d", n, len(replies))
	}
}

func TestThroughputProxy(t *testing.T) {
	_, remote := newAgent(t, apptest.New("a"))
	if got := remote.Throughput(hypervisor.Env{}); got != 1 {
		t.Errorf("proxy throughput = %g", got)
	}
	if got := remote.Throughput(hypervisor.Env{OOMKilled: true}); got != 0 {
		t.Errorf("OOM proxy throughput = %g", got)
	}
}

func TestBadRequestBodies(t *testing.T) {
	app := apptest.New("a")
	s, err := NewServer(app)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, path := range []string{"/deflate", "/reinflate"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("POST %s with empty body: %s", path, resp.Status)
		}
	}
}

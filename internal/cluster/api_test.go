package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"deflation/internal/cascade"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

func newControllerServer(t *testing.T) (*httptest.Server, *LocalController) {
	t.Helper()
	ctrl := newServer(t, ModeDeflation)
	api, err := NewControllerAPI(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return srv, ctrl
}

func wireSpec(name string, prio vm.Priority) LaunchSpec {
	return LaunchSpec{
		Name:     name,
		Size:     restypes.V(4, 16384, 100, 100),
		MinSize:  restypes.V(1, 4096, 25, 25),
		Priority: prio,
		AppKind:  "elastic",
		Warm:     true,
	}
}

func TestControllerAPILifecycle(t *testing.T) {
	srv, ctrl := newControllerServer(t)
	node, err := NewRemoteNode(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if node.Name() != "s0" {
		t.Errorf("remote name = %q", node.Name())
	}
	if sum, known := node.Capacity(); !known || sum.Mode != ModeDeflation.String() {
		t.Errorf("remote capacity known=%v, mode %q", known, sum.Mode)
	}

	// Launch via HTTP, observe via local controller and vice versa.
	rep, err := node.Launch(wireSpec("a", vm.LowPriority))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Preempted) != 0 {
		t.Errorf("launch report: %+v", rep)
	}
	if ok, _ := ctrl.Has("a"); !ok {
		t.Error("VM not visible locally after remote launch")
	}
	if ok, err := node.Has("a"); !ok || err != nil {
		t.Errorf("VM not visible remotely after launch: %v, %v", ok, err)
	}
	if _, err := node.Launch(wireSpec("a", vm.LowPriority)); err == nil {
		t.Error("duplicate remote launch accepted")
	}

	// The capacity summary round-trips.
	got, known := node.Capacity()
	want, _ := ctrl.Capacity()
	got.Instance = ""
	if !known || got != want {
		t.Errorf("remote capacity = %+v (known %v), want %+v", got, known, want)
	}

	if err := node.Release("a"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := ctrl.Has("a"); ok {
		t.Error("VM still present after remote release")
	}
	if err := node.Release("a"); err == nil {
		t.Error("double remote release accepted")
	}
}

func TestControllerAPIRejectsNewAppOverWire(t *testing.T) {
	srv, _ := newControllerServer(t)
	node, err := NewRemoteNode(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	spec := wireSpec("x", vm.LowPriority)
	spec.NewApp = func(restypes.Vector) vm.Application { return nil }
	if _, err := node.Launch(spec); err == nil {
		t.Error("NewApp-bearing spec accepted for remote launch")
	}
}

func TestControllerAPIDeflateEndpoint(t *testing.T) {
	srv, ctrl := newControllerServer(t)
	node, err := NewRemoteNode(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Launch(wireSpec("a", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}

	body := `{"target":{"CPU":2,"MemoryMB":8192,"DiskMBps":0,"NetMBps":0}}`
	resp, err := http.Post(srv.URL+"/v1/vms/a/deflate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deflate status = %s", resp.Status)
	}
	var dr DeflateVMResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	v, _ := ctrl.VM("a")
	if v.Allocation().CPU != 2 || v.Allocation().MemoryMB != 8192 {
		t.Errorf("allocation after remote deflate = %v", v.Allocation())
	}
	if dr.NewAllocation != v.Allocation() {
		t.Errorf("response allocation %v != actual %v", dr.NewAllocation, v.Allocation())
	}

	// Deflating a missing VM 404s.
	resp2, err := http.Post(srv.URL+"/v1/vms/ghost/deflate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("ghost deflate status = %s", resp2.Status)
	}
}

// The cascade's refusals are deterministic, so the agent answers them with
// a 409 that RemoteNode does not retry, and the caller sees the reason.
func TestCascadeRefusalIsNotRetried(t *testing.T) {
	_, ctrl := newControllerServer(t)
	api, err := NewControllerAPI(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	base := api.Handler()
	var deflates atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/deflate") {
			deflates.Add(1)
		}
		base.ServeHTTP(w, r)
	}))
	defer srv.Close()
	node, err := NewRemoteNodeWithPolicy(srv.URL, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	recordSleeps(node)
	for _, spec := range []LaunchSpec{wireSpec("lo", vm.LowPriority), wireSpec("hi", vm.HighPriority)} {
		if _, err := node.Launch(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		vm     string
		target restypes.Vector
		want   error
	}{
		{"hi", restypes.V(1, 0, 0, 0), cascade.ErrHighPriority},
		{"lo", restypes.V(100, 0, 0, 0), cascade.ErrExceedsDeflatable},
	} {
		deflates.Store(0)
		_, err := node.Deflate(c.vm, c.target)
		if err == nil || !strings.Contains(err.Error(), c.want.Error()) {
			t.Errorf("deflate %s: err = %v, want the agent's %q", c.vm, err, c.want)
		}
		if isRetryable(err) || deflates.Load() != 1 || retries(node) != 0 {
			t.Errorf("deflate %s: retryable %v, %d attempts, %d retries; want one attempt",
				c.vm, isRetryable(err), deflates.Load(), retries(node))
		}
	}
	if got := statusOf(cascade.ErrPreempted); got != http.StatusConflict {
		t.Errorf("ErrPreempted is sent as %d, want 409", got)
	}
}

// A reply is encoded before its status goes out: an unencodable one is a
// 500 naming the encoding error, not a 200 with an empty body.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusCreated, map[string]float64{"x": 1})
	if w.Code != http.StatusCreated || w.Body.String() != "{\"x\":1}\n" ||
		w.Header().Get("Content-Type") != "application/json" {
		t.Errorf("encodable reply: %d %q %q", w.Code, w.Header().Get("Content-Type"), w.Body)
	}
	w = httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "unsupported value") {
		t.Errorf("unencodable reply: %d %q", w.Code, w.Body)
	}
}

func TestManagerOverRemoteNodes(t *testing.T) {
	// Full control-plane path: manager places VMs across two servers it
	// only reaches via HTTP.
	var nodes []Node
	for i := 0; i < 2; i++ {
		srv, _ := newControllerServer(t)
		n, err := NewRemoteNode(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	mgr, err := NewManager(nodes, BestFit, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, _, err := mgr.Launch(wireSpec(name, vm.LowPriority)); err != nil {
			t.Fatalf("launch %s: %v", name, err)
		}
	}
	if !mgr.Placed("a") || !mgr.Placed("d") {
		t.Error("VMs not placed via remote nodes")
	}
	if err := mgr.Release("b"); err != nil {
		t.Fatal(err)
	}
	if mgr.Placed("b") {
		t.Error("released VM still placed")
	}
}

func TestManagerAPI(t *testing.T) {
	mgr := newCluster(t, 2, BestFit)
	api, err := NewManagerAPI(mgr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	// Launch.
	body, _ := json.Marshal(wireSpec("a", vm.LowPriority))
	resp, err := http.Post(srv.URL+"/v1/vms", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var lr LaunchResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || lr.Server == "" {
		t.Fatalf("launch: %s, %+v", resp.Status, lr)
	}

	// Cluster state with servers.
	resp, err = http.Get(srv.URL + "/v1/cluster?servers=true")
	if err != nil {
		t.Fatal(err)
	}
	var cs ClusterState
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cs.VMs != 1 || len(cs.Servers) != 2 {
		t.Errorf("cluster state: %+v", cs)
	}

	// Release.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/vms/a", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("release status = %s", resp.Status)
	}

	// Releasing again 404s.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double-release status = %s", resp.Status)
	}
}

func TestManagerAPIMigrate(t *testing.T) {
	mgr := newCluster(t, 2, FirstFit)
	api, err := NewManagerAPI(mgr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	if _, _, err := mgr.Launch(spec("a", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	src := mgr.Placements()["a"]
	var dest string
	for _, s := range mgr.Servers() {
		if s.Name() != src {
			dest = s.Name()
		}
	}

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/migrate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	marshal := func(req MigrateRequest) string {
		b, _ := json.Marshal(req)
		return string(b)
	}

	// Error paths surface as non-2xx statuses the CLI reports verbatim.
	if resp := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %s", resp.Status)
	}
	if resp := post(marshal(MigrateRequest{VM: "a"})); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing dest status = %s", resp.Status)
	}
	if resp := post(marshal(MigrateRequest{VM: "ghost", Dest: dest})); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown VM status = %s", resp.Status)
	}
	if resp := post(marshal(MigrateRequest{VM: "a", Dest: "nowhere"})); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown node status = %s", resp.Status)
	}
	if resp := post(marshal(MigrateRequest{VM: "a", Dest: src})); resp.StatusCode != http.StatusConflict {
		t.Errorf("same-node status = %s", resp.Status)
	}

	// Success returns the full migration report.
	resp := post(marshal(MigrateRequest{VM: "a", Dest: dest}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status = %s", resp.Status)
	}
	var rep MigrationReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.From != src || rep.To != dest || !rep.Result.Converged || rep.Result.TransferredMB <= 0 {
		t.Errorf("report: %+v", rep)
	}
	if got := mgr.Placements()["a"]; got != dest {
		t.Errorf("placement %q, want %q", got, dest)
	}
}

func TestAppKindRegistry(t *testing.T) {
	if _, err := AppKind("no-such-kind"); err == nil {
		t.Error("unknown kind resolved")
	}
	kinds := AppKinds()
	for _, want := range []string{"elastic", "inelastic", "memcached", "memcached-aware", "specjbb", "kcompile", "spark-kmeans"} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin kind %q missing from %v", want, kinds)
		}
	}
	for _, kind := range kinds {
		f, err := AppKind(kind)
		if err != nil {
			t.Fatal(err)
		}
		app := f(restypes.V(4, 16384, 100, 100))
		if app == nil || app.Name() == "" {
			t.Errorf("kind %q built a bad app", kind)
		}
	}
}

func TestRegisterAppKindValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty registration did not panic")
		}
	}()
	RegisterAppKind("", nil)
}

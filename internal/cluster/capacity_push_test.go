package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/telemetry"
	"deflation/internal/vm"
)

// countedAgent is one agent of the capacity-push tests: a ControllerAPI
// behind an httptest server whose middleware counts what reaches it, can
// black-hole it, and can swap in a restarted (fresh, empty) agent under the
// same URL.
type countedAgent struct {
	name string
	srv  *httptest.Server

	mu  sync.Mutex
	api *ControllerAPI // the current incarnation

	total, state, probes atomic.Int64
	hole                 atomic.Bool
}

func newAgentAPI(t *testing.T, name string) *ControllerAPI {
	t.Helper()
	h, err := hypervisor.NewHost(hypervisor.Config{Name: name, Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		t.Fatal(err)
	}
	api, err := NewControllerAPI(NewLocalController(h, cascade.AllLevels(), ModeDeflation))
	if err != nil {
		t.Fatal(err)
	}
	return api
}

func newCountedAgent(t *testing.T, name string) *countedAgent {
	t.Helper()
	a := &countedAgent{name: name, api: newAgentAPI(t, name)}
	a.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.total.Add(1)
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/v1/state":
			a.state.Add(1)
		case r.Method == http.MethodGet && r.URL.Path == "/v1/healthz":
			a.probes.Add(1)
		}
		if a.hole.Load() {
			<-r.Context().Done() // swallow the request until the client gives up
			return
		}
		a.current().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(a.srv.Close)
	return a
}

func (a *countedAgent) current() *ControllerAPI {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.api
}

// restart replaces the agent with a fresh, empty one under the same URL: a
// new instance id, generations starting over.
func (a *countedAgent) restart(t *testing.T) {
	fresh := newAgentAPI(t, a.name)
	a.mu.Lock()
	a.api = fresh
	a.mu.Unlock()
}

// inspect runs f on the agent's controller under its API mutex.
func (a *countedAgent) inspect(f func(c *LocalController)) {
	api := a.current()
	api.mu.Lock()
	defer api.mu.Unlock()
	f(api.ctrl)
}

// do sends one request straight at the agent, bypassing any manager.
func (a *countedAgent) do(t *testing.T, method, path string, body any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, a.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	return resp.StatusCode
}

func newCountedFleet(t *testing.T, n int) []*countedAgent {
	t.Helper()
	fleet := make([]*countedAgent, n)
	for i := range fleet {
		fleet[i] = newCountedAgent(t, fmt.Sprintf("agent-%d", i))
	}
	return fleet
}

// coldNodes dials the fleet without contacting it.
func coldNodes(fleet []*countedAgent, policy RetryPolicy) []Node {
	nodes := make([]Node, len(fleet))
	for i, a := range fleet {
		nodes[i] = NewRemoteNodeNamed(a.name, a.srv.URL, policy)
	}
	return nodes
}

func fleetTotals(fleet []*countedAgent) (total, state, probes int64) {
	for _, a := range fleet {
		total += a.total.Load()
		state += a.state.Load()
		probes += a.probes.Load()
	}
	return
}

// TestLaunchCostsOneAgentRPC is the RPC budget as a hard count: on a warm
// manager a launch is exactly one agent RPC and never a GET /v1/state, a
// release is exactly one, reading the cluster is none; a cold manager pays
// at most one inventory-free probe per node, once.
func TestLaunchCostsOneAgentRPC(t *testing.T) {
	fleet := newCountedFleet(t, 4)
	mgr, err := NewManager(nil, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink()
	mgr.SetTelemetry(sink)
	api, err := NewManagerAPI(mgr)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(api.Handler())
	defer front.Close()
	call := func(method, path string, body any, out any) int {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, _ := json.Marshal(body)
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, front.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer drainClose(resp.Body)
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	// Registration reads each agent's inventory (one GET /v1/state), whose
	// reply warms the capacity cache.
	for _, a := range fleet {
		if code := call(http.MethodPost, "/v1/nodes", RegisterNodeRequest{Name: a.name, URL: a.srv.URL}, nil); code != http.StatusCreated {
			t.Fatalf("registering %s: %d", a.name, code)
		}
	}

	for i := 0; i < 12; i++ {
		total0, state0, _ := fleetTotals(fleet)
		name := fmt.Sprintf("vm-%d", i)
		if code := call(http.MethodPost, "/v1/vms", wireSpec(name, vm.LowPriority), nil); code != http.StatusCreated {
			t.Fatalf("launch %s: %d", name, code)
		}
		total1, state1, _ := fleetTotals(fleet)
		if total1-total0 != 1 || state1 != state0 {
			t.Fatalf("launch %s cost %d agent RPCs, %d of them GET /v1/state; want 1 and 0", name, total1-total0, state1-state0)
		}
	}
	for i := 0; i < 12; i += 3 {
		total0, _, _ := fleetTotals(fleet)
		if code := call(http.MethodDelete, fmt.Sprintf("/v1/vms/vm-%d", i), nil, nil); code != http.StatusNoContent {
			t.Fatalf("release vm-%d: %d", i, code)
		}
		if total1, _, _ := fleetTotals(fleet); total1-total0 != 1 {
			t.Fatalf("release vm-%d cost %d agent RPCs, want 1", i, total1-total0)
		}
	}
	total0, _, _ := fleetTotals(fleet)
	var cs ClusterState
	if code := call(http.MethodGet, "/v1/cluster", nil, &cs); code != http.StatusOK || cs.VMs != 8 {
		t.Fatalf("cluster read: %d, %+v", code, cs)
	}
	if cs.MeanOC <= 0 {
		t.Errorf("cluster read served no overcommitment from the cache: %+v", cs)
	}
	var nl NodeListResponse
	if code := call(http.MethodGet, "/v1/nodes", nil, &nl); code != http.StatusOK {
		t.Fatalf("node list: %d", code)
	}
	if total1, _, _ := fleetTotals(fleet); total1 != total0 {
		t.Errorf("reading /v1/cluster and /v1/nodes cost %d agent RPCs, want 0", total1-total0)
	}
	// Observability: every node's summary generation and age are listed, and
	// the refreshes were counted under the reply that carried them.
	for _, a := range fleet {
		st, ok := nl.Capacity[a.name]
		if !ok || !st.Known || st.AgeSeconds < 0 {
			t.Errorf("node list capacity[%s] = %+v, %v", a.name, st, ok)
		}
		var gen uint64
		a.inspect(func(c *LocalController) { gen = c.generation })
		if st.Generation != gen {
			t.Errorf("node list generation of %s = %d, the agent is at %d", a.name, st.Generation, gen)
		}
	}
	var refreshed float64
	for _, a := range fleet {
		refreshed += counterValue(sink, "deflation_remote_capacity_refresh_total",
			telemetry.Labels{"node": a.name, "source": capacityFromReply})
	}
	if refreshed < 16 { // 12 launches + 4 releases each changed one agent
		t.Errorf("reply refreshes counted = %v, want at least 16", refreshed)
	}

	// A cold manager over the same (now loaded) fleet: the first launch pays
	// one healthz probe per node and no state fetch; the second pays nothing.
	cold, err := NewManager(coldNodes(fleet, RetryPolicy{}), BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	total0, state0, probes0 := fleetTotals(fleet)
	if _, _, err := cold.Launch(wireSpec("cold-0", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}
	total1, state1, probes1 := fleetTotals(fleet)
	if probes1-probes0 != int64(len(fleet)) || total1-total0 != int64(len(fleet))+1 || state1 != state0 {
		t.Errorf("cold launch: %d RPCs, %d probes, %d state fetches; want %d, %d, 0",
			total1-total0, probes1-probes0, state1-state0, len(fleet)+1, len(fleet))
	}
	if _, _, err := cold.Launch(wireSpec("cold-1", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}
	if total2, _, _ := fleetTotals(fleet); total2-total1 != 1 {
		t.Errorf("second launch on the once-cold manager cost %d RPCs, want 1", total2-total1)
	}
}

// TestUnknownCapacityIsNotEmpty: a black-holed agent is never chosen, never
// hides a feasible healthy peer, costs a launch at most one probe timeout,
// and is reported as unknown rather than as an empty or a deflation-mode
// server.
func TestUnknownCapacityIsNotEmpty(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, OpTimeout: 300 * time.Millisecond}
	fleet := newCountedFleet(t, 3)
	hole := fleet[1]
	hole.hole.Store(true)
	defer hole.hole.Store(false) // let the server close

	nodes := coldNodes(fleet, policy)
	sink := telemetry.NewSink()
	mgr, err := NewManager(nodes, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetTelemetry(sink)
	holeNode := nodes[1].(*RemoteNode)

	for i := 0; i < 3; i++ {
		before := hole.total.Load()
		start := time.Now()
		idx, _, err := mgr.Launch(wireSpec(fmt.Sprintf("vm-%d", i), vm.LowPriority))
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("launch %d: the black-holed agent hid its healthy peers: %v", i, err)
		}
		if idx == 1 {
			t.Fatalf("launch %d landed on the black-holed agent", i)
		}
		if got := hole.total.Load() - before; got != 1 {
			t.Errorf("launch %d sent the black-holed agent %d requests, want exactly one probe", i, got)
		}
		if elapsed >= 2*policy.OpTimeout {
			t.Errorf("launch %d took %v: more than one probe timeout (%v)", i, elapsed, policy.OpTimeout)
		}
	}
	if lastTransportErr(holeNode) == nil {
		t.Error("the unanswered probe was not recorded as the node's last transport error")
	}
	if _, known, _ := holeNode.capacity(); known {
		t.Error("a node that never answered reports known capacity")
	}
	if got := counterValue(sink, "deflation_remote_capacity_unknown_total", telemetry.Labels{"node": hole.name}); got != 3 {
		t.Errorf("unknown-capacity skips counted = %v, want 3", got)
	}

	// Warm, then black-holed: the failure detector's first missed ping (one
	// miss, far from dead) already takes the node out of placement.
	hole.hole.Store(false)
	if evs := mgr.ProbeHealth(); len(evs) != 0 {
		t.Fatalf("health round on a healed fleet: %+v", evs)
	}
	if _, known, _ := holeNode.capacity(); !known {
		t.Fatal("an answered ping did not refresh the capacity cache")
	}
	hole.hole.Store(true)
	mgr.ProbeHealth()
	if mgr.DeadServers() != 0 {
		t.Fatal("one missed ping declared the node dead")
	}
	before := hole.total.Load()
	idx, _, err := mgr.Launch(wireSpec("vm-after", vm.LowPriority))
	if err != nil || idx == 1 {
		t.Fatalf("launch after the agent went dark: server %d, %v", idx, err)
	}
	if got := hole.total.Load() - before; got != 1 {
		t.Errorf("launch sent the dark agent %d requests, want exactly one probe", got)
	}
}

// TestFoldCapacityOrdering pins the cache's coherence rules: older
// generations of one instance are dropped, a new instance always replaces,
// and a summary whose mode this manager does not know is not guessed at.
func TestFoldCapacityOrdering(t *testing.T) {
	n := NewRemoteNodeNamed("n", "http://unused.invalid", RetryPolicy{})
	sum := func(inst string, gen uint64, mode string, cpu float64) CapacitySummary {
		return CapacitySummary{Instance: inst, Generation: gen, Mode: mode, Free: restypes.V(cpu, 0, 0, 0)}
	}
	if got, known := n.Capacity(); known || got != (CapacitySummary{}) {
		t.Fatal("a cold node must read as unknown and zero")
	}
	n.foldCapacity(sum("a", 5, "preemption-only", 8), capacityFromReply)
	if got, known := n.Capacity(); !known || got != sum("a", 5, "preemption-only", 8) {
		t.Fatalf("first summary not applied: %+v (known %v)", got, known)
	}
	n.foldCapacity(sum("a", 4, "preemption-only", 9), capacityFromHeartbeat)
	if got, _ := n.Capacity(); got.Free.CPU != 8 {
		t.Error("an older generation of the same instance replaced a newer one")
	}
	n.foldCapacity(sum("b", 1, "deflation", 3), capacityFromReply)
	if got, _ := n.Capacity(); got != sum("b", 1, "deflation", 3) {
		t.Error("a restarted agent's first summary (new instance, low generation) was not accepted")
	}
	n.foldCapacity(sum("b", 2, "quantum", 7), capacityFromReply)
	n.foldCapacity(sum("", 3, "deflation", 7), capacityFromReply)
	if got, _ := n.Capacity(); got != sum("b", 1, "deflation", 3) {
		t.Error("a summary with an unknown mode or no instance was accepted")
	}
}

// TestHeartbeatBodyCompatibility: an empty-bodied heartbeat stays a
// liveness-only 204 that leaves the cache alone, a summary body is folded
// in, and a malformed body is a 400 that changes nothing.
func TestHeartbeatBodyCompatibility(t *testing.T) {
	agent := newCountedAgent(t, "hb-node")
	mgr, err := NewManager(nil, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink()
	node := NewRemoteNodeNamed(agent.name, agent.srv.URL, RetryPolicy{})
	node.SetTelemetry(sink)
	if err := mgr.AddNode(node, agent.srv.URL); err != nil {
		t.Fatal(err)
	}
	api, err := NewManagerAPI(mgr)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(api.Handler())
	defer front.Close()

	// A writer the manager never sees, then the agent's own summary of it.
	if code := agent.do(t, http.MethodPost, "/v1/vms", wireSpec("foreign", vm.LowPriority)); code != http.StatusCreated {
		t.Fatalf("foreign launch: %d", code)
	}
	fresh, err := json.Marshal(agent.current().CapacitySummary())
	if err != nil {
		t.Fatal(err)
	}

	stamp := func() (time.Time, bool) {
		api.nodes.hbMu.Lock()
		defer api.nodes.hbMu.Unlock()
		at, ok := api.nodes.heartbeats[agent.name]
		return at, ok
	}
	cases := []struct {
		name        string
		body        string
		wantCode    int
		wantStamped bool // the liveness stamp advances
		wantFolded  bool // the cache takes the body's generation
	}{
		{"empty body is liveness only", "", http.StatusNoContent, true, false},
		{"malformed body changes nothing", `{"instance": 7`, http.StatusBadRequest, false, false},
		{"summary body is folded in", string(fresh), http.StatusNoContent, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum0, _, at0 := node.capacity()
			stamp0, _ := stamp()
			rpcs0 := agent.total.Load()

			resp, err := http.Post(front.URL+"/v1/nodes/"+agent.name+"/heartbeat", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			drainClose(resp.Body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantCode)
			}
			stamp1, ok := stamp()
			if tc.wantStamped != stamp1.After(stamp0) {
				t.Errorf("liveness stamp advanced = %v, want %v", stamp1.After(stamp0), tc.wantStamped)
			}
			if !tc.wantStamped && !stamp0.IsZero() && (!ok || !stamp1.Equal(stamp0)) {
				t.Error("a refused heartbeat cleared or moved the liveness stamp")
			}
			sum1, known, at1 := node.capacity()
			if tc.wantFolded {
				var want CapacitySummary
				if err := json.Unmarshal(fresh, &want); err != nil {
					t.Fatal(err)
				}
				if sum1.Generation != want.Generation || !known || sum1.Free != want.Free {
					t.Errorf("cache after heartbeat: generation %d free %v, want %d %v", sum1.Generation, sum1.Free, want.Generation, want.Free)
				}
			} else if sum1 != sum0 || !at1.Equal(at0) {
				t.Errorf("cache touched: %+v→%+v, confirmed %v→%v", sum0, sum1, at0, at1)
			}
			if got := agent.total.Load() - rpcs0; got != 0 {
				t.Errorf("the heartbeat cost %d agent RPCs", got)
			}
		})
	}
	if got := counterValue(sink, "deflation_remote_capacity_refresh_total",
		telemetry.Labels{"node": agent.name, "source": capacityFromHeartbeat}); got != 1 {
		t.Errorf("heartbeat refreshes counted = %v, want 1", got)
	}
	// Not managed here stays a 404, body or not.
	resp, err := http.Post(front.URL+"/v1/nodes/ghost/heartbeat", "application/json", bytes.NewReader(fresh))
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("heartbeat for an unmanaged node: %d", resp.StatusCode)
	}
}

// TestHeartbeatFoldsRaceLaunches: agents push capacity heartbeats into a
// ManagerAPI while a client launches and releases through it, so the
// placement index's leaves are marked dirty from the heartbeat handlers'
// goroutines while the manager flushes and queries it (run it under -race).
// First, with nothing concurrent, the fleet registered through POST /v1/nodes
// places through the index and every query matches the reference scan.
// Every acked VM must end on exactly one agent, inside its capacity.
func TestHeartbeatFoldsRaceLaunches(t *testing.T) {
	fleet := newCountedFleet(t, 4)
	check := &queryChecker{t: t}
	mgr := newManager(nil, BestFit, 7, check.check)
	api, err := NewManagerAPI(mgr)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(api.Handler())
	defer front.Close()
	post := func(path string, body any) int {
		b, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := http.Post(front.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Error(err)
			return 0
		}
		drainClose(resp.Body)
		return resp.StatusCode
	}
	for _, a := range fleet {
		if code := post("/v1/nodes", RegisterNodeRequest{Name: a.name, URL: a.srv.URL}); code != http.StatusCreated {
			t.Fatalf("registering %s: %d", a.name, code)
		}
	}
	acked := map[string]bool{}
	launch := func(name string) {
		switch code := post("/v1/vms", wireSpec(name, vm.LowPriority)); code {
		case http.StatusCreated:
			acked[name] = true
		case http.StatusInsufficientStorage:
		default:
			t.Fatalf("launch %s: %d", name, code)
		}
	}
	for i := 0; i < 8; i++ {
		launch(fmt.Sprintf("warm-%d", i))
	}
	api.mu.Lock()
	checked := check.n
	mgr.queried = nil // from here the folds race the reference scan
	api.mu.Unlock()
	if checked < 8 {
		t.Fatalf("%d queries checked for 8 launches through the registered fleet", checked)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, a := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code := post("/v1/nodes/"+a.name+"/heartbeat", a.current().CapacitySummary()); code != http.StatusNoContent {
					t.Errorf("heartbeat from %s: %d", a.name, code)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		if i%4 == 0 {
			// A writer the manager never sees: the next heartbeat from that
			// agent moves the cache and marks the leaf from its goroutine.
			fleet[i/4%len(fleet)].do(t, http.MethodPost, "/v1/vms", wireSpec(fmt.Sprintf("f-%d", i), vm.LowPriority))
		}
		if names := slices.Sorted(maps.Keys(acked)); len(names) > 0 && rng.Intn(3) == 0 {
			name := names[rng.Intn(len(names))]
			req, _ := http.NewRequest(http.MethodDelete, front.URL+"/v1/vms/"+name, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			drainClose(resp.Body)
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("release %s: %d", name, resp.StatusCode)
			}
			delete(acked, name)
			continue
		}
		launch(fmt.Sprintf("vm-%d", i))
	}
	close(stop)
	wg.Wait()

	api.mu.Lock()
	queries := mgr.pidx.clock
	api.mu.Unlock()
	if queries <= uint64(checked) {
		t.Fatalf("the index served %d queries, %d of them before the heartbeats", queries, checked)
	}
	seen := map[string]int{}
	for _, a := range fleet {
		a.inspect(func(c *LocalController) {
			if alloc := c.host.Allocated(); !alloc.Fits(c.host.Capacity()) {
				t.Errorf("%s allocates %v of %v", a.name, alloc, c.host.Capacity())
			}
			for _, v := range c.VMs() {
				seen[v.Name()]++
			}
		})
	}
	for name := range acked {
		if seen[name] != 1 {
			t.Errorf("acked VM %s runs on %d agents", name, seen[name])
		}
	}
}

// TestStaleCacheNeverOvercommits drives a seeded script in which a second
// writer launches and releases directly on the agents, and restarts them,
// between the manager's launches. The manager's cache is stale in both
// directions throughout; the agents' own admission must keep every
// invariant, and the manager must turn each refusal into a re-pick.
func TestStaleCacheNeverOvercommits(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { staleCacheScript(t, seed) })
	}
}

func staleCacheScript(t *testing.T, seed int64) {
	const agents = 4
	fleet := newCountedFleet(t, agents)
	mgr, err := NewManager(coldNodes(fleet, RetryPolicy{}), BestFit, seed)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink()
	mgr.SetTelemetry(sink)
	staleRefusals := func() int {
		return int(counterValue(sink, "deflation_launch_stale_refusals_total", nil))
	}
	rng := rand.New(rand.NewSource(seed))

	// The second writer's VMs cannot be deflated, so they take availability
	// away for good; they are low priority, so they never preempt the
	// manager's VMs behind its back.
	foreignSpec := func(name string) LaunchSpec {
		s := wireSpec(name, vm.LowPriority)
		s.MinSize = s.Size
		return s
	}
	managed := map[string]bool{} // acked by the manager, not released, agent not restarted since
	foreign := map[string]int{}  // second writer's VMs → agent index
	pick := func(set map[string]bool) string {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		return names[rng.Intn(len(names))]
	}

	check := func(step int, what string) {
		t.Helper()
		seen := map[string]int{}
		for _, a := range fleet {
			a.inspect(func(c *LocalController) {
				if alloc := c.host.Allocated(); !alloc.Fits(c.host.Capacity()) {
					t.Fatalf("step %d (%s): %s allocates %v of %v", step, what, a.name, alloc, c.host.Capacity())
				}
				for _, v := range c.VMs() {
					seen[v.Name()]++
					if !v.MinSize().Fits(v.Allocation()) {
						t.Fatalf("step %d (%s): %s deflated below its floor: %v < %v", step, what, v.Name(), v.Allocation(), v.MinSize())
					}
				}
			})
		}
		for name := range managed {
			if seen[name] != 1 {
				t.Fatalf("step %d (%s): acked VM %s runs on %d agents", step, what, name, seen[name])
			}
		}
		for name := range foreign {
			if seen[name] != 1 {
				t.Fatalf("step %d (%s): second writer's VM %s runs on %d agents", step, what, name, seen[name])
			}
		}
	}

	landed, rejected := 0, 0
	for step := 0; step < 300; step++ {
		var what string
		switch r := rng.Intn(100); {
		case r < 40:
			what = "manager launch"
			name := fmt.Sprintf("m-%d", step)
			refused0 := staleRefusals()
			idx, _, err := mgr.Launch(wireSpec(name, vm.LowPriority))
			refused := staleRefusals() - refused0
			switch {
			case err == nil:
				landed++
				managed[name] = true
				if idx < 0 || idx >= agents {
					t.Fatalf("step %d: launch landed on server %d", step, idx)
				}
			case errors.Is(err, ErrNoCapacity):
				rejected++
			default:
				t.Fatalf("step %d: manager launch failed with %v, want a placement or ErrNoCapacity", step, err)
			}
			if refused > agents {
				t.Fatalf("step %d: %d refusals in one launch over %d agents", step, refused, agents)
			}
		case r < 55:
			if len(managed) == 0 {
				continue
			}
			what = "manager release"
			name := pick(managed)
			delete(managed, name)
			if err := mgr.Release(name); err != nil {
				t.Fatalf("step %d: releasing %s: %v", step, name, err)
			}
		case r < 80:
			what = "foreign launch"
			name := fmt.Sprintf("f-%d", step)
			i := rng.Intn(agents)
			switch code := fleet[i].do(t, http.MethodPost, "/v1/vms", foreignSpec(name)); code {
			case http.StatusCreated:
				foreign[name] = i
			case http.StatusInsufficientStorage:
			default:
				t.Fatalf("step %d: foreign launch on %s: %d", step, fleet[i].name, code)
			}
		case r < 95:
			if len(foreign) == 0 {
				continue
			}
			what = "foreign release"
			names := map[string]bool{}
			for n := range foreign {
				names[n] = true
			}
			name := pick(names)
			if code := fleet[foreign[name]].do(t, http.MethodDelete, "/v1/vms/"+name, nil); code != http.StatusNoContent {
				t.Fatalf("step %d: foreign release of %s: %d", step, name, code)
			}
			delete(foreign, name)
		default:
			what = "agent restart"
			i := rng.Intn(agents)
			// Crash-stop: everything on the agent dies with it. The manager
			// is not told; its cache of the old instance is stale.
			for name := range managed {
				if mgr.Placements()[name] == fleet[i].name {
					delete(managed, name)
				}
			}
			for name, at := range foreign {
				if at == i {
					delete(foreign, name)
				}
			}
			fleet[i].restart(t)
		}
		check(step, what)
	}
	if landed == 0 || rejected == 0 || staleRefusals() == 0 {
		t.Errorf("script exercised too little: %d landed, %d rejected, %d stale refusals", landed, rejected, staleRefusals())
	}
	if _, state, _ := fleetTotals(fleet); state != 0 {
		t.Errorf("%d GET /v1/state reached the agents; placement must never fetch state", state)
	}
}

// eventLog records a manager's transitions in order, in their journaled
// (JSON) form.
type eventLog struct{ events []string }

func (l *eventLog) Record(e Event) {
	b, err := json.Marshal(e)
	if err != nil {
		panic(err)
	}
	l.events = append(l.events, string(b))
}

// TestCachedCapacityMatchesInProcess is the differential test: one seeded
// launch/release/migrate script against a RemoteNode fleet (placement served
// from pushed summaries) and against identical controllers in-process
// (placement read from the controllers themselves) must produce the same
// placements, the same capacity views after every step, and the same WAL
// event stream.
func TestCachedCapacityMatchesInProcess(t *testing.T) {
	const agents = 4
	for _, seed := range []int64{11, 12} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fleet := newCountedFleet(t, agents)
			remote, err := NewManager(coldNodes(fleet, RetryPolicy{}), BestFit, seed)
			if err != nil {
				t.Fatal(err)
			}
			locals := make([]Node, agents)
			for i := range locals {
				locals[i] = newAgentAPI(t, fleet[i].name).ctrl
			}
			local, err := NewManager(locals, BestFit, seed)
			if err != nil {
				t.Fatal(err)
			}
			remoteLog, localLog := &eventLog{}, &eventLog{}
			remote.rec, local.rec = remoteLog, localLog

			rng := rand.New(rand.NewSource(seed))
			var live []string
			same := func(step int, what string, errR, errL error) {
				t.Helper()
				if (errR == nil) != (errL == nil) {
					t.Fatalf("step %d (%s): remote fleet %v, in-process fleet %v", step, what, errR, errL)
				}
			}
			for step := 0; step < 200; step++ {
				switch r := rng.Intn(100); {
				case r < 45 || len(live) == 0:
					s := wireSpec(fmt.Sprintf("vm-%d", step), vm.Priority(rng.Intn(2)))
					s.Warm = rng.Intn(2) == 0
					iR, _, errR := remote.Launch(s)
					iL, _, errL := local.Launch(s)
					same(step, "launch", errR, errL)
					if iR != iL {
						t.Fatalf("step %d: launch landed on server %d behind the cache, %d in-process", step, iR, iL)
					}
					if errR == nil {
						live = append(live, s.Name)
					}
				case r < 75:
					i := rng.Intn(len(live))
					name := live[i]
					live = append(live[:i], live[i+1:]...)
					// A preempted VM's release is an error on both sides.
					same(step, "release", remote.Release(name), local.Release(name))
				default:
					name := live[rng.Intn(len(live))]
					dest := fleet[rng.Intn(agents)].name
					_, errR := remote.Migrate(name, dest)
					_, errL := local.Migrate(name, dest)
					same(step, "migrate", errR, errL)
				}
				if !reflect.DeepEqual(remote.Placements(), local.Placements()) {
					t.Fatalf("step %d: placements diverged:\ncached:     %v\nin-process: %v", step, remote.Placements(), local.Placements())
				}
				for i := range locals {
					cached, cachedKnown := remote.servers[i].Capacity()
					cached.Instance = ""
					if own, ownKnown := local.servers[i].Capacity(); cached != own || cachedKnown != ownKnown {
						t.Fatalf("step %d: server %d capacity diverged:\ncached:     %+v (known %v)\nin-process: %+v (known %v)",
							step, i, cached, cachedKnown, own, ownKnown)
					}
				}
			}
			if !reflect.DeepEqual(remoteLog.events, localLog.events) {
				for i := range remoteLog.events {
					if i >= len(localLog.events) || remoteLog.events[i] != localLog.events[i] {
						t.Fatalf("event %d differs:\ncached:     %s\nin-process: %v", i, remoteLog.events[i], localLog.events[min(i, len(localLog.events)-1)])
					}
				}
				t.Fatalf("event streams differ in length: %d cached, %d in-process", len(remoteLog.events), len(localLog.events))
			}
			if len(remoteLog.events) < 100 || remote.Rejected() == 0 || remote.Preemptions() == 0 || remote.fold.Migrations == 0 {
				t.Errorf("script exercised too little: %d events, %d rejections, %d preemptions, %d migrations",
					len(remoteLog.events), remote.Rejected(), remote.Preemptions(), remote.fold.Migrations)
			}
			if remote.Preemptions() != local.Preemptions() || remote.Snapshot().MaxOvercommitment != local.Snapshot().MaxOvercommitment {
				t.Errorf("reported readings differ: preemptions %d/%d, max overcommitment %v/%v",
					remote.Preemptions(), local.Preemptions(),
					remote.Snapshot().MaxOvercommitment, local.Snapshot().MaxOvercommitment)
			}
		})
	}
}

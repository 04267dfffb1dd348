package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"deflation/internal/cluster"
)

func newTestFederation(t *testing.T, shards int) *Federation {
	t.Helper()
	ids := make([]string, shards)
	for i := range ids {
		ids[i] = fmt.Sprintf("shard-%d", i)
	}
	fed, err := NewFederation(FederationConfig{
		Shards:    ids,
		StateRoot: t.TempDir(),
		Policy:    cluster.BestFit,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	return fed
}

func newTestLoad(t *testing.T, fed *Federation, agents int) *Load {
	t.Helper()
	l, err := NewLoad(LoadConfig{
		Agents:        agents,
		Seed:          3,
		HeartbeatBase: 40 * time.Millisecond,
		ArrivalRPS:    60,
		TickInterval:  25 * time.Millisecond,
	}, fed.URLs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

// agentInventory snapshots which VM runs on which agent, straight from the
// simulated hypervisors — the ground truth the control plane must not
// disturb.
func agentInventory(l *Load) map[string]string {
	out := map[string]string{}
	for _, a := range l.agents {
		inv, err := a.ctrl.Inventory()
		if err != nil {
			continue
		}
		for _, vs := range inv {
			out[vs.Name] = a.name
		}
	}
	return out
}

// TestFederationAdoptionUnderLoad is the headline scenario: a 3-shard
// federation under live load loses one shard leader (crash-stop); a peer
// adopts its journal. Nothing acked may be lost, no healthy VM may be
// evicted, and every agent must converge back to a heartbeating steady
// state through the new ownership.
func TestFederationAdoptionUnderLoad(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fed := newTestFederation(t, 3)
	l := newTestLoad(t, fed, 9)

	if err := l.RegisterAll(ctx); err != nil {
		t.Fatal(err)
	}
	l.StartHeartbeats(ctx)
	if err := l.Run(ctx, 20); err != nil {
		t.Fatal(err)
	}
	pre := agentInventory(l)
	if len(pre) == 0 {
		t.Fatal("no VMs placed before chaos")
	}

	// Crash-stop the shard owning the most agents, then adopt.
	victim := busiestShard(fed, l)
	if err := fed.Kill(victim); err != nil {
		t.Fatal(err)
	}
	killedAt := time.Now()
	adopter, rep, err := fed.Adopt(ctx, victim, "")
	if err != nil {
		t.Fatal(err)
	}
	if adopter == victim {
		t.Fatal("shard adopted itself")
	}
	if rep == nil || rep.Lost != 0 || rep.Replaced != 0 {
		t.Fatalf("adoption disturbed healthy VMs: %+v", rep)
	}

	// Keep load flowing through the adopted topology.
	if err := l.Run(ctx, 10); err != nil {
		t.Fatal(err)
	}

	// Convergence: every agent heartbeats 2xx through the new ownership
	// within a lease-scale bound.
	convCtx, convCancel := context.WithTimeout(ctx, 10*time.Second)
	defer convCancel()
	conv, err := l.AwaitConvergence(convCtx, killedAt)
	if err != nil {
		t.Fatalf("convergence: %v", err)
	}
	t.Logf("converged %v after kill; adoption report: adopted=%d replayed=%d",
		conv, rep.Adopted, rep.RecordsReplayed)

	inv, err := l.CheckInvariants(ctx, fed.View())
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Ok() {
		t.Fatalf("invariants violated after adoption: %+v", inv)
	}
	// Ground truth: every VM alive before the kill is still alive on the
	// same host — control-plane failover must not touch the data plane.
	post := agentInventory(l)
	for name, host := range pre {
		if post[name] != host {
			t.Errorf("VM %s moved/died during failover: %s → %s", name, host, post[name])
		}
	}
	rpt := l.Report()
	if rpt.LaunchesAcked == 0 || rpt.HeartbeatsOK == 0 {
		t.Fatalf("harness generated no load: %+v", rpt)
	}
}

// busiestShard returns the shard owning the most fleet agents.
func busiestShard(fed *Federation, l *Load) string {
	v := fed.View()
	counts := map[string]int{}
	for _, name := range l.AgentNames() {
		counts[v.Owner(name)]++
	}
	best, bestN := fed.Live()[0], -1
	for id, n := range counts {
		if n > bestN {
			best, bestN = id, n
		}
	}
	return best
}

// TestCrossShardFailoverAtEveryWALEvent extends the PR-6 property test
// across shard boundaries: a scripted op sequence (registrations, launches,
// a migrate, a release) runs over HTTP against a 3-shard federation; after
// every prefix of the script, the shard that owns the last-touched key is
// crash-stopped and adopted by a peer. At every crash point the adopted
// control plane must hold every acked registration and placement, with
// structurally zero healthy-VM evictions.
func TestCrossShardFailoverAtEveryWALEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-federation property test")
	}
	type op struct {
		kind string // "register", "launch", "migrate", "release"
		key  string
	}
	script := []op{
		{"register", "load-node-000"},
		{"register", "load-node-001"},
		{"register", "load-node-002"},
		{"register", "load-node-003"},
		{"register", "load-node-004"},
		{"register", "load-node-005"},
		{"register", "load-node-006"},
		{"register", "load-node-007"},
		{"launch", "pvm-0"},
		{"launch", "pvm-1"},
		{"launch", "pvm-2"},
		{"migrate", "pvm-0"},
		{"release", "pvm-1"},
		{"launch", "pvm-3"},
	}

	for crashPoint := 1; crashPoint <= len(script); crashPoint++ {
		crashPoint := crashPoint
		t.Run(fmt.Sprintf("crash-after-%d-%s", crashPoint, script[crashPoint-1].kind), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
			defer cancel()
			fed := newTestFederation(t, 3)
			l, err := NewLoad(LoadConfig{Agents: 8, Seed: 11}, fed.URLs())
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			acked := map[string]bool{} // acked VM names
			registered := map[string]bool{}
			released := map[string]bool{}
			for i := 0; i < crashPoint; i++ {
				step := script[i]
				switch step.kind {
				case "register":
					a := l.byName[step.key]
					if a == nil {
						t.Fatalf("script references unknown agent %s", step.key)
					}
					if err := l.registerAgent(ctx, a); err != nil {
						t.Fatalf("step %d register %s: %v", i, step.key, err)
					}
					a.registered.Store(true)
					registered[step.key] = true
				case "launch":
					l.launchOne(ctx, step.key)
					acked[step.key] = true
				case "migrate":
					dest := ""
					// Migration is shard-local: the destination must be a
					// registered node of the VM's own shard.
					cur := agentInventory(l)[step.key]
					v := fed.View()
					for _, name := range l.AgentNames() {
						if registered[name] && name != cur && v.RingOwner(name) == v.RingOwner(step.key) {
							dest = name
							break
						}
					}
					if dest == "" {
						t.Fatal("no migrate destination")
					}
					mustPost(t, ctx, l, "/v1/migrate",
						fmt.Sprintf(`{"vm":%q,"dest":%q}`, step.key, dest))
				case "release":
					mustDelete(t, ctx, l, "/v1/vms/"+step.key)
					l.mu.Lock()
					l.ackedVMs = slices.DeleteFunc(l.ackedVMs, func(n string) bool { return n == step.key })
					l.mu.Unlock()
					delete(acked, step.key)
					released[step.key] = true
				}
			}
			// Sanity: the launches the harness acked are what we think.
			gotAcked := map[string]bool{}
			for _, n := range l.AckedVMs() {
				if !released[n] {
					gotAcked[n] = true
				}
			}

			pre := agentInventory(l)
			victim := fed.View().Owner(script[crashPoint-1].key)
			if err := fed.Kill(victim); err != nil {
				t.Fatal(err)
			}
			adopter, rep, err := fed.Adopt(ctx, victim, "")
			if err != nil {
				t.Fatalf("adopt %s: %v", victim, err)
			}
			if rep.Lost != 0 || rep.Replaced != 0 {
				t.Fatalf("adoption disturbed healthy VMs at crash point %d: %+v", crashPoint, rep)
			}

			inv, err := l.CheckInvariants(ctx, fed.View())
			if err != nil {
				t.Fatal(err)
			}
			if !inv.Ok() {
				t.Fatalf("crash point %d (victim %s → %s): invariants violated: %+v",
					crashPoint, victim, adopter, inv)
			}
			post := agentInventory(l)
			for name, host := range pre {
				if released[name] {
					continue
				}
				if post[name] != host {
					t.Errorf("crash point %d: VM %s moved/died: %s → %s", crashPoint, name, host, post[name])
				}
			}
			for name := range gotAcked {
				if post[name] == "" {
					t.Errorf("crash point %d: acked VM %s not alive on any agent", crashPoint, name)
				}
			}
		})
	}
}

func mustPost(t *testing.T, ctx context.Context, l *Load, path, body string) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		l.managers[0]+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := readAll(resp)
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: %s: %s", path, resp.Status, b)
	}
}

func mustDelete(t *testing.T, ctx context.Context, l *Load, path string) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, l.managers[0]+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := readAll(resp)
	if resp.StatusCode >= 300 {
		t.Fatalf("DELETE %s: %s: %s", path, resp.Status, b)
	}
}

// TestDeadShardRefusesWrites: after a crash-stop the deposed shard must
// accept nothing — a probe write directly against its old URL has to fail
// (connection refused), never ack. With SIGKILL semantics this is
// structural; the test pins it so a future "graceful" kill cannot
// accidentally leave a write path open.
func TestDeadShardRefusesWrites(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	fed := newTestFederation(t, 3)
	victim := fed.Live()[0]
	url := fed.Shard(victim).URL
	if err := fed.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fed.Adopt(ctx, victim, ""); err != nil {
		t.Fatal(err)
	}
	acked, err := ProbeWrite(ctx, url, "split-brain-probe")
	if err == nil && acked {
		t.Fatal("deposed shard acked a write — split brain")
	}
}

// TestSingleShardFederationMatchesStandalone pins the shards=1 degenerate
// case: one shard must behave exactly like the pre-federation durable
// manager — same placements, same VM count, no redirects ever issued.
func TestSingleShardFederationMatchesStandalone(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	runOps := func(base string, l *Load) cluster.ManagerStateResponse {
		for _, a := range l.agents {
			if err := l.registerAgent(ctx, a); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			l.launchOne(ctx, fmt.Sprintf("eq-vm-%d", i))
		}
		mustDelete(t, ctx, l, "/v1/vms/eq-vm-3")
		st, err := cluster.ManagerClient{Base: base, HTTP: l.client}.State(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Federated, one shard.
	fed := newTestFederation(t, 1)
	lf, err := NewLoad(LoadConfig{Agents: 3, Seed: 5}, fed.URLs())
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	fedState := runOps(fed.URLs()[0], lf)

	// Standalone durable manager with the same op sequence.
	mgr, rep, err := cluster.TakeOver(cluster.DurabilityConfig{
		Dir:      t.TempDir(),
		LeaderID: "standalone",
		DialNode: func(name, url string) (cluster.Node, error) {
			return cluster.NewRemoteNodeNamed(name, url, cluster.RetryPolicy{}), nil
		},
	}, nil, nil, cluster.BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	api, err := cluster.NewManagerAPI(mgr)
	if err != nil {
		t.Fatal(err)
	}
	api.SetRecovery(rep)
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	ls, err := NewLoad(LoadConfig{Agents: 3, Seed: 5}, []string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	soloState := runOps(srv.URL, ls)

	if len(fedState.Placements) != len(soloState.Placements) || fedState.VMs != soloState.VMs {
		t.Fatalf("single-shard federation diverged from standalone:\nfed:  %+v\nsolo: %+v",
			fedState, soloState)
	}
	for vmName, node := range soloState.Placements {
		if fedState.Placements[vmName] != node {
			t.Errorf("placement of %s: federated %s, standalone %s",
				vmName, fedState.Placements[vmName], node)
		}
	}
}

// TestCheckInvariantsFlagsDoubleOwnership plants a registration on a shard
// that does not own the node (straight at the shard's API, bypassing the
// router) and verifies the invariant sweep reports the node double-owned.
func TestCheckInvariantsFlagsDoubleOwnership(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fed := newTestFederation(t, 3)
	l := newTestLoad(t, fed, 6)
	if err := l.RegisterAll(ctx); err != nil {
		t.Fatal(err)
	}
	inv, err := l.CheckInvariants(ctx, fed.View())
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.DoubleOwnedNodes) != 0 || inv.NodesRegistered != 6 {
		t.Fatalf("routed registrations: %+v", inv)
	}

	v := fed.View()
	agent := l.agents[0]
	owner := v.Owner(agent.name)
	var wrong string
	for _, id := range fed.Live() {
		if id != owner {
			wrong = id
			break
		}
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/nodes",
		strings.NewReader(fmt.Sprintf(`{"name":%q,"url":%q}`, agent.name, agent.url)))
	req.Header.Set("Content-Type", "application/json")
	fed.Shard(wrong).API.Handler().ServeHTTP(rec, req)
	if rec.Code >= 300 {
		t.Fatalf("planting misowned registration: %d %s", rec.Code, rec.Body)
	}

	inv, err = l.CheckInvariants(ctx, fed.View())
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.DoubleOwnedNodes) != 1 || inv.DoubleOwnedNodes[0] != agent.name || inv.NodesRegistered != 6 {
		t.Fatalf("double ownership of %s not reported: %+v", agent.name, inv)
	}
}

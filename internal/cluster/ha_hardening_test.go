package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deflation/internal/journal"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// The dual-leadership race the identity tie-break exists for: a crashed
// leader restarts and self-allocates epoch N+1 from its journal while the
// standby, promoted meanwhile, also holds N+1. Promotion must land strictly
// past whatever the controllers already obey, not tie with it.
func TestPromoteStandbyBumpsPastClusterFencedEpoch(t *testing.T) {
	ctrl := newServer(t, ModeDeflation)
	guard := &EpochGuard{}
	// The restarted old leader already asserted epoch 5 on the controller.
	if err := guard.Check(5, "restarted-leader"); err != nil {
		t.Fatal(err)
	}
	node := newFencedNode(ctrl, guard)

	// The standby's replica only ever saw epoch 1; a journal-local bump
	// would promote to 2 and be fenced — or worse, tie.
	st := NewWALState()
	st.Epoch = 1
	m, _, err := TakeOver(DurabilityConfig{Dir: t.TempDir(), LeaderID: "standby"},
		st, []Node{node}, BestFit, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Journal().Close()
	if m.Epoch() != 6 {
		t.Fatalf("promoted epoch = %d, want 6 (past the cluster-fenced 5)", m.Epoch())
	}
	if m.id != "standby" {
		t.Fatalf("identity = %q", m.id)
	}
	// The promotion's fencing sweep asserted the new term, so the restarted
	// leader is refused.
	if err := guard.Check(5, "restarted-leader"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("old leader still admitted after promotion: %v", err)
	}
}

func TestBecomeLeaderBumpsPastClusterFencedEpoch(t *testing.T) {
	ctrl := newServer(t, ModeDeflation)
	guard := &EpochGuard{}
	if err := guard.Check(7, "other"); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager([]Node{newFencedNode(ctrl, guard)}, BestFit, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.BecomeLeader(); got != 8 {
		t.Fatalf("BecomeLeader = %d, want 8 (past the cluster-fenced 7)", got)
	}
}

func TestBecomeLeaderQueriesFencedEpochOverHTTP(t *testing.T) {
	srv, _ := newControllerServer(t)
	rival, err := NewRemoteNode(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rival.SetEpoch(4)
	rival.SetLeaderID("rival")
	if err := rival.Ping(); err != nil {
		t.Fatal(err)
	}

	node, err := NewRemoteNode(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := node.FencedEpoch(); err != nil || e != 4 {
		t.Fatalf("FencedEpoch over HTTP = %d, %v; want 4", e, err)
	}
	m, err := NewManager([]Node{node}, BestFit, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SetIdentity("m2")
	if got := m.BecomeLeader(); got != 5 {
		t.Fatalf("BecomeLeader over HTTP = %d, want 5", got)
	}
	m.fenceAll() // assert the new term, as every takeover path does
	if err := rival.Ping(); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("rival still admitted at epoch 4: %v", err)
	}
}

// A poisoned WAL must surface into the command path: once the journal
// fail-stops, acking a launch would promise durability nothing backs.
func TestManagerAPIRefusesCommandsAfterWALPoison(t *testing.T) {
	var fail atomic.Bool
	injected := errors.New("injected disk error")
	j, err := journal.Open(t.TempDir(), journal.Options{
		SyncEvery: 1,
		FailOp: func(op string) error {
			if fail.Load() && op == "append" {
				return injected
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mgr := newCluster(t, 2, BestFit)
	mgr.AttachJournal(j, 1<<30)
	api, err := NewManagerAPI(mgr)
	if err != nil {
		t.Fatal(err)
	}

	post := func(spec LaunchSpec) *httptest.ResponseRecorder {
		body, _ := json.Marshal(spec)
		req := httptest.NewRequest(http.MethodPost, "/v1/vms", strings.NewReader(string(body)))
		w := httptest.NewRecorder()
		api.Handler().ServeHTTP(w, req)
		return w
	}

	if w := post(wireSpec("a", vm.LowPriority)); w.Code != http.StatusCreated {
		t.Fatalf("healthy launch = %d: %s", w.Code, w.Body)
	}

	// The command that poisons the journal applies in memory but must NOT be
	// acked: its durable record was dropped.
	fail.Store(true)
	if w := post(wireSpec("b", vm.LowPriority)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("poisoning launch acked with %d: %s", w.Code, w.Body)
	}
	// Every later command is refused up front — even after the fault clears,
	// the journal stays fail-stopped.
	fail.Store(false)
	if w := post(wireSpec("c", vm.LowPriority)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-poison launch = %d, want 503: %s", w.Code, w.Body)
	}
	req := httptest.NewRequest(http.MethodDelete, "/v1/vms/a", nil)
	w := httptest.NewRecorder()
	api.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-poison release = %d, want 503: %s", w.Code, w.Body)
	}
	// Reads keep serving: operators still need to see the state.
	req = httptest.NewRequest(http.MethodGet, "/v1/state", nil)
	w = httptest.NewRecorder()
	api.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("post-poison state read = %d", w.Code)
	}
}

// A deposed leader must stand down, not run forever as a zombie: the first
// ErrStaleEpoch from any node latches Deposed, fires the stand-down callback
// once, and flips the API to 503.
func TestDeposedManagerStandsDown(t *testing.T) {
	ctrl := newServer(t, ModeDeflation)
	guard := &EpochGuard{}
	m, err := NewManager([]Node{newFencedNode(ctrl, guard)}, BestFit, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SetIdentity("old")
	m.SetEpoch(1)
	var standDowns atomic.Int32
	m.SetOnDeposed(func() { standDowns.Add(1) })
	if _, _, err := m.Launch(wireSpec("a", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}

	// A newer leader fences the node behind this manager's back.
	usurper := newFencedNode(ctrl, guard)
	usurper.SetEpoch(2)
	usurper.SetLeaderID("new")
	if err := usurper.Ping(); err != nil {
		t.Fatal(err)
	}

	if m.Deposed() {
		t.Fatal("deposed before observing any rejection")
	}
	// The next heartbeat observes the stale-epoch refusal and latches.
	m.ProbeHealth()
	if !m.Deposed() {
		t.Fatal("stale-epoch rejection did not latch Deposed")
	}
	if got := standDowns.Load(); got != 1 {
		t.Fatalf("stand-down callback fired %d times, want 1", got)
	}
	// Latched once: further refusals don't re-fire the callback.
	m.ProbeHealth()
	if got := standDowns.Load(); got != 1 {
		t.Fatalf("callback re-fired: %d", got)
	}

	api, err := NewManagerAPI(m)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(wireSpec("b", vm.LowPriority))
	req := httptest.NewRequest(http.MethodPost, "/v1/vms", strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	api.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("deposed manager acked a launch: %d %s", w.Code, w.Body)
	}
	// The healthy VM placed under the old term is untouched by standing down.
	if ok, _ := ctrl.Has("a"); !ok {
		t.Error("standing down disturbed a healthy VM")
	}
}

// A migration refused for a stale epoch is proof of a newer leader like any
// other refused command: a direct migrate (its refusal arrives as the cause
// of ErrMigrationFailed) and a deflate-then-migrate fallback for a
// high-priority launch (its first refusal is the squeeze) must both latch
// Deposed. The failed POST /v1/migrate keeps
// its 409; the command after it is the deposed manager's 503.
func TestFencedMigrationLatchesDeposed(t *testing.T) {
	for _, via := range []string{"migrate", "fallback"} {
		t.Run(via, func(t *testing.T) {
			guards := []*EpochGuard{{}, {}}
			var nodes []Node
			for i, s := range newCluster(t, 2, FirstFit).Servers() {
				nodes = append(nodes, newFencedNode(s, guards[i]))
			}
			m, err := NewManager(nodes, FirstFit, 1)
			if err != nil {
				t.Fatal(err)
			}
			m.SetIdentity("old")
			m.SetEpoch(1)
			m.SetReclaimPolicy(ReclaimDeflateThenMigrate)
			if _, _, err := m.Launch(spec("a", vm.LowPriority, 0.25)); err != nil {
				t.Fatal(err)
			}
			api, err := NewManagerAPI(m)
			if err != nil {
				t.Fatal(err)
			}
			call := func(method, path, body string) *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				api.Handler().ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
				return w
			}
			// A fence-wrapped controller is still a controller to operators.
			var cs ClusterState
			if err := json.NewDecoder(call(http.MethodGet, "/v1/cluster?servers=true", "").Body).Decode(&cs); err != nil || len(cs.Servers) != 2 {
				t.Fatalf("cluster state lists %d of 2 fence-wrapped servers (%v)", len(cs.Servers), err)
			}

			// A newer leader fences both nodes behind this manager's back.
			for i, n := range nodes {
				usurper := newFencedNode(n.(*fencedNode).Node, guards[i])
				usurper.SetEpoch(2)
				usurper.SetLeaderID("new")
				if err := usurper.Ping(); err != nil {
					t.Fatal(err)
				}
			}
			migrate := `{"vm": "a", "dest": "s1"}`
			switch via {
			case "migrate":
				if w := call(http.MethodPost, "/v1/migrate", migrate); w.Code != http.StatusConflict {
					t.Fatalf("fenced migrate = %d, want 409: %s", w.Code, w.Body)
				}
			case "fallback":
				hi := spec("hi", vm.HighPriority, 1.0)
				hi.Size = restypes.V(16, 65536, 100, 100)
				hi.MinSize = hi.Size
				if _, _, err := m.Launch(hi); err == nil {
					t.Fatal("fenced fallback launch succeeded")
				}
			}
			if !m.Deposed() {
				t.Fatal("the stale-epoch refusal did not latch Deposed")
			}
			if w := call(http.MethodPost, "/v1/migrate", migrate); w.Code != http.StatusServiceUnavailable {
				t.Fatalf("migrate after standing down = %d, want 503: %s", w.Code, w.Body)
			}
		})
	}
}

// A follower must refuse a WAL stream that moves backwards: a leader
// recreated on a fresh state directory restarts its sequence numbers, and
// Apply's idempotency guard would silently no-op every record while the
// replica diverged at "lag 0".
func TestFollowerRejectsRegressedLeaderStream(t *testing.T) {
	batches := make(chan journal.Batch, 3)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(<-batches)
	}))
	defer srv.Close()
	f, err := NewFollower(FollowerConfig{Leader: srv.URL, DeadAfter: 3})
	if err != nil {
		t.Fatal(err)
	}

	batches <- journal.Batch{Seq: 5, Epoch: 2}
	if err := f.PollOnce(); err != nil {
		t.Fatal(err)
	}

	// Sequence regression: the "leader" answers from before seq 5.
	batches <- journal.Batch{Seq: 3, Epoch: 2}
	if err := f.PollOnce(); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("seq regression accepted: %v", err)
	}
	// Epoch regression: an older term's journal.
	batches <- journal.Batch{Seq: 6, Epoch: 1}
	if err := f.PollOnce(); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("epoch regression accepted: %v", err)
	}
	st := f.Status()
	if st.ConsecutiveMisses != 2 {
		t.Errorf("regressions counted %d misses, want 2", st.ConsecutiveMisses)
	}
	if st.LeaderSeq != 5 || st.Epoch != 2 {
		t.Errorf("regression moved the replica's position: %+v", st)
	}
}

// An asymmetric partition — standby cut off from the leader while both still
// reach the controllers — must not trigger failover: the controllers have
// seen the leader's epoch asserted recently, so promotion holds.
func TestFollowerCorroborationHoldsPromotion(t *testing.T) {
	ctrlSrv, _ := newControllerServer(t)
	leader, err := NewRemoteNode(ctrlSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	leader.SetEpoch(3)
	leader.SetLeaderID("leader")
	if err := leader.Ping(); err != nil { // asserts epoch 3 on the controller
		t.Fatal(err)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // the standby cannot reach the leader at all

	newF := func(controllers []string, window time.Duration) *Follower {
		f, err := NewFollower(FollowerConfig{
			Leader: dead.URL, DeadAfter: 1,
			Controllers: controllers, CorroborationWindow: window,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.epoch = 3 // replicated before the partition
		return f
	}

	// The controller vouches for the leader: hold.
	if f := newF([]string{ctrlSrv.URL}, 30*time.Second); !f.leaderCorroborated() {
		t.Error("promotion not held despite a controller corroborating the leader")
	}
	// The assertion is too old for the window: promote.
	time.Sleep(5 * time.Millisecond)
	if f := newF([]string{ctrlSrv.URL}, time.Nanosecond); f.leaderCorroborated() {
		t.Error("a stale assertion held the promotion")
	}
	// A controller that never saw the leader's epoch: promote.
	freshSrv, _ := newControllerServer(t)
	if f := newF([]string{freshSrv.URL}, 30*time.Second); f.leaderCorroborated() {
		t.Error("an unasserted controller held the promotion")
	}
	// No controller reachable: the standby is the isolated one — hold.
	deadCtrl := httptest.NewServer(http.NotFoundHandler())
	deadCtrl.Close()
	if f := newF([]string{deadCtrl.URL}, 30*time.Second); !f.leaderCorroborated() {
		t.Error("a fully isolated standby did not hold its promotion")
	}
	// No corroboration configured: lease expiry alone decides.
	if f := newF(nil, 0); f.leaderCorroborated() {
		t.Error("corroboration engaged with no controllers configured")
	}

	// End to end through Run: the held promotion is counted, not taken.
	f := newF([]string{ctrlSrv.URL}, 30*time.Second)
	f.cfg.PollInterval = 5 * time.Millisecond
	done := make(chan bool, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		done <- f.Run(ctx)
	}()
	if promoted := <-done; promoted {
		t.Fatal("Run promoted despite controller corroboration")
	}
	if st := f.Status(); st.PromotionsHeld == 0 {
		t.Errorf("held promotions not counted: %+v", st)
	}
}

package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"deflation/internal/journal"
	"deflation/internal/vm"
)

// newLeaderServer builds a durable manager serving ManagerAPI (including the
// WAL replication route) over httptest.
func newLeaderServer(t *testing.T, n int) (*Manager, *httptest.Server) {
	t.Helper()
	mgr := newCluster(t, n, BestFit)
	j, err := journal.Open(t.TempDir(), journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	mgr.AttachJournal(j, 1<<30)
	mgr.BecomeLeader()
	api, err := NewManagerAPI(mgr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { j.Close() })
	return mgr, srv
}

func TestFollowerTailsLeaderWAL(t *testing.T) {
	mgr, srv := newLeaderServer(t, 2)
	f, err := NewFollower(FollowerConfig{Leader: srv.URL})
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := mgr.Launch(durSpec("a", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	if err := f.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Placements(), mgr.Placements()) {
		t.Fatalf("replica diverged after first poll:\n%v\n%v", f.Placements(), mgr.Placements())
	}

	// Incremental tailing: only the delta crosses the wire and the replica
	// keeps converging.
	if _, _, err := mgr.Launch(durSpec("b", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Release("a"); err != nil {
		t.Fatal(err)
	}
	if err := f.PollOnce(); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if !reflect.DeepEqual(f.Placements(), mgr.Placements()) {
		t.Fatalf("replica diverged after tailing:\n%v\n%v", f.Placements(), mgr.Placements())
	}
	if st.Lag != 0 {
		t.Errorf("caught-up follower reports lag %d", st.Lag)
	}
	if st.Epoch != mgr.Epoch() {
		t.Errorf("replica epoch %d != leader epoch %d", st.Epoch, mgr.Epoch())
	}
	if st.LeaderDead {
		t.Error("live leader reported dead")
	}
}

func TestFollowerResetsFromCompactedSnapshot(t *testing.T) {
	mgr, srv := newLeaderServer(t, 2)
	for _, name := range []string{"a", "b", "c"} {
		if _, _, err := mgr.Launch(durSpec(name, vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	// Compact everything into a snapshot, then write more log on top: a
	// fresh follower's position predates the compaction and must reset.
	if err := mgr.Journal().Snapshot(mgr.fold); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Release("c"); err != nil {
		t.Fatal(err)
	}

	f, err := NewFollower(FollowerConfig{Leader: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Placements(), mgr.Placements()) {
		t.Fatalf("snapshot reset diverged:\n%v\n%v", f.Placements(), mgr.Placements())
	}
}

func TestFollowerLeaseExpiry(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // leader is already dead
	f, err := NewFollower(FollowerConfig{Leader: srv.URL, DeadAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if f.PollOnce() == nil {
			t.Fatal("poll of a dead leader succeeded")
		}
		if f.LeaderDead() {
			t.Fatalf("lease expired after %d misses, threshold 3", i+1)
		}
	}
	if f.PollOnce() == nil {
		t.Fatal("poll of a dead leader succeeded")
	}
	if !f.LeaderDead() {
		t.Error("lease not expired at the miss threshold")
	}
	if s := f.Status(); !s.LeaderDead || s.LastError == "" {
		t.Errorf("status does not reflect the dead lease: %+v", s)
	}
}

func TestStandbyAPIServesReplicaView(t *testing.T) {
	mgr, leader := newLeaderServer(t, 2)
	if _, _, err := mgr.Launch(durSpec("a", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(FollowerConfig{Leader: leader.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PollOnce(); err != nil {
		t.Fatal(err)
	}
	api, err := NewStandbyAPI(f)
	if err != nil {
		t.Fatal(err)
	}
	standby := httptest.NewServer(api.Handler())
	defer standby.Close()

	resp, err := http.Get(standby.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var state ManagerStateResponse
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if state.Role != RoleStandby {
		t.Errorf("role = %q", state.Role)
	}
	if state.Epoch != mgr.Epoch() {
		t.Errorf("standby epoch %d != leader %d", state.Epoch, mgr.Epoch())
	}
	if state.Replication == nil || state.Replication.AppliedSeq == 0 {
		t.Errorf("replication status missing: %+v", state.Replication)
	}
	if state.Placements["a"] == "" {
		t.Errorf("replica placements not served: %+v", state.Placements)
	}
}

func TestPromoteStandbyFromHTTPReplica(t *testing.T) {
	mgr, srv := newLeaderServer(t, 2)
	for _, name := range []string{"a", "b"} {
		if _, _, err := mgr.Launch(durSpec(name, vm.LowPriority, 0.25)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := NewFollower(FollowerConfig{Leader: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PollOnce(); err != nil {
		t.Fatal(err)
	}

	// The leader dies; the standby promotes from its warm replica against
	// the same (still-running) nodes.
	oldEpoch := mgr.Epoch()
	srv.Close()
	mgr.Journal().Close()
	m2, rep, err := TakeOver(DurabilityConfig{Dir: t.TempDir()},
		f.ReplicaState(), mgr.Servers(), BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epoch() <= oldEpoch {
		t.Errorf("promoted epoch %d not past old term %d", m2.Epoch(), oldEpoch)
	}
	if !reflect.DeepEqual(m2.Placements(), mgr.Placements()) {
		t.Fatalf("takeover lost placements:\n%v\n%v", m2.Placements(), mgr.Placements())
	}
	if rep.Lost != 0 || rep.Replaced != 0 || rep.StaleReleased != 0 {
		t.Errorf("takeover of a fresh replica repaired: %+v", rep)
	}
	// The new term is fully operational: it can keep placing.
	if _, _, err := m2.Launch(durSpec("c", vm.LowPriority, 0.25)); err != nil {
		t.Fatal(err)
	}
}

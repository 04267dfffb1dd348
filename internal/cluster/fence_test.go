package cluster

import (
	"errors"
	"net/http"
	"testing"

	"deflation/internal/vm"
)

func TestEpochGuard(t *testing.T) {
	var g EpochGuard
	// Epoch 0 is the unfenced legacy mode — always admitted, never raises.
	if err := g.Check(0, ""); err != nil || g.Current() != 0 {
		t.Fatalf("legacy command rejected: %v (epoch %d)", err, g.Current())
	}
	if err := g.Check(3, "m1"); err != nil {
		t.Fatal(err)
	}
	if g.Current() != 3 {
		t.Fatalf("epoch = %d, want 3", g.Current())
	}
	// Equal epochs from the same leader are retries; higher raises the bar.
	if err := g.Check(3, "m1"); err != nil {
		t.Fatal(err)
	}
	if err := g.Check(5, "m1"); err != nil || g.Current() != 5 {
		t.Fatalf("raise to 5 failed: %v", err)
	}
	// Lower is a deposed leader.
	if err := g.Check(4, "m1"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale epoch admitted: %v", err)
	}
	if err := g.Check(0, ""); err != nil {
		t.Fatalf("legacy command rejected after fencing: %v", err)
	}
	if g.StaleRejections() != 1 {
		t.Errorf("stale rejections = %d, want 1", g.StaleRejections())
	}
}

func TestEpochGuardSameEpochDifferentLeader(t *testing.T) {
	var g EpochGuard
	if err := g.Check(3, "m1"); err != nil {
		t.Fatal(err)
	}
	// The same term self-allocated by a different manager — a crashed
	// leader's restart racing its standby's promotion — is a split-brain
	// tie: exactly one of them may command this node.
	if err := g.Check(3, "m2"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("same-epoch different-leader admitted: %v", err)
	}
	// The loser wins the next term instead.
	if err := g.Check(4, "m2"); err != nil {
		t.Fatal(err)
	}
	// And now the original holder is fenced at its old term.
	if err := g.Check(4, "m1"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("tied-out leader re-admitted: %v", err)
	}
	if g.StaleRejections() != 2 {
		t.Errorf("stale rejections = %d, want 2", g.StaleRejections())
	}
}

func TestFencedNodeSameEpochDualLeader(t *testing.T) {
	ctrl := newServer(t, ModeDeflation)
	guard := &EpochGuard{}
	restarted := newFencedNode(ctrl, guard)
	promoted := newFencedNode(ctrl, guard)
	restarted.SetEpoch(2)
	restarted.SetLeaderID("leader-a")
	promoted.SetEpoch(2)
	promoted.SetLeaderID("leader-b")

	// Whichever manager reaches the node first holds epoch 2; the other is
	// fenced despite presenting the same number.
	if err := restarted.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := promoted.Launch(wireSpec("a", vm.LowPriority)); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("second leader at a tied epoch admitted: %v", err)
	}
	// FencedEpoch lets the loser discover the cluster maximum and take the
	// next term cleanly.
	if e, err := promoted.FencedEpoch(); err != nil || e != 2 {
		t.Fatalf("FencedEpoch = %d, %v; want 2", e, err)
	}
	promoted.SetEpoch(3)
	if _, err := promoted.Launch(wireSpec("a", vm.LowPriority)); err != nil {
		t.Fatalf("next term refused: %v", err)
	}
	if err := restarted.Ping(); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("tied-out leader still admitted: %v", err)
	}
}

func TestFencedNodeRejectsDeposedLeader(t *testing.T) {
	ctrl := newServer(t, ModeDeflation)
	guard := &EpochGuard{}
	oldTerm := newFencedNode(ctrl, guard)
	newTerm := newFencedNode(ctrl, guard)
	oldTerm.SetEpoch(1)
	newTerm.SetEpoch(2)

	if _, err := oldTerm.Launch(wireSpec("a", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}
	// The new leader's ping is the fencing beacon: from here on the old
	// term's mutations are refused while reads still pass.
	if err := newTerm.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := oldTerm.Launch(wireSpec("b", vm.LowPriority)); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale launch admitted: %v", err)
	}
	if err := oldTerm.Release("a"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale release admitted: %v", err)
	}
	if err := oldTerm.Ping(); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale ping admitted: %v", err)
	}
	if sum, known := oldTerm.Capacity(); !known || sum.Free.IsZero() {
		t.Error("deposed leader cannot even read state")
	}
	if ok, err := oldTerm.Has("a"); err != nil || !ok {
		t.Errorf("deposed leader's read failed: %v %v", ok, err)
	}
	if guard.StaleRejections() != 3 {
		t.Errorf("stale rejections = %d, want 3", guard.StaleRejections())
	}
	// The healthy VM survived every stale command.
	if ok, _ := ctrl.Has("a"); !ok {
		t.Error("stale commands disturbed a healthy VM")
	}
}

func TestRemoteNodeFencingOverHTTP(t *testing.T) {
	srv, ctrl := newControllerServer(t)

	oldLeader, err := NewRemoteNode(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	newLeader, err := NewRemoteNode(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	oldLeader.SetEpoch(1)
	newLeader.SetEpoch(2)

	if _, err := oldLeader.Launch(wireSpec("a", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}
	if err := newLeader.Ping(); err != nil {
		t.Fatal(err)
	}
	// The deposed leader's commands come back 412 → ErrStaleEpoch, not
	// retried, and the cluster state is untouched.
	if err := oldLeader.Release("a"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale release over HTTP: %v, want ErrStaleEpoch", err)
	}
	if err := oldLeader.Ping(); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale ping over HTTP: %v, want ErrStaleEpoch", err)
	}
	if ok, _ := ctrl.Has("a"); !ok {
		t.Error("stale release over HTTP disturbed a healthy VM")
	}
	// Reads are never fenced.
	if _, err := oldLeader.State(); err != nil {
		t.Errorf("deposed leader's state read failed: %v", err)
	}
	// Clients without the epoch header — humans, probes — stay admitted.
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("headerless healthz = %d", resp.StatusCode)
	}
}

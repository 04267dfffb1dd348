package main

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/shard"
)

// TestHeartbeatLogsOneLinePerEvent drives the heartbeat loop with a probe
// whose first round declares a node dead, evicts a VM from it and loses
// another, and pins the lines it logs.
func TestHeartbeatLogsOneLinePerEvent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	probe := func() []cluster.Event {
		rounds++
		if rounds > 1 {
			return nil
		}
		defer cancel()
		return []cluster.Event{
			{Kind: cluster.NodeDown, Node: "rack1-s1", Err: errors.New("connection refused")},
			{Kind: cluster.VMEvicted, VM: "web-1", Node: "rack1-s1"},
			{Kind: cluster.VMLost, VM: "web-2", Err: errors.New("no feasible server")},
		}
	}
	var out strings.Builder // read only after the loop has returned
	done := make(chan struct{})
	go func() {
		runHeartbeat(ctx, time.Millisecond, probe, log.New(&out, "", 0))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("heartbeat loop did not stop when its context ended")
	}
	want := "deflated: node-down vm= node=rack1-s1 err=connection refused\n" +
		"deflated: evict vm=web-1 node=rack1-s1\n" +
		"deflated: lost vm=web-2 node= err=no feasible server\n"
	if got := out.String(); got != want {
		t.Errorf("logged:\n%s\nwant:\n%s", got, want)
	}
}

// TestParsePolicyRoundTrips: every policy's name parses back to it, and
// an unknown name is an error that lists the valid ones.
func TestParsePolicyRoundTrips(t *testing.T) {
	for _, p := range policies {
		if got, err := parsePolicy(p.String()); err != nil || got != p {
			t.Errorf("parsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if !strings.Contains(policyNames(), "worst-fit") {
		t.Errorf("-policy help %q does not list worst-fit", policyNames())
	}
	if _, err := parsePolicy("random-fit"); err == nil || !strings.Contains(err.Error(), policyNames()) {
		t.Errorf("parsePolicy(random-fit) err = %v, want one listing %s", err, policyNames())
	}
}

// TestFederatedRefusesBadConfig: no state root, or a malformed -peer, is
// an error before anything is served.
func TestFederatedRefusesBadConfig(t *testing.T) {
	for name, opt := range map[string]federatedOptions{
		"no state root": {server: shard.ServerConfig{ID: "shard-0"}},
		"bad peer":      {peers: []string{"shard-1"}, server: shard.ServerConfig{ID: "shard-0", StateRoot: t.TempDir()}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := runFederated(context.Background(), ln, opt); err == nil {
			t.Errorf("%s: runFederated served", name)
		}
	}
}

// TestFederatedServesAdoptsAndDrains boots a federated shard in-process
// with its heartbeat loop on, checks that the API, the shard map and the
// metrics share its listener, adopts a dead peer over HTTP as deflctl
// adopt does, and stops it by ending its context.
func TestFederatedServesAdoptsAndDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- runFederated(ctx, ln, federatedOptions{
			peers:     []string{"shard-1=http://127.0.0.1:1"},
			heartbeat: 5 * time.Millisecond,
			drain:     5 * time.Second,
			server:    shard.ServerConfig{ID: "shard-0", StateRoot: t.TempDir(), Policy: cluster.BestFit, Seed: 1},
		})
	}()

	client := &http.Client{Timeout: 10 * time.Second}
	for _, path := range []string{"/v1/state", "/v1/shardmap", "/metrics"} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, resp.Status)
		}
	}
	resp, err := client.Post(base+"/v1/adopt?shard=shard-1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep cluster.RecoveryReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("adopting shard-1: %s (%v)", resp.Status, err)
	}
	m, err := shard.Client{ManagerClient: cluster.ManagerClient{Base: base, HTTP: client}}.ShardMap(ctx)
	if err != nil || m.Adopted["shard-1"] != "shard-0" {
		t.Errorf("shard map after adoption: %+v (%v), want shard-1 served by shard-0", m, err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("runFederated after its context ended: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runFederated did not stop when its context ended")
	}
	if _, err := client.Get(base + "/v1/state"); err == nil {
		t.Error("the shard still serves after stopping")
	}
}

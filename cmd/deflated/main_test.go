package main

import (
	"context"
	"errors"
	"log"
	"strings"
	"testing"
	"time"

	"deflation/internal/cluster"
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

package main

import (
	"context"
	"errors"
	"hash/fnv"
	"log"
	"math/rand"
	"net/http"
	"time"

	"deflation/internal/cluster"
)

// runRegistration self-registers the agent with a manager and pushes
// heartbeats. The manager journals the registration before acking, and a
// federated plane ring-routes both calls (307) to the owning shard, so the
// agent only needs any live manager's URL. Heartbeat pacing is full-jitter
// around the base interval: a fleet of agents started together de-phases
// within one period instead of synchronizing fan-in spikes at the manager.
// A heartbeat that no manager manages the node (ownership moved, or a
// hand-off raced) has the agent re-register through the ring. Each heartbeat
// carries the agent's current capacity summary, so its manager notices
// within one interval what other writers did to this server.
func runRegistration(ctx context.Context, manager, name, selfURL string, base time.Duration, seed int64,
	summary func() cluster.CapacitySummary) {
	mgr := cluster.ManagerClient{Base: manager, HTTP: &http.Client{Timeout: 10 * time.Second}}
	req := cluster.RegisterNodeRequest{Name: name, URL: selfURL}
	registerOnce := func() bool {
		if _, err := mgr.Register(ctx, req); err != nil {
			log.Printf("deflagent: registering with %s: %v", manager, err)
			return false
		}
		return true
	}

	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(name))
		seed = int64(h.Sum64())
	}
	rng := rand.New(rand.NewSource(seed))
	for !registerOnce() {
		select {
		case <-ctx.Done():
			return
		case <-time.After(cluster.HeartbeatInterval(rng, base)):
		}
	}
	log.Printf("deflagent: registered %s with %s", name, manager)
	if base <= 0 {
		return
	}

	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(cluster.HeartbeatInterval(rng, base)):
		}
		err := mgr.Heartbeat(ctx, name, summary())
		switch {
		case errors.Is(err, cluster.ErrNodeNotFound):
			if registerOnce() {
				log.Printf("deflagent: re-registered %s (ownership moved)", name)
			}
		case err != nil && ctx.Err() == nil:
			log.Printf("deflagent: heartbeat to %s: %v", manager, err)
		}
	}
}

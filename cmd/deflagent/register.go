package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
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
// A 404 on heartbeat means no shard knows the node (ownership moved, or a
// hand-off raced) — the agent re-registers through the ring. Each heartbeat
// carries the agent's current capacity summary, so its manager notices
// within one interval what other writers did to this server.
func runRegistration(ctx context.Context, manager, name, selfURL string, base time.Duration, seed int64,
	summary func() cluster.CapacitySummary) {
	client := &http.Client{Timeout: 10 * time.Second}
	body, _ := json.Marshal(cluster.RegisterNodeRequest{Name: name, URL: selfURL})

	registerOnce := func() bool {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			manager+"/v1/nodes", bytes.NewReader(body))
		if err != nil {
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			log.Printf("deflagent: registering with %s: %v", manager, err)
			return false
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			log.Printf("deflagent: registering with %s: %s", manager, resp.Status)
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

	hbURL := manager + "/v1/nodes/" + name + "/heartbeat"
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(cluster.HeartbeatInterval(rng, base)):
		}
		sum, err := json.Marshal(summary())
		if err != nil {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, hbURL, bytes.NewReader(sum))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			if registerOnce() {
				log.Printf("deflagent: re-registered %s (ownership moved)", name)
			}
		}
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/shard"
	"deflation/internal/telemetry"
)

// parsePolicy maps the -policy flag to a placement policy.
func parsePolicy(name string) (cluster.PlacementPolicy, error) {
	switch name {
	case "best-fit":
		return cluster.BestFit, nil
	case "first-fit":
		return cluster.FirstFit, nil
	case "2-choices":
		return cluster.TwoChoices, nil
	case "worst-fit":
		return cluster.WorstFit, nil
	}
	return cluster.BestFit, fmt.Errorf("unknown policy %q", name)
}

// federatedOptions carries the -shard-* flag values from main.
type federatedOptions struct {
	shardID     string
	listen      string
	advertise   string
	stateRoot   string
	peers       []string // "id=url"
	vnodes      int
	gossipEvery time.Duration
	policy      cluster.PlacementPolicy
	seed        int64
	snapEvery   int
	syncEvery   int
	heartbeat   time.Duration
	maxMisses   int
	drain       time.Duration
}

// runFederated serves one shard of a federated control plane: this
// manager recovers its own journal under <state-root>/<shard-id>, mounts
// it behind a shard.Router (ring-routing keyed requests, 307-redirecting
// the rest to peers), gossips the seq-versioned shard map, and exposes
// POST /v1/adopt?shard=ID so an operator (deflctl adopt) can have it take
// over a dead peer's journal — possible because every shard journals
// under the same shared state root.
func runFederated(opt federatedOptions) {
	if opt.stateRoot == "" {
		log.Fatalf("deflated: -shard-id requires -state-root (shared journal root; adoption opens peers' journals there)")
	}
	if opt.advertise == "" {
		host := opt.listen
		if strings.HasPrefix(host, ":") {
			host = "127.0.0.1" + host
		}
		opt.advertise = "http://" + host
	}
	members := []shard.Member{{ID: opt.shardID, URL: opt.advertise}}
	for _, p := range opt.peers {
		id, url, ok := strings.Cut(p, "=")
		if !ok || id == "" || url == "" {
			log.Fatalf("deflated: bad -peer %q (want id=url)", p)
		}
		members = append(members, shard.Member{ID: id, URL: url})
	}
	initial := shard.Map{Version: 1, VNodes: opt.vnodes, Members: members}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	sink := telemetry.NewSink()

	durFor := func(dir string) cluster.DurabilityConfig {
		return cluster.DurabilityConfig{
			Dir:           filepath.Join(opt.stateRoot, dir),
			LeaderID:      opt.shardID,
			SnapshotEvery: opt.snapEvery,
			SyncEvery:     opt.syncEvery,
			// Probe-free re-dial of journaled agents: an agent partitioned
			// at recovery time must NOT orphan its placements — it would be
			// double-placed when the partition heals.
			DialNode: func(name, url string) (cluster.Node, error) {
				return cluster.NewRemoteNodeNamed(name, url, cluster.RetryPolicy{}), nil
			},
		}
	}
	boot := func(dir string) (*cluster.ManagerAPI, *cluster.RecoveryReport, error) {
		mgr, rep, err := cluster.TakeOver(durFor(dir), nil, nil, opt.policy, opt.seed)
		if err != nil {
			return nil, nil, err
		}
		mgr.SetHealthPolicy(cluster.HealthPolicy{MaxMisses: opt.maxMisses})
		mgr.SetTelemetry(sink)
		api, err := cluster.NewManagerAPI(mgr)
		if err != nil {
			return nil, nil, err
		}
		api.SetRecovery(rep)
		return api, rep, nil
	}

	api, rep, err := boot(opt.shardID)
	if err != nil {
		log.Fatalf("deflated: recovering shard %s: %v", opt.shardID, err)
	}
	api.AttachTelemetry(sink)
	log.Printf("deflated: shard %s recovered %d placements (replayed %d records)",
		opt.shardID, rep.Placements, rep.RecordsReplayed)

	rt := shard.NewRouter(opt.shardID, shard.NewMapStore(initial))
	rt.Mount(opt.shardID, api.Handler())

	// Served shards (own + adopted) for the failure-detector sweep.
	var mu sync.Mutex
	served := []*cluster.ManagerAPI{api}

	mux := http.NewServeMux()
	mux.Handle("/", rt.Handler())
	sink.Attach(mux)
	// Adoption is an explicit operator action (deflctl adopt): automatic
	// takeover without corroboration risks adopting a partitioned — not
	// dead — peer, and PR 6's corroborated-promotion machinery covers the
	// standby path. The caller must have SIGKILL'd (or otherwise fenced)
	// the peer first; the epoch bump in TakeOver fences any survivor.
	mux.HandleFunc("POST /v1/adopt", func(w http.ResponseWriter, r *http.Request) {
		dead := r.URL.Query().Get("shard")
		if dead == "" {
			http.Error(w, "deflated: /v1/adopt needs ?shard=ID", http.StatusBadRequest)
			return
		}
		if dead == opt.shardID {
			http.Error(w, "deflated: cannot adopt own shard", http.StatusConflict)
			return
		}
		for _, id := range rt.Mounted() {
			if id == dead {
				http.Error(w, fmt.Sprintf("deflated: %s already served here", dead), http.StatusConflict)
				return
			}
		}
		adoptedAPI, adoptedRep, err := boot(dead)
		if err != nil {
			http.Error(w, fmt.Sprintf("deflated: adopting %s: %v", dead, err), http.StatusInternalServerError)
			return
		}
		rt.Mount(dead, adoptedAPI.Handler())
		rt.Store().Adopt(dead, opt.shardID)
		mu.Lock()
		served = append(served, adoptedAPI)
		mu.Unlock()
		go rt.GossipOnce(context.Background(), nil)
		log.Printf("deflated: adopted shard %s (replayed %d records; %d lost, %d replaced)",
			dead, adoptedRep.RecordsReplayed, adoptedRep.Lost, adoptedRep.Replaced)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(adoptedRep)
	})

	if opt.gossipEvery > 0 {
		go rt.Gossip(ctx, &http.Client{Timeout: 5 * time.Second}, opt.gossipEvery)
	}
	if opt.heartbeat > 0 {
		go runHeartbeat(ctx, opt.heartbeat, func() []cluster.Event {
			mu.Lock()
			apis := append([]*cluster.ManagerAPI(nil), served...)
			mu.Unlock()
			var events []cluster.Event
			for _, a := range apis {
				events = append(events, a.ProbeHealth()...)
			}
			return events
		}, log.Default())
	}

	srv := cluster.NewHTTPServer(opt.listen, mux)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("deflated: shard %s serving on %s (%d members, gossip %v)",
		opt.shardID, opt.listen, len(members), opt.gossipEvery)

	select {
	case err := <-errc:
		log.Fatalf("deflated: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("deflated: shutting down (draining for up to %v)", opt.drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), opt.drain)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("deflated: drain incomplete: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("deflated: %v", err)
		}
		log.Printf("deflated: stopped")
	}
}

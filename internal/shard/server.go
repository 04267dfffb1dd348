package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/telemetry"
)

// ServerConfig parameterizes one shard server: what one federated manager
// process runs.
type ServerConfig struct {
	// ID is this server's member ID; its own shard journals under
	// StateRoot/ID.
	ID string
	// Map is the initial shard map. It must list ID, at the URL peers and
	// redirects reach this server at.
	Map Map
	// StateRoot is the state directory every shard of the federation
	// journals under. Sharing it is what makes adoption possible: a peer
	// opens a dead shard's journal in place.
	StateRoot string
	// Policy and Seed configure each served shard's placement exactly as a
	// standalone manager's.
	Policy cluster.PlacementPolicy
	Seed   int64
	// SnapshotEvery/SyncEvery tune each shard's journal (0 = defaults).
	SnapshotEvery, SyncEvery int
	// MaxMisses is the failure detector's consecutive missed heartbeats
	// before a node is declared dead (0 = default).
	MaxMisses int
	// FailOp injects disk faults into a shard's journal (nil = none);
	// keyed by shard ID so chaos can slow or poison one shard's disk.
	FailOp func(shardID, op string) error
	// Telemetry instruments every served manager and the own shard's API,
	// and is served beside the API (/metrics) (nil = none).
	Telemetry *telemetry.Sink
}

var (
	// errServed refuses an adoption of a shard the server already serves,
	// its own included.
	errServed = errors.New("shard: already served here")
	// errNotMember refuses an adoption of an ID the shard map does not
	// list, before anything is made under the state root.
	errNotMember = errors.New("shard: not a member of the shard map")
)

// Server is one shard server: it recovers its own shard from
// StateRoot/ID, serves it behind its Router, and adopts dead peers'
// shards into itself. The federated deflated daemon runs one; an
// in-process Federation runs N.
type Server struct {
	ID     string
	URL    string
	Router *Router
	API    *cluster.ManagerAPI // the own shard's

	cfg    ServerConfig
	http   *http.Server
	client *http.Client // gossip after an adoption

	adopting sync.Mutex // one adoption at a time

	mu     sync.Mutex
	served []servedShard // own shard first, then adoptions
	closed bool
}

// servedShard is one shard a Server operates.
type servedShard struct {
	api *cluster.ManagerAPI
	mgr *cluster.Manager
}

// NewServer recovers the server's own shard from its journal (a first boot
// replays an empty one) and builds the handler serving it. Each shard
// starts fenced at epoch ≥ 1 so every command it ever issues is refusable.
// Serve starts serving.
func NewServer(cfg ServerConfig) (*Server, *cluster.RecoveryReport, error) {
	if cfg.StateRoot == "" {
		return nil, nil, fmt.Errorf("shard: server %s needs a state root", cfg.ID)
	}
	url := cfg.Map.MemberURL(cfg.ID)
	if url == "" {
		return nil, nil, fmt.Errorf("shard: the shard map lists no URL for %s", cfg.ID)
	}
	s := &Server{ID: cfg.ID, URL: url, Router: NewRouter(cfg.ID, NewMapStore(cfg.Map)),
		cfg: cfg, client: &http.Client{Timeout: 5 * time.Second}}
	api, rep, err := s.takeOver(cfg.ID)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: recovering %s: %w", cfg.ID, err)
	}
	api.AttachTelemetry(cfg.Telemetry)
	s.API = api
	s.Router.adopt = s.Adopt
	mux := s.Router.Handler()
	if cfg.Telemetry != nil {
		cfg.Telemetry.Attach(mux)
	}
	s.http = cluster.NewHTTPServer("", mux)
	return s, rep, nil
}

// takeOver has this server operate shard id: TakeOver replays its journal
// under StateRoot (re-dialing its registered agents), bumps the fencing
// epoch past the cluster-wide maximum, fences and reconciles. The shard is
// then served: mounted on the router, probed by ProbeHealth, closed by
// Close.
func (s *Server) takeOver(id string) (*cluster.ManagerAPI, *cluster.RecoveryReport, error) {
	dur := cluster.DurabilityConfig{
		Dir:           filepath.Join(s.cfg.StateRoot, id),
		LeaderID:      s.ID,
		SnapshotEvery: s.cfg.SnapshotEvery,
		SyncEvery:     s.cfg.SyncEvery,
		// Probe-free re-dial of journaled agents: an agent partitioned at
		// recovery time must NOT orphan its placements — it would be
		// double-placed when the partition heals.
		DialNode: func(name, url string) (cluster.Node, error) {
			return cluster.NewRemoteNodeNamed(name, url, cluster.RetryPolicy{}), nil
		},
	}
	if s.cfg.FailOp != nil {
		dur.FailOp = func(op string) error { return s.cfg.FailOp(id, op) }
	}
	mgr, rep, err := cluster.TakeOver(dur, nil, nil, s.cfg.Policy, s.cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	mgr.SetHealthPolicy(cluster.HealthPolicy{MaxMisses: s.cfg.MaxMisses})
	mgr.SetTelemetry(s.cfg.Telemetry)
	api, err := cluster.NewManagerAPI(mgr)
	if err != nil {
		return nil, nil, err
	}
	api.SetRecovery(rep)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		mgr.Journal().Close()
		return nil, nil, fmt.Errorf("shard: server %s is closed", s.ID)
	}
	s.served = append(s.served, servedShard{api, mgr})
	s.Router.Mount(id, api.Handler())
	return api, rep, nil
}

// Adopt takes over a dead peer's shard from its journal under the shared
// state root, serves it, and gossips the bumped shard map. The caller must
// have crash-stopped the peer: the epoch bump fences any survivor, but a
// live peer would keep serving until its next fenced command. The server's
// own shard and any shard it already serves are refused.
func (s *Server) Adopt(ctx context.Context, dead string) (*cluster.RecoveryReport, error) {
	s.adopting.Lock()
	defer s.adopting.Unlock()
	if s.Router.Store().View().Map.MemberURL(dead) == "" {
		return nil, fmt.Errorf("%w: %s", errNotMember, dead)
	}
	if s.Router.localHandler(dead) != nil {
		return nil, fmt.Errorf("%w: %s", errServed, dead)
	}
	_, rep, err := s.takeOver(dead)
	if err != nil {
		return nil, fmt.Errorf("shard: adopting %s into %s: %w", dead, s.ID, err)
	}
	s.Router.Store().Adopt(dead, s.ID)
	// Spread the bumped map now; periodic gossip would get there
	// eventually, but clients following redirects benefit from every live
	// manager agreeing at once. A refused push is dropped: the adoption has
	// already taken effect, and periodic gossip retries the push.
	_ = s.Router.GossipOnce(ctx, s.client)
	return rep, nil
}

// ProbeHealth runs one failure-detector round on every served shard and
// returns the events it emitted.
func (s *Server) ProbeHealth() []cluster.Event {
	s.mu.Lock()
	shards := append([]servedShard(nil), s.served...)
	s.mu.Unlock()
	var events []cluster.Event
	for _, sh := range shards {
		events = append(events, sh.api.ProbeHealth()...)
	}
	return events
}

// Serve serves the server's handler on ln until Shutdown or Close.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// Shutdown stops accepting requests, waits until ctx ends for those in
// flight, then closes the server as Close does.
func (s *Server) Shutdown(ctx context.Context) error {
	return errors.Join(s.http.Shutdown(ctx), s.Close())
}

// Close stops serving at once, then syncs and closes every served shard's
// journal: a graceful stop. (Federation.Kill is the crash-stop: it closes
// only the listener, and leaves the journals as SIGKILL would.)
func (s *Server) Close() error {
	err := s.http.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return err
	}
	s.closed = true
	for _, sh := range s.served {
		j := sh.mgr.Journal()
		err = errors.Join(err, j.Sync(), j.Close())
	}
	return err
}

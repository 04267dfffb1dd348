package shard

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"

	"deflation/internal/cluster"
	"deflation/internal/telemetry"
)

// FederationConfig parameterizes an in-process federation: N manager
// shards, each serving a Router over a real 127.0.0.1 listener, each
// journaling under StateRoot/<shard-id>. Tests and the deflload harness
// use it to run the whole federated control plane — real HTTP, real WALs,
// real fencing — inside one process where chaos (crash-stop kill,
// partitions, slow disks) is a function call away.
type FederationConfig struct {
	// Shards are the member IDs (e.g. ["shard-0","shard-1","shard-2"]).
	Shards []string
	// StateRoot is the shared state directory; shard i journals under
	// StateRoot/<id>. Sharing the root is what makes adoption possible:
	// a peer opens a dead shard's journal directly.
	StateRoot string
	// VNodes is the ring's virtual-node count (0 = DefaultVNodes).
	VNodes int
	// Policy and Seed configure each shard's placement exactly as a
	// standalone manager's.
	Policy cluster.PlacementPolicy
	Seed   int64
	// SnapshotEvery/SyncEvery tune each shard's journal (0 = defaults).
	SnapshotEvery, SyncEvery int
	// FailOp injects disk faults into a shard's journal (nil = none);
	// keyed by shard ID so chaos can slow or poison one shard's disk.
	FailOp func(shardID, op string) error
	// DialNode overrides how managers (re)connect agents. The default
	// dials RemoteNodes without probing; in-process tests substitute their
	// own node fakes.
	DialNode cluster.NodeDialer
	// Telemetry instruments each shard's manager and API (nil = none).
	Telemetry *telemetry.Sink
}

// ManagerShard is one live shard of the federation: a durable manager, its
// API, and the router serving it (plus any adopted shards) over HTTP.
type ManagerShard struct {
	ID     string
	URL    string
	Router *Router
	API    *cluster.ManagerAPI

	ln    net.Listener
	srv   *http.Server
	alive bool
}

// Alive reports whether the shard's listener is still serving.
func (s *ManagerShard) Alive() bool { return s.alive }

// Federation is a set of in-process manager shards over real HTTP.
type Federation struct {
	cfg FederationConfig

	mu     sync.Mutex
	shards map[string]*ManagerShard
	order  []string
}

// NewFederation boots every shard: listeners first (the shard map needs
// the URLs), then a per-shard TakeOver of its journal (a first boot
// replays an empty one) and router mount. Each shard starts fenced at
// epoch ≥ 1 so every command it ever issues is refusable.
func NewFederation(cfg FederationConfig) (*Federation, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: federation needs at least one shard")
	}
	if cfg.StateRoot == "" {
		return nil, fmt.Errorf("shard: federation needs a state root")
	}
	fed := &Federation{cfg: cfg, shards: make(map[string]*ManagerShard)}

	// Listeners first: the shard map carries every member's URL.
	members := make([]Member, 0, len(cfg.Shards))
	listeners := make(map[string]net.Listener, len(cfg.Shards))
	fail := func(err error) (*Federation, error) {
		for _, ln := range listeners {
			ln.Close()
		}
		fed.Close()
		return nil, err
	}
	for _, id := range cfg.Shards {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("shard: listening for %s: %w", id, err))
		}
		listeners[id] = ln
		members = append(members, Member{ID: id, URL: "http://" + ln.Addr().String()})
	}
	initial := Map{Version: 1, VNodes: cfg.VNodes, Members: members}

	for _, id := range cfg.Shards {
		s, err := fed.bootShard(id, listeners[id], initial)
		if err != nil {
			return fail(err)
		}
		delete(listeners, id) // owned by the shard's server now
		fed.shards[id] = s
		fed.order = append(fed.order, id)
	}
	return fed, nil
}

// takeOver has manager `operator` take over shard `dir` from its journal
// (a first boot replays an empty one) and wraps the result in an API.
func (fed *Federation) takeOver(dir, operator string) (*cluster.Manager, *cluster.ManagerAPI, *cluster.RecoveryReport, error) {
	mgr, rep, err := cluster.TakeOver(fed.shardDurability(dir, operator), nil, nil, fed.cfg.Policy, fed.cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	api, err := cluster.NewManagerAPI(mgr)
	if err != nil {
		return nil, nil, nil, err
	}
	api.SetRecovery(rep)
	if fed.cfg.DialNode != nil {
		api.SetNodeDialer(fed.cfg.DialNode)
	}
	return mgr, api, rep, nil
}

// bootShard recovers one shard's manager from its journal directory and
// starts serving its router.
func (fed *Federation) bootShard(id string, ln net.Listener, initial Map) (*ManagerShard, error) {
	mgr, api, _, err := fed.takeOver(id, id)
	if err != nil {
		return nil, fmt.Errorf("shard: recovering %s: %w", id, err)
	}
	if fed.cfg.Telemetry != nil {
		mgr.SetTelemetry(fed.cfg.Telemetry)
		api.AttachTelemetry(fed.cfg.Telemetry)
	}

	rt := NewRouter(id, NewMapStore(initial))
	rt.Mount(id, api.Handler())
	srv := cluster.NewHTTPServer("", rt.Handler())
	s := &ManagerShard{
		ID:     id,
		URL:    "http://" + ln.Addr().String(),
		Router: rt,
		API:    api,
		ln:     ln,
		srv:    srv,
		alive:  true,
	}
	go srv.Serve(ln)
	return s, nil
}

// shardDurability builds the DurabilityConfig for shard `dir` operated by
// manager `operator` (self at boot; the adopter during adoption).
func (fed *Federation) shardDurability(dir, operator string) cluster.DurabilityConfig {
	cfg := cluster.DurabilityConfig{
		Dir:           filepath.Join(fed.cfg.StateRoot, dir),
		LeaderID:      operator,
		SnapshotEvery: fed.cfg.SnapshotEvery,
		SyncEvery:     fed.cfg.SyncEvery,
		DialNode:      fed.cfg.DialNode,
	}
	if cfg.DialNode == nil {
		cfg.DialNode = func(name, url string) (cluster.Node, error) {
			return cluster.NewRemoteNodeNamed(name, url, cluster.RetryPolicy{}), nil
		}
	}
	if fed.cfg.FailOp != nil {
		shardID := dir
		cfg.FailOp = func(op string) error { return fed.cfg.FailOp(shardID, op) }
	}
	return cfg
}

// Shard returns a shard by ID (nil if unknown).
func (fed *Federation) Shard(id string) *ManagerShard {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return fed.shards[id]
}

// Live returns the IDs of shards still serving, in boot order.
func (fed *Federation) Live() []string {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	var out []string
	for _, id := range fed.order {
		if fed.shards[id].alive {
			out = append(out, id)
		}
	}
	return out
}

// URLs returns every live shard's base URL, in boot order.
func (fed *Federation) URLs() []string {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	var out []string
	for _, id := range fed.order {
		if s := fed.shards[id]; s.alive {
			out = append(out, s.URL)
		}
	}
	return out
}

// Kill crash-stops a shard: its listener closes and every in-flight and
// future connection dies. The manager object and its journal are simply
// abandoned — exactly what SIGKILL leaves behind — so the only path back
// to its state is the journal on disk.
func (fed *Federation) Kill(id string) error {
	fed.mu.Lock()
	s := fed.shards[id]
	fed.mu.Unlock()
	if s == nil {
		return fmt.Errorf("shard: unknown shard %s", id)
	}
	if !s.alive {
		return nil
	}
	s.alive = false
	s.srv.Close()
	return nil
}

// Adopt has `adopter` (or, when adopter is "", the deterministic
// adopter-elect) take over dead's shard: TakeOver replays its journal
// (re-dialing its registered agents), bumps the fencing epoch past the
// cluster-wide maximum, fences and reconciles; Adopt then mounts the
// rebuilt shard on the adopter's router and gossips the bumped shard map.
// Returns the adopter's ID and the recovery report.
func (fed *Federation) Adopt(ctx context.Context, dead, adopter string) (string, *cluster.RecoveryReport, error) {
	fed.mu.Lock()
	deadShard := fed.shards[dead]
	if adopter == "" {
		for _, id := range fed.order {
			if fed.shards[id].alive {
				adopter = fed.shards[id].Router.Store().View().AdopterElect(dead)
				break
			}
		}
	}
	a := fed.shards[adopter]
	fed.mu.Unlock()
	if deadShard == nil {
		return "", nil, fmt.Errorf("shard: unknown shard %s", dead)
	}
	if deadShard.alive {
		return "", nil, fmt.Errorf("shard: refusing to adopt live shard %s", dead)
	}
	if a == nil || !a.alive {
		return "", nil, fmt.Errorf("shard: no live adopter for %s (elect %q)", dead, adopter)
	}

	_, api, rep, err := fed.takeOver(dead, adopter)
	if err != nil {
		return "", nil, fmt.Errorf("shard: adopting %s into %s: %w", dead, adopter, err)
	}
	a.Router.Mount(dead, api.Handler())
	a.Router.Store().Adopt(dead, adopter)
	// Spread the bumped map immediately; periodic gossip would get there
	// eventually, but clients following redirects benefit from every live
	// manager agreeing now.
	fed.GossipAll(ctx)
	return adopter, rep, nil
}

// GossipAll runs one gossip round on every live shard.
func (fed *Federation) GossipAll(ctx context.Context) {
	client := &http.Client{}
	fed.mu.Lock()
	var live []*ManagerShard
	for _, id := range fed.order {
		if s := fed.shards[id]; s.alive {
			live = append(live, s)
		}
	}
	fed.mu.Unlock()
	for _, s := range live {
		s.Router.GossipOnce(ctx, client)
	}
}

// View returns a live shard's current map view (the first in boot order).
func (fed *Federation) View() *View {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	for _, id := range fed.order {
		if s := fed.shards[id]; s.alive {
			return s.Router.Store().View()
		}
	}
	return NewView(Map{})
}

// Close shuts every shard down.
func (fed *Federation) Close() {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	ids := make([]string, 0, len(fed.shards))
	for id := range fed.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s := fed.shards[id]
		if s.alive {
			s.alive = false
			s.srv.Close()
		}
	}
}

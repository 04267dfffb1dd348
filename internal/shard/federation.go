package shard

import (
	"context"
	"fmt"
	"net"
	"sync"

	"deflation/internal/cluster"
)

// FederationConfig parameterizes an in-process federation: N shard
// Servers, each over a real 127.0.0.1 listener, each journaling under
// StateRoot/<shard-id>. Tests and the deflload harness use it to run the
// whole federated control plane — real HTTP, real WALs, real fencing —
// inside one process where chaos (crash-stop kill, partitions, slow disks)
// is a function call away.
type FederationConfig struct {
	// Shards are the member IDs (e.g. ["shard-0","shard-1","shard-2"]).
	Shards []string
	// StateRoot is the shared state directory; shard i journals under
	// StateRoot/<id> (see ServerConfig.StateRoot).
	StateRoot string
	// VNodes is the ring's virtual-node count (0 = DefaultVNodes).
	VNodes int
	// Policy, Seed and FailOp configure every shard as the ServerConfig
	// fields of the same names do.
	Policy cluster.PlacementPolicy
	Seed   int64
	FailOp func(shardID, op string) error
}

// Federation is a set of in-process shard Servers over real HTTP, with
// crash-stop Kill and adopter election.
type Federation struct {
	mu      sync.Mutex
	servers []*Server       // boot order
	stopped map[string]bool // killed or closed
}

// NewFederation boots every shard: listeners first (the shard map needs
// the URLs), then one Server per shard.
func NewFederation(cfg FederationConfig) (*Federation, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: federation needs at least one shard")
	}
	fed := &Federation{stopped: make(map[string]bool)}
	members := make([]Member, 0, len(cfg.Shards))
	listeners := make([]net.Listener, 0, len(cfg.Shards))
	fail := func(err error) (*Federation, error) {
		for _, ln := range listeners[len(fed.servers):] {
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
		listeners = append(listeners, ln)
		members = append(members, Member{ID: id, URL: "http://" + ln.Addr().String()})
	}
	initial := Map{Version: 1, VNodes: cfg.VNodes, Members: members}
	for i, id := range cfg.Shards {
		s, _, err := NewServer(ServerConfig{ID: id, Map: initial, StateRoot: cfg.StateRoot,
			Policy: cfg.Policy, Seed: cfg.Seed, FailOp: cfg.FailOp})
		if err != nil {
			return fail(err)
		}
		fed.servers = append(fed.servers, s)
		go s.Serve(listeners[i])
	}
	return fed, nil
}

// Shard returns a shard's server by ID (nil if unknown).
func (fed *Federation) Shard(id string) *Server {
	for _, s := range fed.servers {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// live returns the servers neither killed nor closed, in boot order.
func (fed *Federation) live() []*Server {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	var out []*Server
	for _, s := range fed.servers {
		if !fed.stopped[s.ID] {
			out = append(out, s)
		}
	}
	return out
}

// Live returns the IDs of shards still serving, in boot order.
func (fed *Federation) Live() []string {
	var out []string
	for _, s := range fed.live() {
		out = append(out, s.ID)
	}
	return out
}

// URLs returns every live shard's base URL, in boot order.
func (fed *Federation) URLs() []string {
	var out []string
	for _, s := range fed.live() {
		out = append(out, s.URL)
	}
	return out
}

// Kill crash-stops a shard: its listener closes and every in-flight and
// future connection dies. The managers and their journals are simply
// abandoned — exactly what SIGKILL leaves behind — so the only path back
// to their state is the journal on disk.
func (fed *Federation) Kill(id string) error {
	s := fed.Shard(id)
	if s == nil {
		return fmt.Errorf("shard: unknown shard %s", id)
	}
	fed.mu.Lock()
	defer fed.mu.Unlock()
	if !fed.stopped[id] {
		fed.stopped[id] = true
		s.http.Close()
	}
	return nil
}

// Adopt has `adopter` (or, when adopter is "", the deterministic
// adopter-elect) adopt dead's shard through Server.Adopt, once dead has
// been killed. Returns the adopter's ID and the recovery report.
func (fed *Federation) Adopt(ctx context.Context, dead, adopter string) (string, *cluster.RecoveryReport, error) {
	if fed.Shard(dead) == nil {
		return "", nil, fmt.Errorf("shard: unknown shard %s", dead)
	}
	live := fed.live()
	for _, s := range live {
		if s.ID == dead {
			return "", nil, fmt.Errorf("shard: refusing to adopt live shard %s", dead)
		}
	}
	if adopter == "" && len(live) > 0 {
		adopter = live[0].Router.Store().View().AdopterElect(dead)
	}
	for _, s := range live {
		if s.ID == adopter {
			rep, err := s.Adopt(ctx, dead)
			if err != nil {
				return "", nil, err
			}
			return adopter, rep, nil
		}
	}
	return "", nil, fmt.Errorf("shard: no live adopter for %s (elect %q)", dead, adopter)
}

// View returns a live shard's current map view (the first in boot order).
// It allocates nothing: a load driver may call it once per request.
func (fed *Federation) View() *View {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	for _, s := range fed.servers {
		if !fed.stopped[s.ID] {
			return s.Router.Store().View()
		}
	}
	return NewView(Map{})
}

// Close gracefully stops every live shard, closing its journals.
func (fed *Federation) Close() {
	for _, s := range fed.live() {
		s.Close()
		fed.mu.Lock()
		fed.stopped[s.ID] = true
		fed.mu.Unlock()
	}
}

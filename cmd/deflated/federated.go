package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"deflation/internal/cluster"
	"deflation/internal/shard"
	"deflation/internal/telemetry"
)

// federatedOptions carries the -shard-* flag values from main; server holds
// the ones the shard server reads (its Map is built here).
type federatedOptions struct {
	advertise   string
	peers       []string // "id=url"
	vnodes      int
	gossipEvery time.Duration
	heartbeat   time.Duration
	drain       time.Duration
	server      shard.ServerConfig
}

// runFederated serves one shard of a federated control plane on ln until
// ctx ends, then drains: a shard.Server recovers this manager's journal
// under <state-root>/<shard-id>, ring-routes keyed requests (307-redirecting
// the rest to peers), serves POST /v1/adopt?shard=ID so an operator
// (deflctl adopt) can have it take over a dead peer's journal, and closes
// its journals on the way out. This function adds the gossip and
// failure-detector loops.
func runFederated(ctx context.Context, ln net.Listener, opt federatedOptions) error {
	s, rep, err := opt.boot(ln.Addr())
	if err != nil {
		ln.Close()
		return err
	}
	log.Printf("deflated: shard %s recovered %d placements (replayed %d records)",
		s.ID, rep.Placements, rep.RecordsReplayed)
	if opt.gossipEvery > 0 {
		go s.Router.Gossip(ctx, &http.Client{Timeout: 5 * time.Second}, opt.gossipEvery,
			func(err error) { log.Printf("deflated: gossip: %v", err) })
	}
	if opt.heartbeat > 0 {
		go runHeartbeat(ctx, opt.heartbeat, s.ProbeHealth, log.Default())
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()
	log.Printf("deflated: shard %s serving on %s (%d members, gossip %v)",
		s.ID, ln.Addr(), len(opt.peers)+1, opt.gossipEvery)

	select {
	case err := <-errc:
		return errors.Join(err, s.Close())
	case <-ctx.Done():
		stopServing(s.Shutdown, errc, opt.drain)
		return nil
	}
}

// boot completes the shard server's configuration — its shard map lists
// this shard at addr (or -advertise) and every -peer — and boots it.
func (opt federatedOptions) boot(addr net.Addr) (*shard.Server, *cluster.RecoveryReport, error) {
	cfg := opt.server
	if cfg.StateRoot == "" {
		return nil, nil, errors.New("-shard-id requires -state-root (shared journal root; adoption opens peers' journals there)")
	}
	members := []shard.Member{{ID: cfg.ID, URL: advertised(opt.advertise, addr)}}
	for _, p := range opt.peers {
		id, url, ok := strings.Cut(p, "=")
		if !ok || id == "" || url == "" {
			return nil, nil, fmt.Errorf("bad -peer %q (want id=url)", p)
		}
		members = append(members, shard.Member{ID: id, URL: url})
	}
	cfg.Map = shard.Map{Version: 1, VNodes: opt.vnodes, Members: members}
	cfg.Telemetry = telemetry.NewSink()
	return shard.NewServer(cfg)
}

// advertised is the URL peers reach this shard at: -advertise, or else the
// listener's address, an unspecified host read as loopback.
func advertised(advertise string, addr net.Addr) string {
	if advertise != "" {
		return advertise
	}
	host, port, _ := net.SplitHostPort(addr.String())
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

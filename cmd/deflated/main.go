// Command deflated runs the centralized deflation-aware cluster manager
// (§5). It either manages an in-process simulated cluster (-servers N) or
// connects to remote deflagent controllers (-controller URL, repeatable),
// and serves the manager REST API for cmd/deflctl.
//
// Usage:
//
//	deflated -listen :7000 -servers 8                       # simulated fleet
//	deflated -listen :7000 \
//	    -controller http://10.0.0.1:7070 \
//	    -controller http://10.0.0.2:7070                    # remote fleet
//	deflated -listen :7000 -state-dir /var/lib/deflated \
//	    -controller http://10.0.0.1:7070                    # durable manager
//
// With -state-dir, every placement and failure-detector transition is
// journaled; on start the manager recovers from the journal and reconciles
// against each node's actual VM inventory, so a SIGKILL'd manager restarts
// without evicting healthy workloads.
//
// With -standby-of, the process runs as a hot standby instead: it tails the
// leader's write-ahead log over HTTP into a warm in-memory replica and
// serves a read-only /v1/state reporting replication lag. When the leader
// misses -dead-after consecutive polls the lease is considered expired and
// the standby promotes itself — it adopts the fleet under a bumped fencing
// epoch (stale commands from the deposed leader are rejected by every
// controller), reconciles against live inventories without evicting
// healthy workloads, and swaps in the full manager API on the same
// listener:
//
//	deflated -listen :7001 -state-dir /var/lib/deflated-standby \
//	    -standby-of http://127.0.0.1:7000 \
//	    -controller http://10.0.0.1:7070                    # hot standby
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/cluster"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/shard"
	"deflation/internal/telemetry"
)

type urlList []string

func (u *urlList) String() string     { return strings.Join(*u, ",") }
func (u *urlList) Set(s string) error { *u = append(*u, s); return nil }

// swapHandler atomically swaps the /v1/ handler when a standby promotes.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) Set(h http.Handler) { s.h.Store(h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

func main() {
	var controllers urlList
	var (
		listen    = flag.String("listen", ":7000", "address to serve the manager API on")
		servers   = flag.Int("servers", 0, "number of in-process simulated servers (ignored with -controller)")
		cpus      = flag.Float64("cpus", 32, "simulated servers: physical CPU cores")
		memGB     = flag.Float64("mem-gb", 128, "simulated servers: physical memory (GB)")
		policy    = flag.String("policy", "best-fit", "placement policy: "+policyNames())
		seed      = flag.Int64("seed", 1, "seed for the 2-choices policy")
		heartbeat = flag.Duration("heartbeat", 10*time.Second, "failure-detector probe interval (0 disables)")
		maxMisses = flag.Int("max-misses", 3, "consecutive heartbeat misses before a node is declared dead")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		stateDir  = flag.String("state-dir", "", "directory for the durable state journal (empty = in-memory only)")
		snapEvery = flag.Int("snapshot-every", 256, "journal records between compacted snapshots")
		syncEvery = flag.Int("sync-every", 8, "journal records between batched fsyncs")
		standbyOf = flag.String("standby-of", "", "run as hot standby of this leader URL; promote on lease expiry")
		pollEvery = flag.Duration("poll-interval", 500*time.Millisecond, "standby: WAL tailing interval")
		deadAfter = flag.Int("dead-after", 6, "standby: consecutive failed polls before the leader's lease expires")
		corrobWin = flag.Duration("corroborate-window", 30*time.Second, "standby: hold promotion if any controller saw the leader's epoch asserted this recently")

		shardID     = flag.String("shard-id", "", "run as one shard of a federated control plane under this member ID")
		advertise   = flag.String("advertise", "", "federated: this shard's URL as peers reach it (default http://<listen>)")
		stateRoot   = flag.String("state-root", "", "federated: shared journal root; each shard journals under <root>/<shard-id>")
		vnodes      = flag.Int("vnodes", 0, "federated: consistent-hash virtual nodes per shard (0 = default)")
		gossipEvery = flag.Duration("gossip", 2*time.Second, "federated: shard-map gossip interval (0 disables)")
	)
	var peers urlList
	flag.Var(&controllers, "controller", "remote deflagent URL (repeatable)")
	flag.Var(&peers, "peer", "federated: peer shard as id=url (repeatable)")
	flag.Parse()

	pol, err := parsePolicy(*policy)
	if err != nil {
		log.Fatalf("deflated: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // restore default signal handling: a second ^C kills hard

	if *shardID != "" {
		ln, err := net.Listen("tcp", *listen)
		if err == nil {
			err = runFederated(ctx, ln, federatedOptions{
				advertise: *advertise, peers: peers, vnodes: *vnodes,
				gossipEvery: *gossipEvery, heartbeat: *heartbeat, drain: *drain,
				server: shard.ServerConfig{
					ID: *shardID, StateRoot: *stateRoot, Policy: pol, Seed: *seed,
					SnapshotEvery: *snapEvery, SyncEvery: *syncEvery, MaxMisses: *maxMisses,
				},
			})
		}
		if err != nil {
			log.Fatalf("deflated: %v", err)
		}
		return
	}

	var nodes []cluster.Node
	switch {
	case len(controllers) > 0:
		for _, u := range controllers {
			n, err := cluster.NewRemoteNode(u)
			if err != nil {
				log.Fatalf("deflated: %v", err)
			}
			log.Printf("deflated: connected to %s (%s)", n.Name(), u)
			nodes = append(nodes, n)
		}
	default:
		if *servers <= 0 {
			*servers = 4
		}
		for i := 0; i < *servers; i++ {
			h, err := hypervisor.NewHost(hypervisor.Config{
				Name:     fmt.Sprintf("sim-%02d", i),
				Capacity: restypes.V(*cpus, *memGB*1024, 4000, 4000),
			})
			if err != nil {
				log.Fatalf("deflated: %v", err)
			}
			nodes = append(nodes, cluster.NewLocalController(h, cascade.AllLevels(), cluster.ModeDeflation))
		}
		log.Printf("deflated: simulating %d servers (%g cores / %g GB each)", *servers, *cpus, *memGB)
	}

	// Telemetry: cascade decisions, placement and failure-detector counters,
	// RPC latencies (remote fleets), replication lag (standbys), plus
	// scrape-time cluster gauges. Served on the same listener as the API, so
	// graceful shutdown covers it.
	sink := telemetry.NewSink()

	// Fail-stop on journal write errors: a manager whose WAL has lied once
	// must stop commanding the cluster so the standby's lease expires and it
	// takes over from the last durable state.
	walErrC := make(chan error, 1)
	// The fencing token is epoch + identity: the identity breaks same-epoch
	// ties between two managers that each self-allocated the same term (a
	// crashed leader's restart racing its standby's promotion). Host plus
	// state directory uniquely names a manager instance on a fleet.
	leaderID := ""
	if *stateDir != "" {
		host, _ := os.Hostname()
		dir := *stateDir
		if abs, err := filepath.Abs(dir); err == nil {
			dir = abs
		}
		leaderID = host + ":" + dir
	}
	dur := cluster.DurabilityConfig{
		Dir: *stateDir, LeaderID: leaderID, SnapshotEvery: *snapEvery, SyncEvery: *syncEvery,
		OnWALError: func(err error) {
			select {
			case walErrC <- err:
			default:
			}
		},
	}

	// lead wires a manager into the serving stack — manager API, telemetry,
	// heartbeat failure detector — and publishes it on the /v1/ handler. It
	// runs at startup for leaders and at promotion time for standbys.
	handler := &swapHandler{}
	var leader atomic.Pointer[cluster.Manager]
	deposedC := make(chan struct{}, 1)
	lead := func(mgr *cluster.Manager, recovery *cluster.RecoveryReport) {
		mgr.SetHealthPolicy(cluster.HealthPolicy{MaxMisses: *maxMisses})
		// Stand down the moment any node fences one of our commands: a
		// stale-epoch rejection proves a newer leader owns the fleet, and a
		// deposed manager that keeps serving is a zombie acking commands the
		// cluster will never obey.
		mgr.SetOnDeposed(func() {
			select {
			case deposedC <- struct{}{}:
			default:
			}
		})
		api, err := cluster.NewManagerAPI(mgr)
		if err != nil {
			log.Fatalf("deflated: %v", err)
		}
		api.SetRecovery(recovery)
		mgr.SetTelemetry(sink)
		api.AttachTelemetry(sink)
		if j := mgr.Journal(); j != nil {
			j.SetTelemetry(sink)
			recovery.Publish(sink)
		}
		// Failure detector: heartbeat every server, evict and re-place VMs
		// from nodes that miss too many probes in a row.
		if *heartbeat > 0 {
			go runHeartbeat(ctx, *heartbeat, api.ProbeHealth, log.Default())
		}
		leader.Store(mgr)
		handler.Set(api.Handler())
	}

	switch {
	case *standbyOf != "":
		if len(controllers) == 0 {
			log.Fatalf("deflated: -standby-of requires -controller URLs (the standby adopts the leader's fleet on promotion)")
		}
		if *stateDir == "" {
			log.Fatalf("deflated: -standby-of requires -state-dir (the journal for the standby's own term)")
		}
		f, err := cluster.NewFollower(cluster.FollowerConfig{
			Leader: *standbyOf, PollInterval: *pollEvery, DeadAfter: *deadAfter,
			Controllers: controllers, CorroborationWindow: *corrobWin,
		})
		if err != nil {
			log.Fatalf("deflated: %v", err)
		}
		f.SetTelemetry(sink)
		sapi, err := cluster.NewStandbyAPI(f)
		if err != nil {
			log.Fatalf("deflated: %v", err)
		}
		handler.Set(sapi.Handler())
		go func() {
			if !f.Run(ctx) {
				return // shutting down while still a standby
			}
			st := f.Status()
			log.Printf("deflated: leader %s lease expired (%d missed polls, replica at seq %d); promoting",
				*standbyOf, st.ConsecutiveMisses, st.AppliedSeq)
			mgr, rep, err := cluster.TakeOver(dur, f.ReplicaState(), nodes, pol, *seed)
			if err != nil {
				log.Fatalf("deflated: promoting: %v", err)
			}
			log.Printf("deflated: promoted to leader at epoch %d in %v "+
				"(%d placements; repairs: %d adopted, %d replaced, %d lost, %d reasserted, %d stale)",
				mgr.Epoch(), rep.Duration.Round(time.Millisecond), rep.Placements,
				rep.Adopted, rep.Replaced, rep.Lost, rep.Reasserted, rep.StaleReleased)
			lead(mgr, rep)
		}()
		log.Printf("deflated: standby for %s on %s (polling every %v, lease %d misses)",
			*standbyOf, *listen, *pollEvery, *deadAfter)

	case *stateDir != "":
		mgr, recovery, err := cluster.TakeOver(dur, nil, nodes, pol, *seed)
		if err != nil {
			log.Fatalf("deflated: recovering from %s: %v", *stateDir, err)
		}
		log.Printf("deflated: recovered %d placements from %s at epoch %d in %v "+
			"(replayed %d records; repairs: %d adopted, %d replaced, %d lost, %d reasserted, %d stale)",
			recovery.Placements, *stateDir, mgr.Epoch(), recovery.Duration.Round(time.Millisecond),
			recovery.RecordsReplayed, recovery.Adopted, recovery.Replaced,
			recovery.Lost, recovery.Reasserted, recovery.StaleReleased)
		lead(mgr, recovery)

	default:
		mgr, err := cluster.NewManager(nodes, pol, *seed)
		if err != nil {
			log.Fatalf("deflated: %v", err)
		}
		lead(mgr, nil)
	}

	mux := http.NewServeMux()
	mux.Handle(cluster.WirePrefix, handler)
	sink.Attach(mux)

	srv := cluster.NewHTTPServer(*listen, mux)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("deflated: managing %d servers with %s placement on %s", len(nodes), pol, *listen)

	select {
	case err := <-errc:
		log.Fatalf("deflated: %v", err)
	case err := <-walErrC:
		// No drain: a poisoned journal means no command can be made durable,
		// so serving on would hand out acknowledgements the WAL cannot back.
		log.Printf("deflated: journal write failed: %v", err)
		log.Printf("deflated: failing stop so the standby can take over")
		os.Exit(1)
	case <-deposedC:
		// No drain here either: every mutating handler already refuses with
		// 503 once the manager latches deposed, and the sooner this process
		// exits the sooner a supervisor can restart it as a standby of the
		// new leader.
		log.Printf("deflated: fenced off by a newer leadership epoch; standing down")
		os.Exit(2)
	case <-ctx.Done():
		stopServing(func(ctx context.Context) error {
			err := srv.Shutdown(ctx)
			if mgr := leader.Load(); mgr != nil && mgr.Journal() != nil {
				err = errors.Join(err, mgr.Journal().Close())
			}
			return err
		}, errc, *drain)
	}
}

// stopServing drains a server: shutdown gets up to d to let in-flight
// requests finish (and to close the journals), then the serve loop's exit
// is logged.
func stopServing(shutdown func(context.Context) error, errc <-chan error, d time.Duration) {
	log.Printf("deflated: shutting down (draining for up to %v)", d)
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		log.Printf("deflated: shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("deflated: %v", err)
	}
	log.Printf("deflated: stopped")
}

// policies are the placement policies -policy accepts, by String().
var policies = []cluster.PlacementPolicy{cluster.BestFit, cluster.FirstFit, cluster.TwoChoices, cluster.WorstFit}

// parsePolicy maps a -policy name to the policy it names.
func parsePolicy(name string) (cluster.PlacementPolicy, error) {
	for _, p := range policies {
		if p.String() == name {
			return p, nil
		}
	}
	return cluster.BestFit, fmt.Errorf("unknown policy %q (want one of %s)", name, policyNames())
}

// policyNames lists the -policy names, comma-separated.
func policyNames() string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.String()
	}
	return strings.Join(names, ", ")
}

// runHeartbeat runs the failure detector's probe every interval until ctx
// ends, and logs each event a round returns as one line: kind, VM, node,
// and the error when there is one.
func runHeartbeat(ctx context.Context, every time.Duration, probe func() []cluster.Event, logger *log.Logger) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for _, ev := range probe() {
				line := fmt.Sprintf("deflated: %s vm=%s node=%s", ev.Kind, ev.VM, ev.Node)
				if ev.Err != nil {
					line += " err=" + ev.Err.Error()
				}
				logger.Print(line)
			}
		}
	}
}

// Command deflagent runs a per-server local deflation controller and
// serves it over the REST control plane (§5). A simulated host — KVM
// domains (simkvm) or cgroup containers (simcg), per -substrate — is
// created with the given capacity; the centralized manager (cmd/deflated)
// connects to the /v1 API to place VMs and reclaim resources.
//
// Usage:
//
//	deflagent -listen :7070 -name server-0 -cpus 32 -mem-gb 128
//	deflagent -listen :7073 -name cg-0 -substrate container
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/cluster"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/substrate"
	"deflation/internal/telemetry"
)

func main() {
	var (
		listen   = flag.String("listen", ":7070", "address to serve the controller API on")
		name     = flag.String("name", "server-0", "server name")
		cpus     = flag.Float64("cpus", 32, "physical CPU cores")
		memGB    = flag.Float64("mem-gb", 128, "physical memory (GB)")
		diskMBps = flag.Float64("disk-mbps", 4000, "disk bandwidth (MB/s)")
		netMBps  = flag.Float64("net-mbps", 4000, "network bandwidth (MB/s)")
		mode     = flag.String("mode", "deflation", "reclamation mode: deflation or preemption-only")
		subKind  = flag.String("substrate", "hypervisor", "virtualization substrate: hypervisor (simkvm) or container (simcg)")
		levels   = flag.String("levels", "all", "cascade levels: all, vm (os+hypervisor), hypervisor, os")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")

		register  = flag.String("register", "", "manager base URL to self-register with (federated planes ring-route the registration)")
		advertise = flag.String("advertise", "", "this agent's URL as the manager reaches it (default http://<listen>)")
		heartbeat = flag.Duration("heartbeat", 5*time.Second, "push-heartbeat base interval with -register (full-jitter so fleets de-phase; 0 disables)")
		hbSeed    = flag.Int64("heartbeat-seed", 0, "heartbeat jitter seed (0 = derive from -name)")
	)
	flag.Parse()

	capacity := restypes.V(*cpus, *memGB*1024, *diskMBps, *netMBps)
	var host substrate.Substrate
	var err error
	switch substrate.Kind(*subKind).Normalize() {
	case substrate.KindHypervisor:
		host, err = hypervisor.NewHost(hypervisor.Config{Name: *name, Capacity: capacity})
	case substrate.KindContainer:
		host, err = simcg.NewHost(simcg.Config{Name: *name, Capacity: capacity})
	default:
		log.Fatalf("deflagent: unknown substrate %q", *subKind)
	}
	if err != nil {
		log.Fatalf("deflagent: %v", err)
	}

	var lv cascade.Levels
	switch *levels {
	case "all":
		lv = cascade.AllLevels()
	case "vm":
		lv = cascade.VMLevel()
	case "hypervisor":
		lv = cascade.HypervisorOnly()
	case "os":
		lv = cascade.OSOnly()
	default:
		log.Fatalf("deflagent: unknown levels %q", *levels)
	}

	m := cluster.ModeDeflation
	if *mode == "preemption-only" {
		m = cluster.ModePreemptionOnly
	} else if *mode != "deflation" {
		log.Fatalf("deflagent: unknown mode %q", *mode)
	}

	ctrl := cluster.NewLocalController(host, lv, m)
	api, err := cluster.NewControllerAPI(ctrl)
	if err != nil {
		log.Fatalf("deflagent: %v", err)
	}

	// Telemetry: per-level cascade metrics and trace events, plus scrape-time
	// node allocation gauges. Served on the same listener as the API, so
	// graceful shutdown covers it.
	sink := telemetry.NewSink()
	ctrl.SetTelemetry(sink)
	api.AttachTelemetry(sink)
	mux := http.NewServeMux()
	mux.Handle(cluster.WirePrefix, api.Handler())
	sink.Attach(mux)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	srv := cluster.NewHTTPServer(*listen, mux)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("deflagent: serving %s (%g cores, %g GB, %s, levels %s) on %s",
		*name, *cpus, *memGB, m, lv, *listen)

	if *register != "" {
		self := *advertise
		if self == "" {
			h := *listen
			if strings.HasPrefix(h, ":") {
				h = "127.0.0.1" + h
			}
			self = "http://" + h
		}
		go runRegistration(ctx, *register, *name, self, *heartbeat, *hbSeed, api.CapacitySummary)
	}

	select {
	case err := <-errc:
		log.Fatalf("deflagent: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		log.Printf("deflagent: shutting down (draining for up to %v)", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("deflagent: drain incomplete: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("deflagent: %v", err)
		}
		log.Printf("deflagent: stopped")
	}
}

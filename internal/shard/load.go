package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deflation/internal/cascade"
	"deflation/internal/cluster"
	"deflation/internal/faults"
	"deflation/internal/hypervisor"
	"deflation/internal/interactive"
	"deflation/internal/restypes"
	"deflation/internal/telemetry"
	"deflation/internal/vm"
)

// The deflload harness: thousands of simulated node agents — each a real
// LocalController behind a real ControllerAPI — multiplexed onto ONE
// listener under /agents/<name>/v1/..., driven against real federated
// managers over HTTP. Open-loop launch/migrate arrivals (reusing the
// interactive arrival profiles), full-jitter push heartbeats, and latency
// histograms make it a load generator; per-agent partition gates plus the
// federation's Kill/Adopt make it a chaos harness. Everything it acks it
// remembers, so CheckInvariants can prove nothing acked was lost.

// LoadConfig parameterizes a load run. Zero values get sensible defaults.
type LoadConfig struct {
	// Agents is the number of simulated node agents (default 8).
	Agents int
	// AgentCPUs/AgentMemGB size each simulated host (default 16 / 64).
	AgentCPUs, AgentMemGB float64
	// Seed drives arrivals, heartbeat jitter, and migrate targets.
	Seed int64
	// HeartbeatBase is the mean heartbeat interval; each sleep is drawn
	// full-jitter over [base/2, 3·base/2) (default 250ms — compressed
	// timescale, as everything in the harness).
	HeartbeatBase time.Duration
	// ArrivalRPS is the open-loop launch rate (default 20/s).
	ArrivalRPS float64
	// Profile shapes arrivals (Steady, Diurnal, Bursty).
	Profile interactive.Profile
	// TickInterval is the real-time length of one generator tick
	// (default 100ms).
	TickInterval time.Duration
	// Faults optionally injects REST-plane faults (5xx responses) in front
	// of every agent.
	Faults *faults.Injector
}

const (
	// vmCores and vmMemMB size each launched VM.
	vmCores, vmMemMB float64 = 1, 2048
	// migrateEvery issues one migrate per this many acked launches.
	migrateEvery = 4
)

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Agents == 0 {
		c.Agents = 8
	}
	if c.AgentCPUs == 0 {
		c.AgentCPUs = 16
	}
	if c.AgentMemGB == 0 {
		c.AgentMemGB = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.HeartbeatBase == 0 {
		c.HeartbeatBase = 250 * time.Millisecond
	}
	if c.ArrivalRPS == 0 {
		c.ArrivalRPS = 20
	}
	if c.TickInterval == 0 {
		c.TickInterval = 100 * time.Millisecond
	}
	return c
}

// simAgent is one simulated node agent: a real controller served under the
// fleet listener, with a partition gate in front.
type simAgent struct {
	name string
	url  string
	ctrl *cluster.LocalController

	partitioned atomic.Bool
	registered  atomic.Bool // ack received and not since 404'd
	lastBeat    atomic.Int64
}

// Load is one harness instance: the agent fleet plus the workload driver.
type Load struct {
	cfg      LoadConfig
	managers []string // manager base URLs, tried round-robin

	ln     net.Listener
	srv    *http.Server
	agents []*simAgent
	byName map[string]*simAgent
	client *http.Client

	launchLat  *telemetry.Histogram
	migrateLat *telemetry.Histogram
	hbOK       *telemetry.Counter
	hbFail     *telemetry.Counter

	mu          sync.Mutex
	ackedVMs    []string
	counts      LoadCounts
	start       time.Time
	elapsed     time.Duration
	wg          sync.WaitGroup
	stopBeats   context.CancelFunc
	beatsCtx    context.Context
	nextManager atomic.Int64
}

// LoadCounts are the harness's raw event counts.
type LoadCounts struct {
	RegistrationsSent  int `json:"registrations_sent"`
	RegistrationsAcked int `json:"registrations_acked"`
	LaunchesSent       int `json:"launches_sent"`
	LaunchesAcked      int `json:"launches_acked"`
	LaunchesRejected   int `json:"launches_rejected"` // 409/422-style definitive refusals
	LaunchesFailed     int `json:"launches_failed"`   // transport errors, 5xx
	MigratesSent       int `json:"migrates_sent"`
	MigratesAcked      int `json:"migrates_acked"`
	MigratesFailed     int `json:"migrates_failed"`
}

// LoadReport is the harness's summary: counts, latency quantiles, and
// heartbeat fan-in totals.
type LoadReport struct {
	LoadCounts
	Elapsed        time.Duration `json:"elapsed"`
	ThroughputRPS  float64       `json:"throughput_rps"` // acked launches per second
	LaunchP50MS    float64       `json:"launch_p50_ms"`
	LaunchP99MS    float64       `json:"launch_p99_ms"`
	MigrateP50MS   float64       `json:"migrate_p50_ms"`
	MigrateP99MS   float64       `json:"migrate_p99_ms"`
	HeartbeatsOK   float64       `json:"heartbeats_ok"`
	HeartbeatsFail float64       `json:"heartbeats_fail"`
}

// NewLoad builds the agent fleet (one listener, every agent mounted under
// /agents/<name>/v1/...) aimed at the given manager base URLs. Close
// releases the listener.
func NewLoad(cfg LoadConfig, managers []string) (*Load, error) {
	cfg = cfg.withDefaults()
	if len(managers) == 0 {
		return nil, fmt.Errorf("shard: load needs at least one manager URL")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	base := "http://" + ln.Addr().String()

	reg := telemetry.NewRegistry()
	l := &Load{
		cfg:      cfg,
		managers: append([]string(nil), managers...),
		ln:       ln,
		byName:   make(map[string]*simAgent),
		client:   &http.Client{Timeout: 10 * time.Second},

		launchLat: reg.Histogram("deflload_launch_latency_ms",
			"end-to-end launch latency (ms)", latencyBucketsMS(), nil),
		migrateLat: reg.Histogram("deflload_migrate_latency_ms",
			"end-to-end migrate latency (ms)", latencyBucketsMS(), nil),
		hbOK: reg.Counter("deflload_heartbeats_ok_total",
			"agent heartbeats acknowledged", nil),
		hbFail: reg.Counter("deflload_heartbeats_fail_total",
			"agent heartbeats failed or refused", nil),
	}

	mux := http.NewServeMux()
	for i := 0; i < cfg.Agents; i++ {
		name := fmt.Sprintf("load-node-%03d", i)
		host, err := hypervisor.NewHost(hypervisor.Config{
			Name:     name,
			Capacity: restypes.V(cfg.AgentCPUs, cfg.AgentMemGB*1024, 4000, 4000),
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		ctrl := cluster.NewLocalController(host, cascade.AllLevels(), cluster.ModeDeflation)
		api, err := cluster.NewControllerAPI(ctrl)
		if err != nil {
			ln.Close()
			return nil, err
		}
		a := &simAgent{name: name, url: base + "/agents/" + name, ctrl: ctrl}
		var h http.Handler = api.Handler()
		if cfg.Faults != nil {
			h = faults.Middleware(cfg.Faults, h)
		}
		h = a.gate(h)
		mux.Handle("/agents/"+name+cluster.WirePrefix, http.StripPrefix("/agents/"+name, h))
		l.agents = append(l.agents, a)
		l.byName[name] = a
	}
	l.srv = cluster.NewHTTPServer("", mux)
	go l.srv.Serve(ln)
	return l, nil
}

// gate drops every connection while the agent is partitioned — the
// manager-side view of a network partition.
func (a *simAgent) gate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.partitioned.Load() {
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
}

// Partition cuts (or heals) one agent off from the managers.
func (l *Load) Partition(name string, cut bool) {
	if a := l.byName[name]; a != nil {
		a.partitioned.Store(cut)
	}
}

// AgentNames lists the fleet in index order.
func (l *Load) AgentNames() []string {
	out := make([]string, len(l.agents))
	for i, a := range l.agents {
		out[i] = a.name
	}
	return out
}

// manager returns a client of the next manager, round-robin so load and
// redirects spread across the federation.
func (l *Load) manager() cluster.ManagerClient {
	n := l.nextManager.Add(1)
	return cluster.ManagerClient{Base: l.managers[int(n)%len(l.managers)], HTTP: l.client}
}

// RegisterAll registers every agent with the federation (ring-routed by
// the managers; the client follows redirects). An agent counts as acked
// only after a 2xx — the manager journals before acking, so every ack is
// durable and CheckInvariants may demand it survives chaos.
func (l *Load) RegisterAll(ctx context.Context) error {
	var firstErr error
	for _, a := range l.agents {
		l.mu.Lock()
		l.counts.RegistrationsSent++
		l.mu.Unlock()
		if err := l.registerAgent(ctx, a); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		a.registered.Store(true)
		l.mu.Lock()
		l.counts.RegistrationsAcked++
		l.mu.Unlock()
	}
	return firstErr
}

func (l *Load) registerAgent(ctx context.Context, a *simAgent) error {
	req := cluster.RegisterNodeRequest{Name: a.name, URL: a.url}
	var err error
	for try := 0; try < len(l.managers); try++ {
		if _, err = l.manager().Register(ctx, req); err == nil {
			return nil
		}
	}
	return fmt.Errorf("shard: registering %s: %w", a.name, err)
}

// StartHeartbeats starts one push-heartbeat goroutine per agent with
// full-jitter pacing. A 404 means no shard knows the node (post-adoption
// window, or a hand-off raced) — the agent re-registers through the ring,
// which is the self-repair loop convergence is measured by.
func (l *Load) StartHeartbeats(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	l.beatsCtx, l.stopBeats = ctx, cancel
	for i, a := range l.agents {
		rng := rand.New(rand.NewSource(seedFor(l.cfg.Seed, a.name)))
		l.wg.Add(1)
		go func(a *simAgent, rng *rand.Rand, i int) {
			defer l.wg.Done()
			for {
				d := cluster.HeartbeatInterval(rng, l.cfg.HeartbeatBase)
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
				l.beatOnce(ctx, a)
			}
		}(a, rng, i)
	}
}

// beatOnce sends one liveness heartbeat: its summary names no agent
// instance, so the manager folds nothing into its capacity cache. When no
// shard manages the agent it re-registers.
func (l *Load) beatOnce(ctx context.Context, a *simAgent) {
	err := l.manager().Heartbeat(ctx, a.name, cluster.CapacitySummary{})
	switch {
	case err == nil:
		l.hbOK.Inc()
		a.lastBeat.Store(time.Now().UnixNano())
	case errors.Is(err, cluster.ErrNodeNotFound):
		l.hbFail.Inc()
		a.registered.Store(false)
		if err := l.registerAgent(ctx, a); err == nil {
			a.registered.Store(true)
		}
	default:
		l.hbFail.Inc()
	}
}

// StopHeartbeats stops the heartbeat goroutines and waits them out.
func (l *Load) StopHeartbeats() {
	if l.stopBeats != nil {
		l.stopBeats()
		l.wg.Wait()
		l.stopBeats = nil
	}
}

// Run drives `ticks` generator ticks of open-loop launches (plus one
// migrate per migrateEvery acks) against the federation. Open loop means
// arrivals don't wait for completions: a slow or failing-over control
// plane faces the same offered rate, which is exactly what exposes it.
func (l *Load) Run(ctx context.Context, ticks int) error {
	gen, err := interactive.NewGenerator(interactive.ArrivalConfig{
		Seed:        l.cfg.Seed,
		BaseRPS:     l.cfg.ArrivalRPS,
		Profile:     l.cfg.Profile,
		TickSeconds: l.cfg.TickInterval.Seconds(),
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seedFor(l.cfg.Seed, "driver")))
	l.mu.Lock()
	if l.start.IsZero() {
		l.start = time.Now()
	}
	l.mu.Unlock()

	var vmSeq int
	l.mu.Lock()
	vmSeq = l.counts.LaunchesSent
	l.mu.Unlock()

	t := time.NewTicker(l.cfg.TickInterval)
	defer t.Stop()
	for tick := 0; tick < ticks; tick++ {
		select {
		case <-ctx.Done():
			l.noteElapsed()
			return ctx.Err()
		case <-t.C:
		}
		n := gen.Next()
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("load-vm-%05d", vmSeq)
			vmSeq++
			l.launchOne(ctx, name)
			l.mu.Lock()
			acked := l.counts.LaunchesAcked
			migDue := acked > 0 && acked%migrateEvery == 0 && l.counts.MigratesSent < acked/migrateEvery
			l.mu.Unlock()
			if migDue {
				l.migrateOne(ctx, rng)
			}
		}
	}
	l.noteElapsed()
	return nil
}

func (l *Load) noteElapsed() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.start.IsZero() {
		l.elapsed = time.Since(l.start)
	}
}

// launchOne sends one launch and records the outcome.
func (l *Load) launchOne(ctx context.Context, name string) {
	spec := cluster.LaunchSpec{
		Name:     name,
		Size:     restypes.V(vmCores, vmMemMB, 50, 50),
		MinSize:  restypes.V(vmCores/4, vmMemMB/4, 12, 12),
		Priority: vm.LowPriority,
		AppKind:  "elastic",
	}
	l.mu.Lock()
	l.counts.LaunchesSent++
	l.mu.Unlock()

	begin := time.Now()
	_, err := l.manager().Launch(ctx, spec)
	var refused *cluster.StatusError
	if err == nil || errors.As(err, &refused) {
		l.launchLat.Observe(float64(time.Since(begin).Milliseconds()) + 0.5)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case err == nil:
		l.counts.LaunchesAcked++
		l.ackedVMs = append(l.ackedVMs, name)
	case refused != nil && refused.Code < 500:
		l.counts.LaunchesRejected++
	default:
		l.counts.LaunchesFailed++
	}
}

// migrateOne migrates a random acked VM to a random registered agent.
func (l *Load) migrateOne(ctx context.Context, rng *rand.Rand) {
	l.mu.Lock()
	if len(l.ackedVMs) == 0 {
		l.mu.Unlock()
		return
	}
	vmName := l.ackedVMs[rng.Intn(len(l.ackedVMs))]
	l.counts.MigratesSent++
	l.mu.Unlock()
	dest := l.agents[rng.Intn(len(l.agents))].name

	begin := time.Now()
	_, err := l.manager().Migrate(ctx, cluster.MigrateRequest{VM: vmName, Dest: dest})
	var refused *cluster.StatusError
	if err == nil || errors.As(err, &refused) {
		l.migrateLat.Observe(float64(time.Since(begin).Milliseconds()) + 0.5)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		l.counts.MigratesAcked++
	} else {
		l.counts.MigratesFailed++
	}
}

// AwaitConvergence waits until every acked agent has heartbeated
// successfully SINCE `after` (post-chaos proof of life through the new
// ownership), returning how long that took. It fails fast when ctx ends.
func (l *Load) AwaitConvergence(ctx context.Context, after time.Time) (time.Duration, error) {
	begin := time.Now()
	for {
		converged := true
		for _, a := range l.agents {
			if !a.registered.Load() || a.lastBeat.Load() < after.UnixNano() {
				converged = false
				break
			}
		}
		if converged {
			return time.Since(begin), nil
		}
		select {
		case <-ctx.Done():
			var lagging []string
			for _, a := range l.agents {
				if !a.registered.Load() || a.lastBeat.Load() < after.UnixNano() {
					lagging = append(lagging, a.name)
				}
			}
			return time.Since(begin), fmt.Errorf("shard: convergence timed out; lagging agents: %v", lagging)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Report summarizes the run so far.
func (l *Load) Report() LoadReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := LoadReport{
		LoadCounts:     l.counts,
		Elapsed:        l.elapsed,
		LaunchP50MS:    l.launchLat.Quantile(0.50),
		LaunchP99MS:    l.launchLat.Quantile(0.99),
		MigrateP50MS:   l.migrateLat.Quantile(0.50),
		MigrateP99MS:   l.migrateLat.Quantile(0.99),
		HeartbeatsOK:   l.hbOK.Value(),
		HeartbeatsFail: l.hbFail.Value(),
	}
	if l.elapsed > 0 {
		rep.ThroughputRPS = float64(l.counts.LaunchesAcked) / l.elapsed.Seconds()
	}
	return rep
}

// AckedVMs returns every acked launch.
func (l *Load) AckedVMs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.ackedVMs...)
}

// Close stops heartbeats and the fleet listener.
func (l *Load) Close() {
	l.StopHeartbeats()
	l.srv.Close()
}

// InvariantReport is the harness's verdict on the robustness headline: did
// chaos lose anything the control plane had acknowledged?
type InvariantReport struct {
	// ShardsSwept counts shards whose state was aggregated.
	ShardsSwept int `json:"shards_swept"`
	// NodesRegistered is the aggregated distinct registered-node count.
	NodesRegistered int `json:"nodes_registered"`
	// LostRegistrations lists acked agents missing from every shard.
	LostRegistrations []string `json:"lost_registrations,omitempty"`
	// PlacedVMs is the aggregated distinct placed-VM count.
	PlacedVMs int `json:"placed_vms"`
	// LostVMNames lists acked launches missing from every shard's placement map.
	LostVMNames []string `json:"lost_vm_names,omitempty"`
	// DoubleOwnedNodes lists nodes registered with more than one shard.
	DoubleOwnedNodes []string `json:"double_owned_nodes,omitempty"`
	// FailurePreemptions sums every shard's failure-induced preemptions —
	// the structurally-zero headline: deflation-first reclamation plus
	// fenced failover must never evict a healthy VM.
	FailurePreemptions int `json:"failure_preemptions"`
	// LostVMs sums every shard's unreplaceable failure losses.
	LostVMs int `json:"lost_vms"`
}

// Ok reports whether every invariant held.
func (r InvariantReport) Ok() bool {
	return len(r.LostRegistrations) == 0 && len(r.LostVMNames) == 0 &&
		r.FailurePreemptions == 0 && r.LostVMs == 0
}

// CheckInvariants aggregates every shard's registered fleet and placement
// map (through any live manager; redirects and ?shard= reach adopted
// shards) and verifies nothing acked was lost. Call after chaos has been
// repaired (adoption done, convergence reached): DURING a failover a dead
// shard's state is legitimately unreachable.
func (l *Load) CheckInvariants(ctx context.Context, v *View) (InvariantReport, error) {
	var rep InvariantReport
	nodesSeen := make(map[string]int)
	vmsSeen := make(map[string]bool)

	shardIDs := make([]string, 0, len(v.Map.Members))
	for _, mem := range v.Map.Members {
		shardIDs = append(shardIDs, mem.ID)
	}
	sort.Strings(shardIDs)
	for _, sid := range shardIDs {
		base := v.Map.MemberURL(v.Map.resolveAdoption(sid))
		if base == "" {
			continue
		}
		mgr := cluster.ManagerClient{Base: base, HTTP: l.client}
		nodes, err := mgr.Nodes(ctx, sid)
		if err != nil {
			continue
		}
		rep.ShardsSwept++
		for name := range nodes.Nodes {
			nodesSeen[name]++
		}
		cs, err := mgr.Cluster(ctx, sid, false)
		if err != nil {
			continue
		}
		rep.FailurePreemptions += cs.FailurePreemptions
		rep.LostVMs += cs.LostVMs
		// Placements come from /v1/state — the journal-backed map, which is
		// exactly what an ack promised to make durable.
		ms, err := mgr.State(ctx, sid)
		if err != nil {
			continue
		}
		for name := range ms.Placements {
			vmsSeen[name] = true
		}
	}

	rep.NodesRegistered = len(nodesSeen)
	rep.PlacedVMs = len(vmsSeen)
	for name, n := range nodesSeen {
		if n > 1 {
			rep.DoubleOwnedNodes = append(rep.DoubleOwnedNodes, name)
		}
	}
	sort.Strings(rep.DoubleOwnedNodes)
	for _, a := range l.agents {
		if a.registered.Load() && nodesSeen[a.name] == 0 {
			rep.LostRegistrations = append(rep.LostRegistrations, a.name)
		}
	}
	for _, name := range l.AckedVMs() {
		if !vmsSeen[name] {
			rep.LostVMNames = append(rep.LostVMNames, name)
		}
	}
	return rep, nil
}

// ProbeWrite attempts a throwaway launch DIRECTLY against one manager
// (no redirects) and reports whether it was acked. After an adoption the
// deposed shard must refuse writes — an ack here is a split-brain write,
// the thing fencing epochs exist to make structurally impossible.
func ProbeWrite(ctx context.Context, baseURL, vmName string) (acked bool, err error) {
	spec := cluster.LaunchSpec{
		Name:     vmName,
		Size:     restypes.V(0.25, 512, 10, 10),
		Priority: vm.LowPriority,
		AppKind:  "elastic",
	}
	client := &http.Client{
		Timeout: 5 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse // a redirect is a refusal, not an ack
		},
	}
	_, err = cluster.ManagerClient{Base: baseURL, HTTP: client}.Launch(ctx, spec)
	var refused *cluster.StatusError
	if errors.As(err, &refused) {
		return false, nil
	}
	return err == nil, err // unreachable = crash-stopped = certainly no ack
}

// latencyBucketsMS spans 0.5ms–~8s exponentially.
func latencyBucketsMS() []float64 { return telemetry.ExpBuckets(0.5, 1.6, 21) }

// seedFor derives a per-stream seed from the run seed and a name, so every
// agent's jitter stream is independent yet reproducible.
func seedFor(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d#%s", seed, name)
	return int64(h.Sum64())
}

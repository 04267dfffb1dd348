package cluster

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"sync"
	"time"

	"deflation/internal/telemetry"
)

// Manager high availability: a standby deflated tails the leader's WAL over
// HTTP and keeps a warm WALState replica. The leader side is one route on
// ManagerAPI (GET /v1/replica/wal?after=SEQ) serving journal.Batch — log
// records after the follower's applied sequence, or the compacted snapshot
// plus tail when the follower is behind the last compaction. The follower
// polls, applies, and measures its lag; when the leader misses enough
// consecutive polls the lease is considered expired and the standby
// promotes itself by passing the replica to TakeOver, which fences and
// reconciles against the live nodes under a bumped epoch, evicting no
// healthy workload.

// FollowerConfig parameterizes a standby's WAL tailer.
type FollowerConfig struct {
	// Leader is the leader manager's base URL (e.g. http://127.0.0.1:7070).
	Leader string
	// PollInterval is the tailing cadence (default 500ms). The replication
	// lag a failover can lose is bounded by one poll interval plus the
	// leader's unsynced tail.
	PollInterval time.Duration
	// DeadAfter is how many consecutive failed polls expire the leader's
	// lease (default 6 — with the default poll interval, a 3s lease).
	DeadAfter int
	// Controllers are the fleet's controller URLs — the corroboration path.
	// A standby that cannot reach the leader does not promote on that
	// evidence alone: an asymmetric partition (standby↔leader broken, both
	// sides still reaching controllers) would otherwise fence off a
	// perfectly healthy leader. Before promoting, the standby probes each
	// controller's healthz; if any reports the leader's epoch asserted
	// within CorroborationWindow — or no controller is reachable at all
	// (the standby itself is the isolated one) — promotion holds and
	// tailing continues. Empty disables corroboration (lease expiry alone
	// promotes, the pre-corroboration behavior).
	Controllers []string
	// CorroborationWindow is how recent a controller-observed epoch
	// assertion must be to prove the leader alive (default 30s — three
	// default manager heartbeat intervals; the leader asserts its epoch on
	// every fenced probe and command).
	CorroborationWindow time.Duration
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 6
	}
	if c.CorroborationWindow <= 0 {
		c.CorroborationWindow = 30 * time.Second
	}
	return c
}

// followerClient is the HTTP client every follower polls and probes with.
var followerClient = &http.Client{Timeout: 2 * time.Second}

// ReplicationStatus is the wire form of a standby's view of replication.
type ReplicationStatus struct {
	Leader     string `json:"leader"`
	AppliedSeq uint64 `json:"applied_seq"`
	LeaderSeq  uint64 `json:"leader_seq"`
	// Lag is LeaderSeq − AppliedSeq as of the last successful poll.
	Lag   uint64 `json:"lag"`
	Epoch uint64 `json:"epoch"`
	// Polls and Applied count successful polls and records applied.
	Polls   uint64 `json:"polls"`
	Applied uint64 `json:"records_applied"`
	// ConsecutiveMisses counts failed polls since the last success; the
	// lease expires at DeadAfter.
	ConsecutiveMisses int  `json:"consecutive_misses,omitempty"`
	LeaderDead        bool `json:"leader_dead,omitempty"`
	// PromotionsHeld counts lease expiries where the controllers
	// corroborated the leader as still alive, so the standby kept tailing
	// instead of triggering a false failover.
	PromotionsHeld uint64 `json:"promotions_held,omitempty"`
	LastError      string `json:"last_error,omitempty"`
}

// Follower tails a leader's WAL into a warm WALState replica. Safe for
// concurrent use (the poll loop and the standby's HTTP handlers share it).
type Follower struct {
	cfg FollowerConfig

	mu        sync.Mutex
	st        *WALState
	leaderSeq uint64
	epoch     uint64
	misses    int
	polls     uint64
	applied   uint64
	held      uint64
	lastErr   error
}

// NewFollower builds a follower tailing the configured leader.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Leader == "" {
		return nil, fmt.Errorf("cluster: follower needs a leader URL")
	}
	return &Follower{cfg: cfg.withDefaults(), st: NewWALState()}, nil
}

// PollOnce fetches and applies one WAL batch. A transport or decode failure
// counts one miss toward lease expiry; success resets the count.
func (f *Follower) PollOnce() error {
	f.mu.Lock()
	after := f.st.AppliedSeq
	f.mu.Unlock()

	batch, err := ManagerClient{Base: f.cfg.Leader, HTTP: followerClient}.ReplicaWAL(context.TODO(), after)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		f.misses++
		f.lastErr = fmt.Errorf("cluster: replica poll: %w", err)
		return f.lastErr
	}
	// A leader's journal only ever moves forward: an epoch or sequence
	// below what this follower has already observed means whoever answered
	// is not the leader we were replicating — typically a leader recreated
	// on a fresh state directory, whose restarted sequence numbers would
	// otherwise be silently swallowed by Apply's replay guard while the
	// replica diverged at "lag 0". Refuse the stream and surface it.
	if batch.Epoch < f.epoch || batch.Seq < f.leaderSeq {
		f.misses++
		f.lastErr = fmt.Errorf(
			"cluster: leader regressed (epoch %d→%d, seq %d→%d): refusing WAL stream from a recreated or stale leader",
			f.epoch, batch.Epoch, f.leaderSeq, batch.Seq)
		return f.lastErr
	}
	st, err := replay(f.st, batch)
	if err != nil {
		f.misses++
		f.lastErr = err
		return err
	}
	f.st = st
	f.applied += uint64(len(batch.Records))
	f.leaderSeq = batch.Seq
	f.epoch = batch.Epoch
	f.misses = 0
	f.polls++
	f.lastErr = nil
	return nil
}

// LeaderDead reports whether consecutive poll failures have expired the
// leader's lease.
func (f *Follower) LeaderDead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.misses >= f.cfg.DeadAfter
}

// leaderCorroborated consults the second path — the fleet's controllers —
// before the standby acts on an expired lease. It returns true (hold the
// promotion) when any reachable controller reports the replicated epoch,
// or a newer one, asserted within the corroboration window: the leader is
// alive and commanding on some network path even though this standby
// cannot reach it, and promoting would fence off a healthy leader. It also
// returns true when no controller answers at all — a standby partitioned
// from the whole fleet has no one to adopt and must not claim leadership
// on zero evidence. With no controllers configured it returns false, so
// lease expiry alone decides (the standalone-follower behavior).
func (f *Follower) leaderCorroborated() bool {
	if len(f.cfg.Controllers) == 0 {
		return false
	}
	f.mu.Lock()
	epoch := f.epoch
	f.mu.Unlock()
	reachable := false
	for _, u := range f.cfg.Controllers {
		hz, err := probeHealthz(followerClient, u, f.cfg.PollInterval+2*time.Second)
		if err != nil {
			continue
		}
		reachable = true
		if epoch > 0 && hz.FencedEpoch >= epoch &&
			hz.EpochAgeSeconds <= f.cfg.CorroborationWindow.Seconds() {
			return true
		}
	}
	return !reachable
}

// Status returns the standby's replication view.
func (f *Follower) Status() ReplicationStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := ReplicationStatus{
		Leader:            f.cfg.Leader,
		AppliedSeq:        f.st.AppliedSeq,
		LeaderSeq:         f.leaderSeq,
		Epoch:             f.epoch,
		Polls:             f.polls,
		Applied:           f.applied,
		ConsecutiveMisses: f.misses,
		LeaderDead:        f.misses >= f.cfg.DeadAfter,
		PromotionsHeld:    f.held,
	}
	if f.leaderSeq > f.st.AppliedSeq {
		st.Lag = f.leaderSeq - f.st.AppliedSeq
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	return st
}

// ReplicaState returns a copy of the warm replica: callers promote with it
// (TakeOver makes it the new manager's state), after which the follower
// must not be polled again. The follower keeps its own, so its status and
// state endpoints stay readable while the promoted manager runs.
func (f *Follower) ReplicaState() *WALState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return &WALState{AppliedSeq: f.st.AppliedSeq, Epoch: f.st.Epoch,
		Placements: maps.Clone(f.st.Placements), Specs: maps.Clone(f.st.Specs),
		Dead: maps.Clone(f.st.Dead), Nodes: maps.Clone(f.st.Nodes),
		Migrating: maps.Clone(f.st.Migrating), Counts: f.st.Counts}
}

// Placements returns a copy of the replica's placement map, safe to read
// while the poll loop keeps applying.
func (f *Follower) Placements() map[string]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return maps.Clone(f.st.Placements)
}

// Run polls until ctx is done or the leader's lease expires uncorroborated;
// it returns true when the lease expired and no controller vouched for the
// leader (the caller should promote) and false on context cancellation.
// While controllers corroborate the leader as alive — an asymmetric
// partition between standby and leader — the standby keeps tailing via
// whatever polls get through and counts the held promotion instead of
// triggering a false failover.
func (f *Follower) Run(ctx context.Context) bool {
	t := time.NewTicker(f.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			f.PollOnce()
			if f.LeaderDead() {
				if f.leaderCorroborated() {
					f.mu.Lock()
					f.held++
					f.mu.Unlock()
					continue
				}
				return true
			}
		}
	}
}

// SetTelemetry registers the standby's replication gauges: applied/leader
// sequence, lag, poll counters, and lease state.
func (f *Follower) SetTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		return
	}
	r := sink.Registry
	stat := func(name, help string, read func(ReplicationStatus) float64) {
		r.GaugeFunc(name, help, nil, func() float64 { return read(f.Status()) })
	}
	stat("deflation_replica_applied_seq", "last WAL sequence applied to the warm replica",
		func(s ReplicationStatus) float64 { return float64(s.AppliedSeq) })
	stat("deflation_replica_leader_seq", "leader WAL sequence at the last successful poll",
		func(s ReplicationStatus) float64 { return float64(s.LeaderSeq) })
	stat("deflation_replica_lag_records", "replication lag in WAL records",
		func(s ReplicationStatus) float64 { return float64(s.Lag) })
	stat("deflation_replica_polls", "successful replica polls",
		func(s ReplicationStatus) float64 { return float64(s.Polls) })
	stat("deflation_replica_consecutive_misses", "failed polls since the last success",
		func(s ReplicationStatus) float64 { return float64(s.ConsecutiveMisses) })
}

// StandbyAPI is the HTTP surface a standby serves while tailing: a
// liveness probe and a /v1/state reporting role, replication status, and
// the warm replica's placements. After promotion the daemon swaps this
// handler for the full ManagerAPI.
type StandbyAPI struct {
	f *Follower
}

// NewStandbyAPI wraps a follower.
func NewStandbyAPI(f *Follower) (*StandbyAPI, error) {
	if f == nil {
		return nil, fmt.Errorf("cluster: nil follower")
	}
	return &StandbyAPI{f: f}, nil
}

// Handler returns the standby's routes (GET /v1/healthz, GET /v1/state).
func (a *StandbyAPI) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(opHealthz.pattern(), func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": RoleStandby})
	})
	mux.HandleFunc(stateRoute.Pattern(), func(w http.ResponseWriter, _ *http.Request) {
		status := a.f.Status()
		resp := ManagerStateResponse{
			Role:        RoleStandby,
			Epoch:       status.Epoch,
			Placements:  a.f.Placements(),
			Replication: &status,
		}
		resp.VMs = len(resp.Placements)
		writeJSON(w, http.StatusOK, resp)
	})
	return mux
}

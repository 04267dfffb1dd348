package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"deflation/internal/journal"
	"deflation/internal/telemetry"
	"deflation/internal/vm"
)

// This file is the manager's state and its durability layer. The state is
// one WALState, the fold of the manager's events: every placement, priority
// and failure-detector transition is an Event that emit applies to it and
// records through a Recorder into an append-only journal
// (internal/journal), periodically compacted into a snapshot of the fold.
// TakeOver rebuilds the fold by replay, then fences, then runs an
// anti-entropy reconciliation pass against each live node's VM inventory.
// The Recorder is nil by default: a manager without a state dir pays
// nothing.

// EventKind names one manager state transition: the journal's record type
// and the manager's one event vocabulary. The set is append-only so old
// journals stay replayable.
type EventKind string

const (
	evLaunch  EventKind = "launch"  // user-facing placement (Spec, Node, Preempted)
	evReject  EventKind = "reject"  // launch found no feasible server
	evRelease EventKind = "release" // normal end of life
	evPreempt EventKind = "preempt" // capacity preemption observed out-of-band

	// Failure-detector outcomes, returned by ProbeHealth and AddNode.
	NodeDown        EventKind = "node-down" // K consecutive heartbeat misses; the node's VMs are evacuated
	NodeUp          EventKind = "node-up"   // a dead node answered and rejoined the placement pool
	VMEvicted       EventKind = "evict"     // VM declared lost-in-place on a dead node
	VMReplaced      EventKind = "replace"   // evicted VM re-placed (Spec, new Node, Preempted)
	VMLost          EventKind = "lost"      // evicted VM no healthy node could host (Err)
	VMAdopted       EventKind = "adopt"     // VM found on a node, adopted into the placement
	VMStaleReleased EventKind = "stale"     // stale VM copy released from a rejoined node

	// Migration events. The intent journals before any state moves and the
	// placement changes only at migrate-done, so a crash at any point
	// between them recovers with the VM still placed on its source; the
	// reconciliation pass resolves the in-flight entry by asking the
	// destination whether the copy completed.
	evMigrateStart EventKind = "migrate-start" // migration intent (From → Node)
	evMigrateDone  EventKind = "migrate-done"  // switchover complete; placement moves
	evMigrateFail  EventKind = "migrate-fail"  // rolled back to the source

	// evLeader journals a leadership assumption. The record carries no
	// event payload beyond its kind; the new term's fencing epoch rides in
	// the record's Epoch field (stamped on every record), so replicas and
	// replay learn the term change the moment the record lands.
	evLeader EventKind = "leader"

	// Dynamic fleet membership. evNodeAdd journals a node registration
	// (Node + URL) so a recovery — or a peer adopting this shard's journal —
	// can re-dial the same agents the dead manager was serving. No manager
	// writes evNodeRemove any more, but journals that earlier builds wrote
	// hold it: replay still applies such a hand-off to another manager,
	// dropping the node and every placement on it WITHOUT releasing
	// anything, since the node and its VMs lived on under the new owner.
	evNodeAdd    EventKind = "node-add"
	evNodeRemove EventKind = "node-remove"

	// evReassert journals the anti-entropy pass taking a VM's size and
	// minimum from its node's ground truth (Spec). No count moves.
	evReassert EventKind = "reassert"
)

// Event is one manager state transition, JSON-serializable as a journal
// record. Spec omits NewApp (functions do not serialize); remote and
// AppKind-based launches replay fully, local closures replay as placements
// without a relaunchable app (re-placement then falls back to registered
// kinds).
type Event struct {
	Kind      EventKind   `json:"kind"`
	VM        string      `json:"vm,omitempty"`
	Node      string      `json:"node,omitempty"`
	Spec      *LaunchSpec `json:"spec,omitempty"`
	Preempted []string    `json:"preempted,omitempty"`
	// From is the source node of a migration event (Node is the
	// destination).
	From string `json:"from,omitempty"`
	// URL is the node's control endpoint (node-add events only).
	URL string `json:"url,omitempty"`
	// Err is why a node went down or a VM was lost. It is not journaled.
	Err error `json:"-"`
}

// Recorder receives every manager state transition. Implementations must
// not call back into the manager, nor retain the event's Spec (see emit). A
// nil recorder on the manager disables recording entirely.
type Recorder interface {
	Record(Event)
}

// emit is the manager's one event path: it folds e into the manager's
// state (WALState.apply), records it, shows it to the subscriber, bumps its
// kind's telemetry counter, and returns it. The fold comes first, so a
// snapshot the recorder takes on e already holds it. Neither the recorder
// nor the subscriber may retain e.Spec: an evLaunch's points at the
// manager's launched slot, which the next launch overwrites.
func (m *Manager) emit(e Event) Event {
	m.fold.apply(&e, m.epoch, &m.fleetView)
	if m.rec != nil {
		m.rec.Record(e)
	}
	if m.sub != nil {
		m.sub(e)
	}
	if m.tel != nil {
		if c := m.tel.events[e.Kind]; c != nil {
			c.Inc()
		}
	}
	return e
}

// Counts are the per-kind event counts, folded by WALState.apply.
type Counts struct {
	Rejected           int `json:"rejected,omitempty"`
	FailurePreemptions int `json:"failure_preemptions,omitempty"` // evictions
	Replaced           int `json:"replaced,omitempty"`
	Lost               int `json:"lost,omitempty"`
	Adopted            int `json:"adopted,omitempty"`
	StaleReleased      int `json:"stale_released,omitempty"`
	Migrations         int `json:"migrations,omitempty"`
	MigrationFailures  int `json:"migration_failures,omitempty"`
}

// add counts one event of kind k; kinds without a count are ignored.
func (c *Counts) add(k EventKind) {
	switch k {
	case evReject:
		c.Rejected++
	case VMEvicted:
		c.FailurePreemptions++
	case VMReplaced:
		c.Replaced++
	case VMLost:
		c.Lost++
	case VMAdopted:
		c.Adopted++
	case VMStaleReleased:
		c.StaleReleased++
	case evMigrateDone:
		c.Migrations++
	case evMigrateFail:
		c.MigrationFailures++
	}
}

// WALState is the manager's state: the fold of its event stream. The live
// manager holds one and changes it only by emitting events (emit applies
// each); journal replay rebuilds the same fold from the records, and a
// snapshot is its JSON. Placements reference servers by name, not index, so
// a fleet can be re-declared in a different order across restarts. In
// process a spec keeps its NewApp, which JSON drops.
type WALState struct {
	// AppliedSeq is the last journal sequence folded into this state.
	// Apply is idempotent through it: records at or below it are no-ops,
	// so double-replay equals single-replay.
	AppliedSeq uint64 `json:"applied_seq"`
	// Epoch is the highest leadership fencing epoch seen across applied
	// records — the term of the leader whose WAL this state mirrors.
	Epoch      uint64                `json:"epoch,omitempty"`
	Placements map[string]string     `json:"placements,omitempty"` // VM → node name
	Specs      map[string]LaunchSpec `json:"specs,omitempty"`
	Dead       map[string]bool       `json:"dead,omitempty"` // nodes marked dead

	// Nodes holds dynamically registered agents (name → control URL), so a
	// recovery — or a peer adopting this journal — can re-dial the same
	// fleet the recorded manager was serving. Statically configured servers
	// never appear here.
	Nodes map[string]string `json:"nodes,omitempty"`

	// Migrating holds in-flight migrations: intents journaled (or
	// snapshotted) without a matching done/fail event. Recovery resolves
	// each by asking the destination whether the copy completed.
	Migrating map[string]MigrationIntent `json:"migrating,omitempty"`

	Counts
}

// MigrationIntent is one journaled in-flight migration: source and
// destination node names.
type MigrationIntent struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// NewWALState returns an empty state ready for replay.
func NewWALState() *WALState {
	return &WALState{
		Placements: make(map[string]string),
		Specs:      make(map[string]LaunchSpec),
		Dead:       make(map[string]bool),
		Nodes:      make(map[string]string),
		Migrating:  make(map[string]MigrationIntent),
	}
}

// Apply folds one journal record into the state: it decodes the event and
// applies it. It is idempotent and crash-point-insensitive: records already
// covered by AppliedSeq are skipped, unknown kinds are ignored (forward
// compatibility), and every transition maps to a set/delete so replaying
// any prefix of the log yields a consistent state.
func (s *WALState) Apply(rec journal.Record) error {
	if rec.Seq <= s.AppliedSeq {
		return nil
	}
	var e Event
	if err := json.Unmarshal(rec.Data, &e); err != nil {
		return fmt.Errorf("cluster: replaying record %d: %w", rec.Seq, err)
	}
	s.apply(&e, rec.Epoch, nil)
	s.AppliedSeq = rec.Seq
	return nil
}

// apply folds one event into the state, recorded under epoch. It is the one
// writer of the fold's maps, for the live manager (emit) and for replay
// (Apply) alike, and fleet, the live manager's index view (nil in replay),
// has its dead flags written here and nowhere else. Every placement has a
// spec and every spec a placement after each event the manager emits: an
// eviction drops both, and the replace event that may follow carries the
// spec again.
func (s *WALState) apply(e *Event, epoch uint64, fleet *fleetView) {
	if epoch > s.Epoch {
		s.Epoch = epoch
	}
	s.Counts.add(e.Kind)
	switch e.Kind {
	case evLeader:
		// Leadership assumption: no placement change; the epoch bump above
		// is the whole transition.
	case evLaunch, VMReplaced, VMAdopted:
		s.Placements[e.VM] = e.Node
		if e.Spec != nil {
			s.Specs[e.VM] = *e.Spec
		}
		for _, name := range e.Preempted {
			delete(s.Placements, name)
			delete(s.Specs, name)
		}
	case evReassert:
		if e.Spec != nil {
			s.Specs[e.VM] = *e.Spec
		}
	case evRelease, evPreempt, VMEvicted, VMLost:
		delete(s.Placements, e.VM)
		delete(s.Specs, e.VM)
	case NodeDown:
		s.Dead[e.Node] = true
		fleet.setDead(e.Node, true)
	case NodeUp:
		delete(s.Dead, e.Node)
		fleet.setDead(e.Node, false)
	case evNodeAdd:
		if s.Nodes == nil {
			s.Nodes = make(map[string]string)
		}
		s.Nodes[e.Node] = e.URL
	case evNodeRemove:
		delete(s.Nodes, e.Node)
		delete(s.Dead, e.Node)
		fleet.setDead(e.Node, false)
		// A hand-off takes the node's placements with it (the new owner
		// adopts them from the node's inventory); nothing is released.
		for vmName, node := range s.Placements {
			if node == e.Node {
				delete(s.Placements, vmName)
				delete(s.Specs, vmName)
			}
		}
	case evMigrateStart:
		if s.Migrating == nil {
			s.Migrating = make(map[string]MigrationIntent)
		}
		s.Migrating[e.VM] = MigrationIntent{From: e.From, To: e.Node}
	case evMigrateDone:
		delete(s.Migrating, e.VM)
		s.Placements[e.VM] = e.Node
	case evMigrateFail:
		delete(s.Migrating, e.VM)
	}
}

// fleetView is the live manager's index over the fleet its fold names by
// node: each server's position by name, kept by the constructor and
// AddNode, and each server's health, whose dead flag WALState.apply keeps
// equal to the fold's Dead for alive(i) to read at every placement-index
// leaf.
type fleetView struct {
	index  map[string]int
	health []nodeHealth
}

// setDead marks the named server dead or alive; a nil view, or a node the
// fleet does not hold, is left alone.
func (v *fleetView) setDead(node string, dead bool) {
	if v == nil {
		return
	}
	if i, ok := v.index[node]; ok {
		v.health[i].dead = dead
	}
}

// durableRecorder appends every transition to a journal and compacts a
// snapshot every SnapshotEvery records. It runs on the manager's goroutine
// (all manager access serializes through the API mutex), so reading manager
// state for the snapshot is safe.
//
// A failed append is fail-stop, not best-effort: the journal poisons itself
// (refusing further writes), the error is surfaced through Manager.WALError
// and the onErr callback, and the manager is expected to stand down — a
// leader that keeps mutating the cluster while its WAL silently drops
// records would diverge from what its standby (or its own recovery)
// reconstructs.
type durableRecorder struct {
	m         *Manager
	j         *journal.Journal
	every     int
	sinceSnap int
	onErr     func(error) // invoked once, on the first append/snapshot failure
	failed    bool
}

func (r *durableRecorder) Record(e Event) {
	if r.failed {
		return
	}
	if _, err := r.j.Append(string(e.Kind), e); err != nil {
		r.fail(err)
		return
	}
	r.sinceSnap++
	if r.sinceSnap >= r.every {
		r.snapshot()
	}
}

func (r *durableRecorder) fail(err error) {
	if r.failed {
		return
	}
	r.failed = true
	r.m.walErr = err
	if r.onErr != nil {
		r.onErr(err)
	}
}

// snapshot compacts the manager's fold, stamped with the journal's
// position.
func (r *durableRecorder) snapshot() {
	st := *r.m.fold
	st.AppliedSeq = r.j.Seq()
	err := r.j.Snapshot(&st)
	switch {
	case err == nil:
		r.sinceSnap = 0
	case errors.Is(err, journal.ErrPoisoned):
		r.fail(err)
	}
}

// DurabilityConfig parameterizes the manager's journal.
type DurabilityConfig struct {
	// Dir is the state directory holding journal.log and snapshot.json.
	Dir string
	// LeaderID is this manager's identity, stamped with the epoch on every
	// fenced RPC so controllers can break same-epoch ties (two managers
	// that each self-allocated the same term). Empty keeps the legacy
	// epoch-only token.
	LeaderID string
	// SnapshotEvery compacts a snapshot after this many journal records
	// (default 256).
	SnapshotEvery int
	// SyncEvery batches journal fsyncs (default journal.Options's 8).
	SyncEvery int
	// FailOp, when non-nil, injects disk faults into the journal (see
	// journal.Options.FailOp). Used by chaos sims and smoke tests.
	FailOp func(op string) error
	// DialNode, when non-nil, reconnects dynamically registered agents
	// (journaled node-add events) that are absent from the static fleet:
	// TakeOver calls it for each journaled name/URL before it indexes the
	// fleet, so an adopting peer reaches the dead shard's agents. The
	// dialer must NOT require the agent to be reachable — an agent that is
	// briefly partitioned keeps its placements until the failure detector
	// decides, exactly as Placed() does. NewRemoteNodeNamed qualifies.
	DialNode func(name, url string) (Node, error)
	// OnWALError is invoked once when a journal write fails and the
	// recorder fail-stops. The manager should stand down as leader; the
	// daemon exits so a standby (or supervisor) takes over.
	OnWALError func(error)
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 256
	}
	return c
}

// RecoveryReport summarizes one TakeOver: what was replayed and what the
// anti-entropy pass had to repair.
type RecoveryReport struct {
	SnapshotSeq     uint64 `json:"snapshot_seq"`
	LastSeq         uint64 `json:"last_seq"`
	RecordsReplayed int    `json:"records_replayed"`
	TornTail        bool   `json:"torn_tail,omitempty"`
	// Placements is the recovered placement count after reconciliation.
	Placements int `json:"placements"`
	// Reconciliation repairs by kind: Adopted VMs ran on a node without a
	// journal entry; Replaced/Lost were journaled but gone from their node
	// (re-placed via the evacuation path, or unplaceable); Reasserted specs
	// diverged from the node's ground-truth allocation; StaleReleased
	// copies were journaled on a different node than the one running them.
	Adopted       int `json:"adopted"`
	Replaced      int `json:"replaced"`
	Lost          int `json:"lost"`
	Reasserted    int `json:"reasserted"`
	StaleReleased int `json:"stale_released"`
	// MigrationsResolved/MigrationsRolledBack settle migrations that were
	// in flight at crash time: resolved means the destination held the
	// copy (the move is adopted), rolled back means the VM stayed on its
	// source.
	MigrationsResolved   int           `json:"migrations_resolved"`
	MigrationsRolledBack int           `json:"migrations_rolled_back"`
	Duration             time.Duration `json:"duration_ns"`
}

// Publish registers the recovery outcome in a telemetry sink: repairs by
// kind, replayed record count, and recovery duration.
func (rep *RecoveryReport) Publish(sink *telemetry.Sink) {
	if rep == nil || sink == nil {
		return
	}
	r := sink.Registry
	for kind, n := range map[string]int{
		"adopted":        rep.Adopted,
		"replaced":       rep.Replaced,
		"lost":           rep.Lost,
		"reasserted":     rep.Reasserted,
		"stale-released": rep.StaleReleased,
	} {
		r.Counter("deflation_recovery_repairs_total",
			"anti-entropy reconciliation repairs during manager recovery",
			telemetry.Labels{"kind": kind}).Add(float64(n))
	}
	r.Gauge("deflation_recovery_records_replayed",
		"journal records replayed by the last recovery", nil).Set(float64(rep.RecordsReplayed))
	r.Gauge("deflation_recovery_duration_seconds",
		"wall-clock duration of the last recovery (replay + reconciliation)", nil).Set(rep.Duration.Seconds())
}

// InventoryNode is implemented by nodes that can enumerate the VMs they
// actually run — the ground truth the anti-entropy pass reconciles against.
// LocalController and RemoteNode both implement it; nodes that cannot are
// skipped by reconciliation.
type InventoryNode interface {
	Inventory() ([]VMState, error)
}

var errNoInventory = errors.New("cluster: node does not expose a VM inventory")

func nodeInventory(n Node) ([]VMState, error) {
	inv, ok := capability[InventoryNode](n)
	if !ok {
		return nil, errNoInventory
	}
	return inv.Inventory()
}

// specFromVMState reconstructs a launch spec from a node's ground-truth VM
// state, used when adopting VMs the journal does not know. The app kind is
// the VM's own app name when registered, else the generic elastic/inelastic
// kind for its priority.
func specFromVMState(vs VMState) LaunchSpec {
	spec := LaunchSpec{Name: vs.Name, Size: vs.Size, MinSize: vs.MinSize, Warm: true,
		Substrate: vs.Substrate}
	if vs.Priority == vm.HighPriority.String() {
		spec.Priority = vm.HighPriority
	}
	if _, err := AppKind(vs.App); err == nil {
		spec.AppKind = vs.App
	} else if spec.Priority == vm.HighPriority {
		spec.AppKind = "inelastic"
	} else {
		spec.AppKind = "elastic"
	}
	return spec
}

// replay folds a journal batch into st and returns the result. A batch that
// carries a snapshot replaces st with it (the position st held was
// compacted away), and its records apply on top. Every journal reader
// rebuilds state through it: a takeover replaying its own directory, a
// follower tailing a leader, and the simulator's zero-lag standby.
func replay(st *WALState, b journal.Batch) (*WALState, error) {
	if b.Snapshot != nil {
		st = NewWALState()
		if err := json.Unmarshal(b.Snapshot, st); err != nil {
			return nil, fmt.Errorf("cluster: decoding snapshot: %w", err)
		}
		st.AppliedSeq = max(st.AppliedSeq, b.SnapshotSeq)
	}
	for _, rec := range b.Records {
		if err := st.Apply(rec); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// TakeOver makes a new manager the acting leader of a fleet. A non-nil
// replica is a standby's tailed WAL state, which becomes the new manager's
// state (the caller must not use it again), and cfg.Dir is the new term's
// own journal. A nil replica replays the journal in cfg.Dir instead: a
// restart, a first boot (an empty directory recovers to an empty state),
// or a peer adopting a dead shard's directory. Every takeover then runs
// the same sequence:
//
//  1. re-dial the agents the state journaled (DurabilityConfig.DialNode)
//     and make the state a fresh manager's fold;
//  2. start a new term under cfg.LeaderID: the epoch moves strictly past
//     the state's, the journal's and the highest any reachable node has
//     obeyed, and a fencing sweep raises every reachable node's guard to it;
//  3. reconcile against each live node's inventory under that epoch: VMs
//     journaled but gone are re-placed via the evacuation path, VMs running
//     unjournaled are adopted, diverged allocations are re-asserted from the
//     node's ground truth, stale copies are released, and in-flight
//     migrations are settled by asking the destination;
//  4. attach the journal, journal the leadership record, and compact
//     everything into a fresh snapshot so the next takeover starts warm.
//
// Fencing comes before reconciliation, so a deposed or merely partitioned
// leader is refused from the first repair RPC on, and every repair carries
// the new term. Healthy workloads are never evicted. cfg.LeaderID must name
// this process, never the previous leader: identity breaks same-epoch ties.
func TakeOver(cfg DurabilityConfig, replica *WALState, servers []Node, policy PlacementPolicy, seed int64) (*Manager, *RecoveryReport, error) {
	return takeOver(cfg, replica, servers, policy, seed, nil)
}

// takeOver is TakeOver with the placement index's test seam installed
// before reconciliation re-places anything (see Manager.queried).
func takeOver(cfg DurabilityConfig, replica *WALState, servers []Node, policy PlacementPolicy, seed int64, queried queryHook) (*Manager, *RecoveryReport, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	j, err := journal.Open(cfg.Dir, journal.Options{SyncEvery: cfg.SyncEvery, FailOp: cfg.FailOp})
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{}
	st := replica
	if st == nil {
		js := j.Stats()
		*rep = RecoveryReport{SnapshotSeq: js.SnapshotSeq, LastSeq: js.Seq,
			RecordsReplayed: len(j.Tail()), TornTail: js.TornTail}
		st, err = replay(NewWALState(), journal.Batch{
			SnapshotSeq: js.SnapshotSeq, Snapshot: j.SnapshotData(), Records: j.Tail()})
		if err != nil {
			return nil, nil, errors.Join(err, j.Close())
		}
	} else {
		rep.LastSeq = st.AppliedSeq // replayed while tailing
	}

	m := newManager(dialJournaledNodes(cfg, st, servers), policy, seed, queried)
	m.installWALState(st)
	m.journal = j
	if cfg.LeaderID != "" {
		m.SetIdentity(cfg.LeaderID)
	}
	m.SetEpoch(max(st.Epoch, j.Epoch(), m.clusterFencedEpoch()) + 1)
	m.fenceAll()
	m.reconcileAll(rep)

	rec := &durableRecorder{m: m, j: j, every: cfg.SnapshotEvery, onErr: cfg.OnWALError}
	m.rec = rec
	m.emit(Event{Kind: evLeader})
	rec.snapshot()

	rep.Placements = len(m.fold.Placements)
	rep.Duration = time.Since(start)
	return m, rep, nil
}

// dialJournaledNodes reconnects dynamically registered agents the journal
// knows but the static fleet does not (see DurabilityConfig.DialNode). It
// runs before the fleet is indexed: otherwise their VMs would look orphaned
// and be re-placed, a healthy-VM eviction. Dial failures leave the node
// out; its placements orphan and re-place.
func dialJournaledNodes(cfg DurabilityConfig, st *WALState, servers []Node) []Node {
	if cfg.DialNode == nil || len(st.Nodes) == 0 {
		return servers
	}
	have := make(map[string]bool, len(servers))
	for _, s := range servers {
		have[s.Name()] = true
	}
	names := make([]string, 0, len(st.Nodes))
	for name := range st.Nodes {
		if !have[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		n, err := cfg.DialNode(name, st.Nodes[name])
		if err != nil {
			continue
		}
		servers = append(servers, n)
	}
	return servers
}

// installWALState makes a replayed fold the manager's state and builds the
// index views over it. Placements naming servers absent from the fleet are
// orphans, re-placed by the reconciliation pass.
func (m *Manager) installWALState(st *WALState) {
	m.fold = st
	m.indexFleet()
	m.epoch = st.Epoch
}

// reconcileAll is the anti-entropy pass: every live node's inventory is
// compared against the journaled view and divergence is repaired.
func (m *Manager) reconcileAll(rep *RecoveryReport) {
	// In-flight migrations first, so placements are settled before the
	// generic inventory sweep: the destination's inventory is ground truth
	// for whether the switchover completed before the crash.
	m.resolveRecoveryMigrations(rep)

	// VMs journaled on servers no longer in the fleet: re-place them.
	var orphans []string
	for name, node := range m.fold.Placements {
		if _, ok := m.index[node]; !ok {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		m.repairReplace(name, m.fold.Placements[name], rep)
	}

	for i, s := range m.servers {
		if m.health[i].dead {
			continue // will reconcile on rejoin, via ProbeHealth
		}
		inv, err := nodeInventory(s)
		if err != nil {
			// Unreachable (or inventory-less): keep the journaled view; the
			// failure detector decides, exactly as Placed() does.
			continue
		}
		node := s.Name()
		onNode := make(map[string]VMState, len(inv))
		for _, vs := range inv {
			onNode[vs.Name] = vs
		}

		// Journal → node: VMs we place here that the node no longer runs.
		for _, name := range m.vmsOn(node) {
			if _, ok := onNode[name]; !ok {
				m.repairReplace(name, node, rep)
			}
		}

		// Node → journal: adopt unknown VMs, re-assert diverged specs,
		// release stale copies of VMs placed elsewhere.
		for _, name := range slices.Sorted(maps.Keys(onNode)) {
			vs := onNode[name]
			on, ok := m.fold.Placements[name]
			switch {
			case !ok:
				spec := specFromVMState(vs)
				m.emit(Event{Kind: VMAdopted, VM: name, Node: node, Spec: &spec})
				rep.Adopted++
			case on == node:
				if spec := m.fold.Specs[name]; spec.Size != vs.Size || spec.MinSize != vs.MinSize {
					// The node's allocation is ground truth.
					spec.Size = vs.Size
					spec.MinSize = vs.MinSize
					m.emit(Event{Kind: evReassert, VM: name, Node: node, Spec: &spec})
					rep.Reasserted++
				}
			default:
				// Journaled elsewhere: this copy is stale (the VM was
				// re-placed while the journal entry for this node was lost).
				if err := s.Release(name); err == nil {
					m.emit(Event{Kind: VMStaleReleased, VM: name, Node: node})
					rep.StaleReleased++
				}
			}
		}
	}
}

// resolveRecoveryMigrations settles migrations that were in flight when the
// manager died (the fold's Migrating). The switchover's last step on the
// data plane is restoring the VM on the destination, so the destination's
// Has answer decides:
//   - destination has the VM → the migration completed; the placement moves
//     there and any stale source copy is released;
//   - destination does not have it → rollback; the VM keeps its journaled
//     (source) placement untouched.
//
// An unreachable destination keeps the journaled view — exactly as Placed()
// does — and the failure detector decides later.
func (m *Manager) resolveRecoveryMigrations(rep *RecoveryReport) {
	for _, name := range slices.Sorted(maps.Keys(m.fold.Migrating)) {
		intent := m.fold.Migrating[name]
		moved := Event{Kind: evMigrateFail, VM: name, Node: intent.To, From: intent.From}
		dstIdx, ok := m.index[intent.To]
		if ok = ok && !m.health[dstIdx].dead; ok {
			has, err := m.servers[dstIdx].Has(name)
			ok = err == nil && has
		}
		if !ok {
			// Rolled back (or undecidable): the journaled source placement
			// stands.
			rep.MigrationsRolledBack++
			m.emit(moved)
			continue
		}
		// Completed before the crash: adopt the move.
		if srcIdx, ok := m.index[intent.From]; ok && !m.health[srcIdx].dead {
			if stale, err := m.servers[srcIdx].Has(name); err == nil && stale {
				if err := m.servers[srcIdx].Release(name); err == nil {
					m.emit(Event{Kind: VMStaleReleased, VM: name, Node: intent.From})
					rep.StaleReleased++
				}
			}
		}
		moved.Kind = evMigrateDone
		m.emit(moved)
		rep.MigrationsResolved++
	}
	// Like the other reconciliation repairs, the resolution is settled by
	// the fresh snapshot TakeOver writes: its events reach no journal.
}

// repairReplace re-places VM name, which the journal placed on node but no
// node runs, via the path evacuation uses, and counts the outcome in rep.
// It is a failure-induced preemption: the VM did die, just while the
// manager was down.
func (m *Manager) repairReplace(name, node string, rep *RecoveryReport) {
	if events := m.replace(name, node, nil); events[1].Kind == VMLost {
		rep.Lost++
	} else {
		rep.Replaced++
	}
}

// Journal returns the attached journal (nil when the manager is not
// durable).
func (m *Manager) Journal() *journal.Journal { return m.journal }

// AttachJournal starts recording this manager's transitions into j,
// snapshotting every snapshotEvery records (≤0 uses the default).
func (m *Manager) AttachJournal(j *journal.Journal, snapshotEvery int) {
	if snapshotEvery <= 0 {
		snapshotEvery = DurabilityConfig{}.withDefaults().SnapshotEvery
	}
	m.journal = j
	m.rec = &durableRecorder{m: m, j: j, every: snapshotEvery}
	if m.epoch > j.Epoch() {
		j.SetEpoch(m.epoch)
	}
}

// WALError returns the journal failure that fail-stopped recording, or nil
// while durability is healthy.
func (m *Manager) WALError() error { return m.walErr }

// Placements returns the current VM → node-name placement map (a copy).
func (m *Manager) Placements() map[string]string { return maps.Clone(m.fold.Placements) }

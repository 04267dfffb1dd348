package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"deflation/internal/faults"
	"deflation/internal/journal"
	"deflation/internal/restypes"
)

// PlacementPolicy selects a server for a new VM (§5: "our cluster manager
// implements best-fit, first-fit, and a 2-choices policy").
type PlacementPolicy int

const (
	// BestFit picks the feasible server with the highest fitness.
	BestFit PlacementPolicy = iota
	// FirstFit picks the first feasible server.
	FirstFit
	// TwoChoices samples two random servers and picks the fitter one.
	TwoChoices
	// WorstFit picks the feasible server with the most free capacity
	// (largest free-vector magnitude) — the classic load-spreading
	// baseline, the antithesis of BestFit's packing. Feasibility still
	// counts deflatable capacity like every other policy, but the rank
	// metric is raw free space: ranking by availability would tie a
	// server full of deflatable low-priority VMs with an empty one (both
	// "available"), collapsing the policy into first-fit.
	WorstFit
)

// String names the policy.
func (p PlacementPolicy) String() string {
	switch p {
	case BestFit:
		return "best-fit"
	case FirstFit:
		return "first-fit"
	case TwoChoices:
		return "2-choices"
	case WorstFit:
		return "worst-fit"
	}
	return fmt.Sprintf("PlacementPolicy(%d)", int(p))
}

// HealthPolicy configures the manager's failure detector.
type HealthPolicy struct {
	// MaxMisses is the number of consecutive failed heartbeats before a
	// node is declared dead and evacuated (default 3).
	MaxMisses int
}

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.MaxMisses == 0 {
		p.MaxMisses = 3
	}
	return p
}

// nodeHealth is the failure detector's per-node state, plus the launch in
// progress's verdict on the node. dead mirrors the fold's Dead: the fleet
// view copies it from the fold when it adds a server, and only
// WALState.apply changes it (see fleetView).
type nodeHealth struct {
	misses int
	dead   bool
	// barred takes the node out of the placement pool for the current
	// launch only: its capacity is unknown, or it has already refused this
	// launch. Manager.launch sets and clears it.
	barred bool
}

// Manager is the centralized deflation-aware cluster manager: it places VMs
// using the cosine-similarity fitness over availability (free + deflatable)
// and delegates reclamation to the servers' local controllers. It also runs
// the cluster's failure detector: ProbeHealth heartbeats every server,
// declares nodes dead after K consecutive misses, evacuates and re-places
// their VMs, and lets recovered nodes rejoin.
type Manager struct {
	servers []Node
	policy  PlacementPolicy
	rng     *rand.Rand

	// fold is the manager's state: placements, specs, dead nodes,
	// registered agents, in-flight migrations and event counts. Only emit
	// changes it, by applying the event it emits (WALState.apply).
	// fleetView indexes the fold's node names by server position.
	fold *WALState
	fleetView
	// barred lists the servers the current launch has taken out of the pool.
	barred []int

	healthPolicy HealthPolicy

	// rec receives every state transition (nil = no recording), and sub
	// folds them in-process (the simulator's books; nil = none); see emit.
	// launched is the spec the latest launch placed, stamped with its
	// substrate: the Spec of evLaunch and of VMReplaced. journal is the attached
	// WAL when the manager is durable.
	rec      Recorder
	sub      func(Event)
	launched LaunchSpec
	journal  *journal.Journal

	// Migration state (see migrate.go). reclaim selects the reclamation
	// fallback for high-priority placements; its zero value (ReclaimPreempt)
	// takes exactly the pre-migration code path.
	reclaim      ReclaimPolicy
	migScheduler func(d time.Duration, f func())
	migFaults    *faults.Injector

	convergenceFailures int
	migratedMB          float64
	migrationTime       time.Duration
	migrationDowntime   time.Duration

	// epoch is this manager's leadership fencing epoch (0 = unfenced legacy
	// single-manager mode). It is stamped into every WAL record and every
	// node RPC; see fence.go. id is the leader identity that breaks
	// same-epoch ties at the controllers' guards. walErr records the journal
	// failure that fail-stopped durable recording (nil while healthy);
	// deposed latches once a controller refuses this manager's epoch — a
	// newer leader has fenced it off, and it must stand down rather than run
	// on as a zombie issuing doomed commands.
	epoch     uint64
	id        string
	walErr    error
	deposed   bool
	onDeposed func() // invoked once, on the first stale-epoch observation

	tel *managerTelemetry // nil = no instrumentation

	// pidx is the tournament-tree placement index (see placement_index.go):
	// every placement policy and the preemption fallback resolve through it.
	// queried, when non-nil, is shown every index query and its answer: the
	// equivalence tests check each one against the reference scans.
	pidx    *placementIndex
	queried queryHook
}

// NewManager builds a manager over servers. Seed drives the 2-choices
// sampling (and nothing else), keeping runs reproducible. An empty fleet
// is valid — a federated shard starts with zero nodes and grows through
// AddNode registrations; every launch rejects until a node arrives.
func NewManager(servers []Node, policy PlacementPolicy, seed int64) (*Manager, error) {
	return newManager(servers, policy, seed, nil), nil
}

// newManager is NewManager with the placement index's test seam installed
// (see Manager.queried).
func newManager(servers []Node, policy PlacementPolicy, seed int64, queried queryHook) *Manager {
	m := &Manager{
		servers:      servers,
		policy:       policy,
		rng:          rand.New(rand.NewSource(seed)),
		fold:         NewWALState(),
		healthPolicy: HealthPolicy{}.withDefaults(),
		queried:      queried,
	}
	m.indexFleet()
	m.pidx = newPlacementIndex(m)
	return m
}

// indexFleet builds the fleet view over m.servers from the fold: each
// server's position by name (the first server of a name wins), and a fresh
// health record whose dead flag is the fold's.
func (m *Manager) indexFleet() {
	m.index = make(map[string]int, len(m.servers))
	m.health = make([]nodeHealth, len(m.servers))
	for i, s := range m.servers {
		name := s.Name()
		if _, dup := m.index[name]; !dup {
			m.index[name] = i
		}
		m.health[i].dead = m.fold.Dead[name]
	}
}

// SetHealthPolicy configures the failure detector.
func (m *Manager) SetHealthPolicy(p HealthPolicy) { m.healthPolicy = p.withDefaults() }

// Epoch returns the manager's leadership fencing epoch (0 = unfenced).
func (m *Manager) Epoch() uint64 { return m.epoch }

// SetEpoch installs the fencing epoch and propagates it to the attached
// journal (stamped into every record) and to every node client that
// understands epochs (RemoteNode stamps it onto every RPC). Runs on the
// manager's goroutine like every other mutation.
func (m *Manager) SetEpoch(epoch uint64) {
	m.epoch = epoch
	if m.journal != nil && epoch > m.journal.Epoch() {
		m.journal.SetEpoch(epoch)
	}
	for _, s := range m.servers {
		if es, ok := s.(interface{ SetEpoch(uint64) }); ok {
			es.SetEpoch(epoch)
		}
	}
}

// SetIdentity installs the leader identity carried alongside the epoch on
// every node RPC. Two managers that self-allocate the same epoch (a crashed
// leader's restart racing its standby's promotion) are distinguished by
// identity at each controller's guard: whichever asserts first wins the
// tie, the other is refused and stands down. Must be set before the epoch
// is first asserted; distinct managers must use distinct identities (the
// daemon derives it from hostname + state directory).
func (m *Manager) SetIdentity(id string) {
	m.id = id
	for _, s := range m.servers {
		if is, ok := s.(interface{ SetLeaderID(string) }); ok {
			is.SetLeaderID(id)
		}
	}
}

// clusterFencedEpoch asks every node that can answer for the highest epoch
// its guard has obeyed and returns the maximum. Unreachable nodes are
// skipped: they cannot obey anyone until they rejoin, at which point the
// failure detector's fenced probes re-assert the current term.
func (m *Manager) clusterFencedEpoch() uint64 {
	var top uint64
	for _, s := range m.servers {
		fe, ok := s.(interface{ FencedEpoch() (uint64, error) })
		if !ok {
			continue
		}
		if e, err := fe.FencedEpoch(); err == nil && e > top {
			top = e
		}
	}
	return top
}

// BecomeLeader assumes a new leadership term: the epoch bumps strictly past
// every term this manager has seen AND past the cluster-wide fenced maximum
// (queried from the reachable controllers), the bump propagates to the
// journal and node clients, and a leader record is journaled so replicas
// and future recoveries learn the term. It starts a term for a manager
// built without TakeOver (the simulator's first HA term); unlike TakeOver
// it neither fences nor reconciles. Returns the new epoch.
func (m *Manager) BecomeLeader() uint64 {
	e := m.epoch
	if ce := m.clusterFencedEpoch(); ce > e {
		e = ce
	}
	m.SetEpoch(e + 1)
	m.emit(Event{Kind: evLeader})
	return m.epoch
}

// Deposed reports whether a controller has refused this manager's epoch —
// proof a newer leader owns the cluster. A deposed manager must stand down:
// the API layer refuses further commands and the daemon exits.
func (m *Manager) Deposed() bool { return m.deposed }

// SetOnDeposed registers a callback invoked once, when the manager first
// observes ErrStaleEpoch from a node. The daemon uses it to fail-stop
// instead of running on as a zombie with every RPC refused.
func (m *Manager) SetOnDeposed(fn func()) { m.onDeposed = fn }

// noteDeposed latches the deposed state when err shows this manager's
// epoch was fenced off. Called on every node-RPC error path.
func (m *Manager) noteDeposed(err error) {
	if err == nil || m.deposed || !errors.Is(err, ErrStaleEpoch) {
		return
	}
	m.deposed = true
	if m.onDeposed != nil {
		m.onDeposed()
	}
}

// alive reports whether server i is in the placement pool.
func (m *Manager) alive(i int) bool { return !m.health[i].dead && !m.health[i].barred }

// bar takes server i out of the pool until the current launch returns.
func (m *Manager) bar(i int) {
	m.health[i].barred = true
	m.barred = append(m.barred, i)
}

func (m *Manager) clearBars() {
	for _, i := range m.barred {
		m.health[i].barred = false
	}
	m.barred = m.barred[:0]
}

// barUnknownCapacity probes, once, every alive RemoteNode whose capacity is
// unknown, and bars each that stays unknown: unknown is not empty, and not a
// candidate. The bar keeps the rest of the launch from probing it again.
func (m *Manager) barUnknownCapacity() {
	m.pidx.flush()
	for _, i := range m.pidx.unknown { // probes only mark leaves dirty: no flush in the loop
		if m.alive(i) && !capacityKnown(m.servers[i]) {
			m.bar(i)
		}
	}
}

// capacityKnown reports whether a RemoteNode's capacity is known after at
// most one probe. Other nodes need no probe and report true: a down
// crashableNode's unknown is read from its Capacity() where placement reads
// the summary.
func capacityKnown(n Node) bool {
	rn, ok := capability[*RemoteNode](n)
	return !ok || rn.capacityKnown()
}

// DeadServers counts servers currently marked dead.
func (m *Manager) DeadServers() int {
	n := 0
	for _, h := range m.health {
		if h.dead {
			n++
		}
	}
	return n
}

// FailurePreemptions counts VMs killed by node failures (whether or not
// they were successfully re-placed).
func (m *Manager) FailurePreemptions() int { return m.fold.FailurePreemptions }

// ProbeHealth runs one heartbeat round: every server is pinged, consecutive
// misses are counted, nodes crossing MaxMisses are declared dead and
// evacuated (their VMs re-placed on healthy servers), and previously-dead
// nodes that answer rejoin the pool. It returns the events the round
// emitted, in deterministic order.
func (m *Manager) ProbeHealth() []Event {
	var events []Event
	for i, s := range m.servers {
		err := s.Ping()
		m.noteDeposed(err)
		h := &m.health[i]
		if err == nil {
			if h.dead {
				events = append(events, m.emit(Event{Kind: NodeUp, Node: s.Name()}))
				// The node may rejoin with VMs still running (a partition,
				// or an agent that outlived its manager): reconcile against
				// its actual inventory instead of assuming it is empty.
				events = m.reconcileNode(i, events)
			}
			h.misses = 0
			continue
		}
		h.misses++
		if m.tel != nil {
			m.tel.heartbeatMisses.Inc()
		}
		if !h.dead && h.misses >= m.healthPolicy.MaxMisses {
			events = append(events, m.emit(Event{Kind: NodeDown, Node: s.Name(), Err: err}))
			events = m.evacuate(i, events)
		}
	}
	return events
}

// evacuate declares every VM placed on the dead server idx a
// failure-induced preemption and re-places each on the healthy servers from
// its recorded launch spec, appending the events to events. VM order is
// sorted for determinism.
func (m *Manager) evacuate(idx int, events []Event) []Event {
	node := m.servers[idx].Name()
	for _, name := range m.vmsOn(node) {
		events = m.replace(name, node, events)
	}
	return events
}

// vmsOn lists, sorted, the VMs the fold places on node.
func (m *Manager) vmsOn(node string) []string {
	var names []string
	for name, on := range m.fold.Placements {
		if on == node {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// replace evicts VM name from node as a failure-induced preemption and
// re-places it on the healthy servers from its recorded launch spec,
// appending the eviction, then the replacement or the loss, to events.
// Evacuation and recovery share it.
func (m *Manager) replace(name, node string, events []Event) []Event {
	spec := m.fold.Specs[name]
	events = append(events, m.emit(Event{Kind: VMEvicted, VM: name, Node: node}))
	// Re-place; the launch does not count toward Rejected(), which tracks
	// user-facing admissions.
	to, rep, err := m.launch(spec, false)
	if err != nil {
		return append(events, m.emit(Event{Kind: VMLost, VM: name, Err: err}))
	}
	spec = m.launched
	return append(events, m.emit(Event{Kind: VMReplaced, VM: name, Node: m.servers[to].Name(),
		Spec: &spec, Preempted: rep.Preempted}))
}

// reconcileNode compares a rejoined node's actual VM inventory with the
// manager's placements, appending the events to events: VMs the manager
// placed there re-adopt silently, unknown VMs are adopted into the
// placement map, and stale copies of VMs re-placed elsewhere while the node
// was dead are released. Nodes without an inventory (or still unreachable)
// reconcile to nothing, preserving the crash-stop "rejoins empty" behavior.
func (m *Manager) reconcileNode(i int, events []Event) []Event {
	inv, err := nodeInventory(m.servers[i])
	if err != nil || len(inv) == 0 {
		return events
	}
	node := m.servers[i].Name()
	sort.Slice(inv, func(a, b int) bool { return inv[a].Name < inv[b].Name })
	for _, vs := range inv {
		on, ok := m.fold.Placements[vs.Name]
		switch {
		case !ok:
			spec := specFromVMState(vs)
			events = append(events, m.emit(Event{Kind: VMAdopted, VM: vs.Name, Node: node, Spec: &spec}))
		case on == node:
			// Consistent: the journal (or a surviving manager) already
			// places it here.
		default:
			if err := m.servers[i].Release(vs.Name); err == nil {
				events = append(events, m.emit(Event{Kind: VMStaleReleased, VM: vs.Name, Node: node}))
			}
		}
	}
	return events
}

// Servers returns the managed servers.
func (m *Manager) Servers() []Node { return m.servers }

// Substrates maps each server name to its substrate kind ("hypervisor",
// "container", or "" when the node has not reported one). Operators read
// this through /v1/state to see where container-backed VMs can land.
func (m *Manager) Substrates() map[string]string {
	out := make(map[string]string, len(m.servers))
	for _, s := range m.servers {
		sum, _ := s.Capacity()
		out[s.Name()] = sum.Substrate
	}
	return out
}

// Rejected returns the number of launches that found no feasible server.
func (m *Manager) Rejected() int { return m.fold.Rejected }

// Preemptions sums preemptions across all servers.
func (m *Manager) Preemptions() int {
	n := 0
	for _, s := range m.servers {
		sum, _ := s.Capacity()
		n += sum.Preemptions
	}
	return n
}

// placementVector is the non-disruptive capacity a launch may draw on:
// availability (free + deflatable, §5 Eq. 4) in deflation mode, free
// capacity only under the preemption-only baseline.
func placementVector(c *CapacitySummary) restypes.Vector {
	if c.Mode == ModePreemptionOnly.String() {
		return c.Free
	}
	return c.Availability
}

// fitness is §5's placement score: the cosine similarity between the VM's
// demand vector and the server's availability vector (Eq. 4).
func fitness(c *CapacitySummary, size restypes.Vector) float64 {
	return size.CosineSimilarity(placementVector(c))
}

// feasible reports whether the server can host a VM of the given size
// without preempting anything. A VM pinned to a substrate kind only fits
// nodes of that kind.
func feasible(c *CapacitySummary, size restypes.Vector, substrate string) bool {
	return substrateCompatible(c.Substrate, substrate) && size.Fits(placementVector(c))
}

// preemptFeasible reports whether the server could host a high-priority VM
// of the given size if low-priority VMs were preempted — the last resort
// for high-priority placements. Only high-priority specs may ask.
func preemptFeasible(c *CapacitySummary, size restypes.Vector, substrate string) bool {
	return substrateCompatible(c.Substrate, substrate) && size.Fits(c.PreemptableCeiling)
}

// Launch places and starts a VM according to the placement policy. It
// returns the chosen server index and the reclamation report.
func (m *Manager) Launch(spec LaunchSpec) (int, LaunchReport, error) {
	return m.launch(spec, true)
}

func (m *Manager) launch(spec LaunchSpec, countRejection bool) (int, LaunchReport, error) {
	if _, ok := m.fold.Placements[spec.Name]; ok {
		return -1, LaunchReport{}, fmt.Errorf("%w: %q", ErrVMExists, spec.Name)
	}
	defer m.clearBars()
	m.barUnknownCapacity()
	var (
		idx int
		rep LaunchReport
	)
	for {
		idx = m.pickServer(spec)
		if idx < 0 && m.reclaim != ReclaimPreempt {
			// Migration-based reclamation: move low-priority VMs out of the
			// way (deflating them first under deflate-then-migrate) instead of
			// killing them.
			idx = m.migrateFallback(spec)
		}
		if idx < 0 {
			// No server can host without disruption; high-priority VMs fall
			// back to the server where preemption frees the most room.
			idx = m.pidx.query(leafPreempt, spec)
		}
		if idx < 0 {
			if countRejection {
				m.emit(Event{Kind: evReject, VM: spec.Name})
			}
			return -1, LaunchReport{}, &capacityError{"no feasible server for %[1]v", spec.Size, restypes.Vector{}}
		}
		// Stamp the landing node's substrate kind into the spec before it is
		// journaled, so recovery and failure re-placement keep the VM on the
		// substrate it actually booted on (a container-backed VM must never be
		// revived as a hypervisor domain, and vice versa).
		placed := spec
		if placed.Substrate == "" {
			sum, _ := m.servers[idx].Capacity()
			placed.Substrate = sum.Substrate
		}
		var err error
		rep, err = m.servers[idx].Launch(placed)
		if err == nil {
			spec = placed
			break
		}
		// The node may have preempted before it refused: those VMs are
		// gone whether or not this one landed.
		for _, name := range rep.Preempted {
			m.preempted(name)
		}
		if _, cached := capability[*RemoteNode](m.servers[idx]); cached && errors.Is(err, ErrNoCapacity) {
			// The pick came from a cached summary that a writer the manager
			// did not see has outdated; the agent's own admission check is
			// the authority and its refusal carried the fresh summary. Pick
			// again without this node.
			if m.tel != nil {
				m.tel.staleRefusals.Inc()
			}
			m.bar(idx)
			continue
		}
		m.noteDeposed(err)
		return -1, rep, err
	}
	if m.tel != nil && idx < len(m.tel.placements) {
		m.tel.placements[idx].Inc()
	}
	// The event places the VM and takes the preempted ones off. A
	// user-facing placement emits it here; internal re-placements emit
	// "replace" at the call site instead. The event's Spec is the manager's
	// own slot, so spec stays off the heap.
	m.launched = spec
	if countRejection {
		m.emit(Event{Kind: evLaunch, VM: spec.Name, Node: m.servers[idx].Name(),
			Spec: &m.launched, Preempted: rep.Preempted})
	}
	return idx, rep, nil
}

func (m *Manager) pickServer(spec LaunchSpec) int {
	if len(m.servers) == 0 {
		return -1
	}
	switch m.policy {
	case FirstFit:
		return m.pidx.query(leafFirstFit, spec)
	case WorstFit:
		return m.pidx.query(leafWorstFit, spec)
	case TwoChoices:
		a := m.rng.Intn(len(m.servers))
		b := m.rng.Intn(len(m.servers))
		ca, ka := m.servers[a].Capacity()
		cb, kb := m.servers[b].Capacity()
		fa := m.alive(a) && ka && feasible(&ca, spec.Size, spec.Substrate)
		fb := m.alive(b) && kb && feasible(&cb, spec.Size, spec.Substrate)
		switch {
		case fa && fb:
			if fitness(&ca, spec.Size) >= fitness(&cb, spec.Size) {
				return a
			}
			return b
		case fa:
			return a
		case fb:
			return b
		}
		// Both samples infeasible: fall back to best-fit so that a busy
		// cluster does not spuriously reject (the paper's simulator admits
		// whenever any server fits).
		return m.pidx.query(leafBestFit, spec)
	default:
		return m.pidx.query(leafBestFit, spec)
	}
}

// Release ends a VM's life normally, freeing and reinflating its server.
// Releasing a VM that was preempted earlier reports ErrVMNotFound.
func (m *Manager) Release(name string) error {
	idx, ok := m.placedOn(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrVMNotFound, name)
	}
	m.emit(Event{Kind: evRelease, VM: name})
	err := m.servers[idx].Release(name)
	m.noteDeposed(err)
	return err
}

// Placed reports whether the named VM is currently running (not preempted,
// not released). An unreachable server is NOT evidence the VM is gone: the
// placement is kept until the health monitor declares the node dead, so a
// transient network failure never corrupts placement state.
func (m *Manager) Placed(name string) bool {
	idx, ok := m.placedOn(name)
	if !ok {
		return false
	}
	has, err := m.servers[idx].Has(name)
	if err != nil {
		return true // can't confirm; the failure detector will decide
	}
	if !has {
		m.preempted(name) // preempted underneath: reconcile
		return false
	}
	return true
}

// placedOn returns the index of the server the fold places name on; ok is
// false when the VM is not placed, or placed on a node the fleet lacks.
func (m *Manager) placedOn(name string) (idx int, ok bool) {
	node, ok := m.fold.Placements[name]
	if !ok {
		return -1, false
	}
	idx, ok = m.index[node]
	return idx, ok
}

// preempted takes a VM its node preempted out of band off the placement.
func (m *Manager) preempted(name string) {
	m.emit(Event{Kind: evPreempt, VM: name})
}

// Stats is a cluster-wide utilization snapshot.
type Stats struct {
	VMs                  int
	MeanOvercommitment   float64
	MaxOvercommitment    float64
	ServerOvercommitment []float64 // sorted ascending
	// DeadServers and the failure counters summarize the failure
	// detector's view: VMs killed by node crashes (failure-induced
	// preemptions), split into re-placed and lost.
	DeadServers        int
	FailurePreemptions int
	ReplacedVMs        int
	LostVMs            int
	// AdoptedVMs and StaleReleases count anti-entropy reconciliation
	// repairs (rejoin adoption and stale-copy release).
	AdoptedVMs    int
	StaleReleases int
}

// Snapshot computes current cluster statistics.
func (m *Manager) Snapshot() Stats {
	var st Stats
	st.VMs = len(m.fold.Placements)
	st.DeadServers = m.DeadServers()
	st.FailurePreemptions = m.fold.FailurePreemptions
	st.ReplacedVMs = m.fold.Replaced
	st.LostVMs = m.fold.Lost
	st.AdoptedVMs = m.fold.Adopted
	st.StaleReleases = m.fold.StaleReleased
	if n := len(m.servers); n > 0 { // an empty fleet keeps reporting nil
		st.ServerOvercommitment = make([]float64, n)
	}
	st.MeanOvercommitment, st.MaxOvercommitment = m.overcommitment(st.ServerOvercommitment)
	sort.Float64s(st.ServerOvercommitment)
	return st
}

// overcommitment returns the mean and max server overcommitment, the mean
// summed in server order; each, unless nil, receives server i's at [i].
func (m *Manager) overcommitment(each []float64) (mean, max float64) {
	for i, s := range m.servers {
		sum, _ := s.Capacity()
		oc := sum.Overcommitment
		if each != nil {
			each[i] = oc
		}
		mean += oc
		if oc > max {
			max = oc
		}
	}
	if len(m.servers) > 0 {
		mean /= float64(len(m.servers))
	}
	return mean, max
}

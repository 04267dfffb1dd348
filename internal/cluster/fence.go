package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Leadership fencing. A manager's authority over the cluster is a lease
// identified by a monotonically increasing epoch. Every WAL record and every
// manager→controller RPC carries the writer's epoch; controllers remember
// the highest epoch they have seen and reject mutating commands from lower
// ones. This is what makes failover safe under partition: a standby that
// takes over bumps the epoch, and the old leader — still running on the far
// side of a partition, convinced it owns the cluster — finds every deflate,
// launch, release, and migration it issues refused the moment the network
// heals. Epoch 0 is the unfenced legacy mode (no HA configured) and is
// always accepted.

// ErrStaleEpoch rejects a command from a leader whose fencing epoch is
// older than one the controller has already obeyed — or tied with it under
// a different leader identity (a split-brain tie).
var ErrStaleEpoch = errors.New("cluster: stale leadership epoch")

// epochHeader carries the manager's fencing epoch on every RPC;
// leaderHeader carries its identity. Together they are the fencing token:
// epochs order terms, and the identity breaks same-epoch ties so two
// managers that each self-allocated the same epoch (a crashed leader's
// restart racing its standby's promotion) can never both command a node.
const (
	epochHeader  = "X-Deflation-Epoch"
	leaderHeader = "X-Deflation-Leader"
)

// EpochGuard tracks the highest leadership epoch a controller has obeyed —
// and which leader holds it — and fences lower or tied-but-foreign ones.
// Safe for concurrent use.
type EpochGuard struct {
	mu      sync.Mutex
	epoch   uint64
	leader  string
	assert  time.Time // when the current epoch was last asserted
	staleN  uint64
	highest uint64
}

// Check admits a command stamped with a fencing token: epoch 0 (unfenced
// legacy manager) is always admitted; a higher epoch takes leadership and
// raises the bar; an equal epoch is admitted only from the leader that
// already holds it — an equal epoch under a different identity is a
// split-brain tie (two managers each self-allocated the same term) and is
// rejected, so at most one of them can ever command this node. Returns
// ErrStaleEpoch for a command from a deposed or tied-out leader.
func (g *EpochGuard) Check(epoch uint64, leader string) error {
	if epoch == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if epoch < g.epoch {
		g.staleN++
		return fmt.Errorf("%w: epoch %d < fenced epoch %d", ErrStaleEpoch, epoch, g.epoch)
	}
	if epoch == g.epoch && leader != g.leader {
		g.staleN++
		return fmt.Errorf("%w: epoch %d already held by a different leader", ErrStaleEpoch, epoch)
	}
	g.epoch = epoch
	g.leader = leader
	g.assert = time.Now()
	if epoch > g.highest {
		g.highest = epoch
	}
	return nil
}

// Current returns the highest epoch admitted so far.
func (g *EpochGuard) Current() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Assertion returns the highest admitted epoch and how long ago a command
// last asserted it. A standby corroborating a leader's death reads this
// through the controller's healthz: a recently-asserted epoch means the
// leader is alive on some network path even if the standby cannot reach it
// directly, and promotion must hold.
func (g *EpochGuard) Assertion() (epoch uint64, age time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.epoch == 0 || g.assert.IsZero() {
		return g.epoch, 0
	}
	return g.epoch, time.Since(g.assert)
}

// StaleRejections returns how many commands the guard has fenced off.
func (g *EpochGuard) StaleRejections() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.staleN
}

// fencedNode wraps an in-process Node with epoch fencing, standing in for
// what RemoteNode + ControllerAPI enforce over HTTP so simulations can run
// dual-leader windows without a network. The guard is shared by every
// manager's wrapper of the same underlying node (it *is* the node's memory
// of who leads); the epoch is per-wrapper, set by the owning manager via
// SetEpoch — exactly how each manager's RemoteNode stamps its own header.
type fencedNode struct {
	Node
	guard *EpochGuard

	mu     sync.Mutex
	epoch  uint64
	leader string
}

// newFencedNode wraps n for one manager; guard must be shared across all
// wrappers of the same physical node.
func newFencedNode(n Node, guard *EpochGuard) *fencedNode {
	return &fencedNode{Node: n, guard: guard}
}

// SetEpoch is the manager's epoch-propagation hook (the same interface
// RemoteNode implements).
func (f *fencedNode) SetEpoch(epoch uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epoch = epoch
}

// SetLeaderID is the manager's identity-propagation hook (the same
// interface RemoteNode implements); the identity breaks same-epoch ties.
func (f *fencedNode) SetLeaderID(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.leader = id
}

// FencedEpoch reports the highest epoch this node's guard has obeyed — the
// in-process analogue of probing a remote controller's healthz. A manager
// assuming leadership reads the cluster-wide maximum through this so its
// new term lands strictly past every epoch any node has ever seen, not
// just past its own journal's.
func (f *fencedNode) FencedEpoch() (uint64, error) {
	return f.guard.Current(), nil
}

func (f *fencedNode) check() error {
	f.mu.Lock()
	e, id := f.epoch, f.leader
	f.mu.Unlock()
	return f.guard.Check(e, id)
}

// Mutating operations are fenced; reads pass through (a stale leader
// observing state is harmless — acting on it is not). Ping is the
// exception among reads: it doubles as the epoch-assertion beacon — a new
// leader's first probe raises every guard, fencing the old leader before
// this term issues its first real command, and a deposed leader's probes
// fail so its failure detector sees the cluster gone rather than healthy.

func (f *fencedNode) Ping() error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Node.Ping()
}

func (f *fencedNode) Launch(spec LaunchSpec) (LaunchReport, error) {
	if err := f.check(); err != nil {
		return LaunchReport{}, err
	}
	return f.Node.Launch(spec)
}

func (f *fencedNode) Release(name string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Node.Release(name)
}

func (f *fencedNode) RestoreVM(cp VMCheckpoint) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Node.RestoreVM(cp)
}

func (f *fencedNode) ReserveStream(stream string, rateMBps float64) (float64, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.Node.ReserveStream(stream, rateMBps)
}

func (f *fencedNode) ReleaseStream(stream string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Node.ReleaseStream(stream)
}

func (f *fencedNode) DeflateFully(name string) (time.Duration, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.Node.DeflateFully(name)
}

// Unwrap hands capability probes (inventory, telemetry, substrate kind) the
// wrapped node: the embedded field is the Node interface, so its optional
// methods do not promote.
func (f *fencedNode) Unwrap() Node { return f.Node }

var _ Node = (*fencedNode)(nil)

// fenceAll asserts the manager's epoch on every node by pinging it — the
// takeover's fencing sweep. Ping carries the epoch, so each reachable node's
// guard is raised before this term issues its first command; errors are
// ignored (an unreachable node is fenced when the failure detector first
// probes it after rejoin, and until then it can't obey anyone).
func (m *Manager) fenceAll() {
	for _, s := range m.servers {
		s.Ping()
	}
}

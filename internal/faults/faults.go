// Package faults provides a seeded, deterministic fault injector for the
// deflation control plane. A real transiency-exploiting cluster sees server
// revocations, hung deflation agents, partially-failed hot-unplugs, and a
// flaky network between the manager and its local controllers; this package
// models all four so chaos experiments (the chaos figure in
// internal/experiments) can measure the system under them.
//
// Determinism is the design constraint: every decision is drawn from an
// independent per-category PRNG stream derived from Config.Seed, so two runs
// with the same seed inject byte-identical fault schedules regardless of
// which categories are enabled — enabling HTTP faults never perturbs the
// node-crash schedule. The injector composes with internal/simclock: it
// produces durations and outcomes, and the caller schedules them on the
// simulation clock (or applies them to real wall-clock operations).
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// Config parameterizes fault injection. The zero value disables every
// category; Enabled reports whether any category is active.
type Config struct {
	// Seed drives all injection decisions. Runs with equal seeds (and equal
	// workloads) produce identical fault schedules.
	Seed int64

	// CrashMTBF is the per-node mean time between crash-stop failures
	// (exponentially distributed). Zero disables node crashes.
	CrashMTBF time.Duration
	// RecoveryTime is how long a crashed node stays down before it reboots
	// empty and may rejoin (default 5m).
	RecoveryTime time.Duration

	// ManagerCrashMTBF is the mean time between crash-restart failures of
	// the centralized manager itself (exponentially distributed). The
	// manager loses all in-memory state and recovers from its journal; the
	// nodes keep running. Zero disables manager crashes.
	ManagerCrashMTBF time.Duration

	// AgentFailProb is the probability that the application deflation agent
	// fails outright during a cascade (reclaims nothing at its level).
	AgentFailProb float64
	// AgentHangProb is the probability that the agent hangs for
	// agentHangDelay before responding (or failing), consuming the
	// cascade's time budget.
	AgentHangProb float64

	// OSFailProb is the probability that a guest hot-unplug partially
	// fails: only a fraction of the requested unplug completes and the
	// remainder falls through to the hypervisor level.
	OSFailProb float64

	// HTTPErrorProb is the probability that a REST request gets an injected
	// 5xx response without reaching its handler.
	HTTPErrorProb float64

	// MigrationFailProb is the probability that a live migration fails
	// mid-copy (link error, destination qemu crash) after the pre-copy
	// stream has run; the VM rolls back to the source.
	MigrationFailProb float64

	// PartitionMTBF is the mean time between network partitions that cut
	// the active manager off from every local controller (exponentially
	// distributed). During a partition the old leader keeps running but none
	// of its node RPCs land — the dual-leader window fencing epochs exist
	// for. Zero disables partitions.
	PartitionMTBF time.Duration
	// PartitionDuration is how long each partition lasts before the network
	// heals (default 60s).
	PartitionDuration time.Duration

	// DiskFailProb is the per-operation probability that a journal disk
	// write or fsync fails. One failure poisons the journal (fail-stop), so
	// in practice this schedules the leader's first unrecoverable storage
	// error. Zero disables disk faults.
	DiskFailProb float64

	// DiskSlowProb is the per-operation probability that a journal disk
	// write or fsync stalls (a degraded device, a saturated virtio queue)
	// for up to diskSlowMax before completing NORMALLY. Unlike DiskFailProb
	// this never poisons the journal — it stretches commit latency, which
	// is what surfaces ack-before-fsync bugs and slow-leader tail latency.
	DiskSlowProb float64
}

const (
	// agentHangDelay is how long a hung application agent stalls.
	agentHangDelay = 30 * time.Second
	// osPartialMax bounds the fraction of the unplug target that still
	// succeeds on a partial failure; the achieved fraction is drawn
	// uniformly from [0, osPartialMax].
	osPartialMax float64 = 0.5
	// diskSlowMax bounds each injected disk stall; the stall is drawn
	// uniformly from (0, diskSlowMax].
	diskSlowMax = 50 * time.Millisecond
)

// Enabled reports whether any fault category is configured.
func (c Config) Enabled() bool {
	return c.CrashMTBF > 0 || c.ManagerCrashMTBF > 0 ||
		c.AgentFailProb > 0 || c.AgentHangProb > 0 ||
		c.OSFailProb > 0 ||
		c.HTTPErrorProb > 0 ||
		c.MigrationFailProb > 0 ||
		c.PartitionMTBF > 0 || c.DiskFailProb > 0 || c.DiskSlowProb > 0
}

func (c Config) withDefaults() Config {
	if c.RecoveryTime == 0 {
		c.RecoveryTime = 5 * time.Minute
	}
	if c.PartitionDuration == 0 {
		c.PartitionDuration = 60 * time.Second
	}
	return c
}

// Injector draws fault decisions from independent per-category streams.
// It is safe for concurrent use (the HTTP middleware runs on server
// goroutines).
type Injector struct {
	cfg Config

	mu      sync.Mutex
	streams map[string]*rand.Rand
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg.withDefaults(), streams: make(map[string]*rand.Rand)}
}

// Config returns the (defaulted) configuration.
func (in *Injector) Config() Config { return in.cfg }

// stream returns the named category's PRNG, creating it deterministically
// from the seed and the name. Callers must hold in.mu.
func (in *Injector) stream(name string) *rand.Rand {
	if r, ok := in.streams[name]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	r := rand.New(rand.NewSource(in.cfg.Seed ^ int64(h.Sum64())))
	in.streams[name] = r
	return r
}

// NextCrash returns the time until the named node's next crash-stop failure
// (measured from "now", whatever clock the caller runs on). ok is false when
// node crashes are disabled. Each node has its own stream, so the crash
// schedule of one node is independent of how many others exist.
func (in *Injector) NextCrash(node string) (d time.Duration, ok bool) {
	if in.cfg.CrashMTBF <= 0 {
		return 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("crash/" + node)
	return time.Duration(r.ExpFloat64() * float64(in.cfg.CrashMTBF)), true
}

// NextManagerCrash returns the time until the manager's next crash-restart
// failure. ok is false when manager crashes are disabled. The "manager"
// stream is independent of every node's crash stream, so enabling manager
// crashes never perturbs the node-crash schedule.
func (in *Injector) NextManagerCrash() (d time.Duration, ok bool) {
	if in.cfg.ManagerCrashMTBF <= 0 {
		return 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("manager")
	return time.Duration(r.ExpFloat64() * float64(in.cfg.ManagerCrashMTBF)), true
}

// RecoveryTime returns how long the named node stays down after a crash.
func (in *Injector) RecoveryTime(node string) time.Duration {
	return in.cfg.RecoveryTime
}

// LevelOutcome describes an injected application-agent fault during one
// cascade deflation.
type LevelOutcome struct {
	Fail bool          // the agent reclaims nothing
	Hang time.Duration // extra latency consumed before responding/failing
}

// AgentFault draws the application-agent outcome for one cascade. The same
// number of random values is consumed regardless of outcome, keeping the
// stream stable across configurations.
func (in *Injector) AgentFault() LevelOutcome {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("agent")
	hang, fail := r.Float64(), r.Float64()
	var o LevelOutcome
	if hang < in.cfg.AgentHangProb {
		o.Hang = agentHangDelay
	}
	o.Fail = fail < in.cfg.AgentFailProb
	return o
}

// UnplugOutcome describes an injected guest hot-unplug fault.
type UnplugOutcome struct {
	// Fail marks the unplug as partially failed; Fraction of the target
	// still succeeded (0 = total failure).
	Fail     bool
	Fraction float64
}

// OSFault draws the hot-unplug outcome for one cascade.
func (in *Injector) OSFault() UnplugOutcome {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("os")
	p, frac := r.Float64(), r.Float64()
	var o UnplugOutcome
	if p < in.cfg.OSFailProb {
		o.Fail = true
		o.Fraction = frac * osPartialMax
	}
	return o
}

// MigrationFault draws whether one live migration fails mid-copy. The
// "migration" stream is independent of every other category, so enabling
// migration faults never perturbs crash, agent, OS, or HTTP schedules.
func (in *Injector) MigrationFault() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("migration")
	return r.Float64() < in.cfg.MigrationFailProb
}

// NextPartition returns the time until the next manager↔controller network
// partition. ok is false when partitions are disabled. The "partition"
// stream is independent of every other category.
func (in *Injector) NextPartition() (d time.Duration, ok bool) {
	if in.cfg.PartitionMTBF <= 0 {
		return 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("partition")
	return time.Duration(r.ExpFloat64() * float64(in.cfg.PartitionMTBF)), true
}

// PartitionDuration returns how long a partition lasts before the network
// heals.
func (in *Injector) PartitionDuration() time.Duration {
	return in.cfg.PartitionDuration
}

// DiskFault draws whether one journal disk operation (write or fsync)
// fails, from the independent "disk" stream. Suitable for wiring directly
// into journal.Options.FailOp; the error is stable text so fault schedules
// are reproducible byte-for-byte.
func (in *Injector) DiskFault(op string) error {
	if in.cfg.DiskSlowProb > 0 {
		in.mu.Lock()
		r := in.stream("disk-slow")
		stall := time.Duration(0)
		if r.Float64() < in.cfg.DiskSlowProb {
			stall = 1 + time.Duration(r.Int63n(int64(diskSlowMax)))
		}
		in.mu.Unlock()
		// Sleep outside the lock: a stalled journal write must not also
		// stall every other fault stream.
		if stall > 0 {
			time.Sleep(stall)
		}
	}
	if in.cfg.DiskFailProb <= 0 {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("disk")
	if r.Float64() < in.cfg.DiskFailProb {
		return fmt.Errorf("faults: injected disk error during %s", op)
	}
	return nil
}

// HTTPFault draws whether one HTTP request gets an injected 5xx. Each call
// consumes two values of the "http" stream, as it did when the stream also
// drew drops and delays, so a seed fails the same requests it always has.
func (in *Injector) HTTPFault() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("http")
	p := r.Float64()
	r.Float64() // the second draw per request; see above
	return p < in.cfg.HTTPErrorProb
}

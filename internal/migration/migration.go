// Package migration models pre-copy live migration with an explicit
// performance model, in the spirit of the paper's comparison between
// deflation and the two classical transient-reclamation mechanisms
// (preemption and migration).
//
// The model is the textbook iterative pre-copy loop: round 1 transfers the
// VM's resident set over the migration link; while round i is in flight the
// guest dirties pages at its dirty-page rate, and round i+1 must re-transfer
// exactly those pages. The iteration stops — suspending the guest for the
// final stop-and-copy — once the remaining dirty set can be moved within the
// downtime target. When the dirty rate approaches the link rate
// the remaining set never shrinks and the migration cannot converge; the
// model detects this upfront and reports the bandwidth wasted before the
// source aborts.
package migration

import (
	"math"
	"time"
)

// The model's parameters: a dedicated 10 GbE link and libvirt-flavored
// pre-copy settings.
const (
	// LinkMBps is the migration link rate in MB/s, a dedicated 10 GbE path.
	// Per-migration callers may pass a lower effective rate to Simulate when
	// the NIC is contended.
	LinkMBps float64 = 1250
	// downtimeTarget is the stop-and-copy budget: pre-copy iterates until
	// the remaining dirty set transfers within this window.
	downtimeTarget = 300 * time.Millisecond
	// suspendResume is the fixed cost of pausing the guest on the source
	// and resuming it on the destination. It is paid once, as part of the
	// downtime.
	suspendResume = 50 * time.Millisecond
	// maxRounds caps pre-copy iterations; when reached, the model forces
	// stop-and-copy regardless of the downtime target, mirroring
	// auto-converge behaviour.
	maxRounds = 30
	// convergenceRatio is the dirty-rate/link-rate ratio above which
	// pre-copy is declared non-convergent: each round then shrinks the
	// remaining set so slowly that the iteration is futile.
	convergenceRatio = 0.9
	// abortRounds is how many futile rounds a non-convergent migration
	// wastes bandwidth on before the source gives up.
	abortRounds = 3
)

// Result reports one simulated migration.
type Result struct {
	// Rounds is the number of copy rounds performed (including the
	// stop-and-copy round, and including futile rounds on abort).
	Rounds int `json:"rounds"`
	// TransferredMB is the total bytes moved over the link, counting
	// re-transfers of re-dirtied pages — the network cost of the migration.
	TransferredMB float64 `json:"transferred_mb"`
	// Duration is total wall-clock time the stream occupies the link.
	Duration time.Duration `json:"duration"`
	// Downtime is how long the guest is paused (zero on abort).
	Downtime time.Duration `json:"downtime"`
	// Converged is false when pre-copy aborted: the VM stays on the source
	// and TransferredMB/Duration report the wasted work.
	Converged bool `json:"converged"`
	// SlowdownFactor is the throughput multiplier the migrating VM runs at
	// after switchover: always 1, since pre-copy resumes the guest with
	// every page local.
	SlowdownFactor float64 `json:"slowdown_factor"`
}

// Simulate runs the model for a VM with residentMB of migratable state being
// dirtied at dirtyRateMBps, over an effective link of linkMBps (values <= 0
// or above LinkMBps are clamped to LinkMBps — the dedicated-path ceiling).
func Simulate(residentMB, dirtyRateMBps, linkMBps float64) Result {
	link := linkMBps
	if link <= 0 || link > LinkMBps {
		link = LinkMBps
	}
	if residentMB < 0 {
		residentMB = 0
	}
	if dirtyRateMBps < 0 {
		dirtyRateMBps = 0
	}

	// targetMB is the largest dirty set that still fits the downtime budget.
	targetMB := link * downtimeTarget.Seconds()

	if dirtyRateMBps >= convergenceRatio*link && residentMB > targetMB {
		// Non-convergent: each round re-dirties nearly everything it
		// copies. Model the futile rounds the source wastes before
		// aborting; the guest never pauses and stays on the source.
		res := Result{Converged: false, SlowdownFactor: 1}
		remaining := residentMB
		for i := 0; i < abortRounds; i++ {
			t := remaining / link
			res.TransferredMB += remaining
			res.Duration += mbDuration(remaining, link)
			res.Rounds++
			remaining = math.Min(dirtyRateMBps*t, residentMB)
			if remaining <= 0 {
				break
			}
		}
		return res
	}

	res := Result{Converged: true, SlowdownFactor: 1}
	remaining := residentMB
	for round := 1; ; round++ {
		if remaining <= targetMB || round >= maxRounds {
			// Stop-and-copy: suspend, drain the final dirty set, resume.
			res.Rounds = round
			res.TransferredMB += remaining
			res.Downtime = suspendResume + mbDuration(remaining, link)
			res.Duration += res.Downtime
			return res
		}
		t := remaining / link
		res.TransferredMB += remaining
		res.Duration += mbDuration(remaining, link)
		remaining = math.Min(dirtyRateMBps*t, residentMB)
	}
}

func mbDuration(mb, mbps float64) time.Duration {
	if mbps <= 0 {
		return 0
	}
	return time.Duration(mb / mbps * float64(time.Second))
}

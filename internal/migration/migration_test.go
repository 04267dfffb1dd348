package migration

import (
	"testing"
	"time"
)

func TestPreCopyConvergesQuicklyForIdleGuest(t *testing.T) {
	res := Simulate(8192, 0, 0) // 1250 MB/s link, 300ms target
	if !res.Converged {
		t.Fatal("idle guest did not converge")
	}
	if res.Rounds != 2 {
		t.Errorf("idle guest took %d rounds, want 2 (one copy + empty stop-and-copy)", res.Rounds)
	}
	if res.TransferredMB != 8192 {
		t.Errorf("transferred %.0f MB, want exactly the resident set", res.TransferredMB)
	}
	// Nothing re-dirties, so downtime is just the suspend/resume floor.
	if res.Downtime != 50*time.Millisecond {
		t.Errorf("downtime %v, want bare suspend/resume", res.Downtime)
	}
}

func TestPreCopyIteratesAndMeetsDowntimeTarget(t *testing.T) {
	// 16 GB resident, dirtying 250 MB/s over a 1250 MB/s link: ratio 0.2,
	// each round shrinks the set 5x, so a handful of rounds converge.
	res := Simulate(16384, 250, 0)
	if !res.Converged {
		t.Fatal("moderate writer did not converge")
	}
	if res.Rounds < 2 {
		t.Errorf("rounds = %d, want iterative copy (>1)", res.Rounds)
	}
	if res.TransferredMB <= 16384 {
		t.Errorf("transferred %.0f MB, want > resident set (re-dirtied pages recopied)", res.TransferredMB)
	}
	// Final dirty set fit the 300ms budget, plus 50ms suspend/resume.
	if res.Downtime > 350*time.Millisecond {
		t.Errorf("downtime %v exceeds target+suspend", res.Downtime)
	}
	if res.Downtime <= 0 || res.Duration < res.Downtime {
		t.Errorf("inconsistent times: duration %v downtime %v", res.Duration, res.Downtime)
	}
}

func TestDirtyRateAboveLinkDoesNotConverge(t *testing.T) {
	res := Simulate(16384, 1300, 0) // dirties faster than the link drains
	if res.Converged {
		t.Fatal("writer outpacing the link converged")
	}
	if res.Downtime != 0 {
		t.Errorf("aborted migration paused the guest for %v", res.Downtime)
	}
	if res.TransferredMB <= 0 || res.Duration <= 0 {
		t.Error("abort reported no wasted work")
	}
	if res.Rounds != abortRounds {
		t.Errorf("wasted %d rounds, want %d", res.Rounds, abortRounds)
	}
}

func TestDeflatedVMMigratesCheaper(t *testing.T) {
	// The deflate-then-migrate premise: shrinking the resident set (and,
	// with it, the dirty rate) must strictly reduce bytes moved, total
	// duration, and downtime.
	full := Simulate(16384, 600, 0)
	deflated := Simulate(4096, 150, 0)
	if !full.Converged || !deflated.Converged {
		t.Fatal("both variants should converge")
	}
	if deflated.TransferredMB >= full.TransferredMB {
		t.Errorf("deflated moved %.0f MB, full %.0f MB", deflated.TransferredMB, full.TransferredMB)
	}
	if deflated.Duration >= full.Duration {
		t.Errorf("deflated took %v, full %v", deflated.Duration, full.Duration)
	}
	if deflated.Downtime > full.Downtime {
		t.Errorf("deflated downtime %v above full %v", deflated.Downtime, full.Downtime)
	}
}

func TestContendedLinkSlowsMigration(t *testing.T) {
	fast := Simulate(8192, 200, 1250)
	slow := Simulate(8192, 200, 400) // NIC contended: 400 MB/s effective
	if slow.Duration <= fast.Duration {
		t.Errorf("contended link duration %v not above dedicated %v", slow.Duration, fast.Duration)
	}
	// A heavy writer that converges on the full link fails on the slice.
	if res := Simulate(8192, 700, 400); res.Converged {
		t.Error("700 MB/s writer converged over a 400 MB/s slice")
	}
}

func TestMaxRoundsForcesStopAndCopy(t *testing.T) {
	// Just under the convergence ratio: each round shrinks the set only to
	// 0.88 of itself, so 64 GB is still over a GB after 29 rounds and the
	// round cap forces a (long) stop-and-copy instead of iterating on.
	res := Simulate(65536, 1100, 0) // ratio 0.88 < 0.9
	if !res.Converged {
		t.Fatal("sub-ratio writer should force-converge at the round cap")
	}
	if res.Rounds != maxRounds {
		t.Errorf("rounds = %d, want the cap %d", res.Rounds, maxRounds)
	}
	if res.Downtime <= 300*time.Millisecond {
		t.Error("forced stop-and-copy should blow the downtime target")
	}
}

func TestZeroResidentIsTrivial(t *testing.T) {
	res := Simulate(0, 0, 0)
	if !res.Converged || res.TransferredMB != 0 {
		t.Errorf("zero-resident migration: %+v", res)
	}
}

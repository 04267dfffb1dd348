package cluster

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"deflation/internal/journal"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/simresult.golden from this build's output")

// goldenCell is one seeded simulation whose full SimResult is pinned.
type goldenCell struct {
	name string
	cfg  SimConfig
}

// goldenCells covers every RunSim code path that mutates server state: the
// Fig. 8c baseline and its preemption-only twin, node crashes with cascade
// faults, manager crash-restart recovery, migration-based reclamation, HA
// failover with partitions, and partitions that heal before the lease
// expires.
func goldenCells() []goldenCell {
	mgrCrash := chaosSim()
	mgrCrash.Faults.ManagerCrashMTBF = 5 * time.Minute

	mig := chaosSim()
	mig.Reclaim = ReclaimDeflateThenMigrate
	mig.Faults.ManagerCrashMTBF = 5 * time.Minute
	mig.Faults.MigrationFailProb = 0.2

	// Partitions shorter than the lease: the leader heals back into its own
	// term, and no takeover happens.
	shortPartition := haChaosSim()
	shortPartition.Faults.ManagerCrashMTBF = 0
	shortPartition.Faults.DiskFailProb = 0
	shortPartition.LeaseTimeout = 3 * time.Minute
	shortPartition.Faults.PartitionDuration = time.Minute

	return []goldenCell{
		{"fig8c-baseline", smallSim(ModeDeflation, 1.6)},
		{"preemption-only", smallSim(ModePreemptionOnly, 1.6)},
		{"chaos", chaosSim()},
		{"manager-crash", mgrCrash},
		{"migration", mig},
		{"ha-failover", haChaosSim()},
		{"ha-short-partition", shortPartition},
	}
}

// TestSimResultGolden pins the complete SimResult of every golden cell,
// floats at full precision, against a capture taken before the ordered
// tables and the incremental sampler existed: "bit-identical output" is this
// test, not a sentence. Regenerate with -update only when a PR means to
// change simulation results. Every cell also checks the books against the
// leader after every handler, and each cell that journals checks the
// leader's fold against its journal's replay (runCheckingBooks).
func TestSimResultGolden(t *testing.T) {
	const path = "testdata/simresult.golden"
	var b strings.Builder
	for _, c := range goldenCells() {
		res, err := runCheckingBooks(t, c.name, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s: %+v\n", c.name, res)
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("cell diverged from golden:\n got: %s\nwant: %s", line, w)
		}
	}
}

// TestSimBooksFollowFastRecovery runs the chaos cell with nodes that recover
// before the failure detector's misses add up: a crashed node's VMs vanish
// without an eviction, and the manager learns of each only when its
// departure finds it gone. The books must drop it then too.
func TestSimBooksFollowFastRecovery(t *testing.T) {
	cfg := chaosSim()
	cfg.Faults.RecoveryTime = 5 * time.Second
	if _, err := runCheckingBooks(t, "fast-recovery", cfg); err != nil {
		t.Fatal(err)
	}
}

// runCheckingBooks runs cfg and, after every handler, compares the VMs on
// the sim's books with the leader's placements. Each boundary where they
// differ fails t; the first is reported in full. A run that journals also
// tails the leader's journal, as a standby would, and requires its replay
// to equal the leader's live fold at every boundary where the leader is
// reachable and its journal healthy.
func runCheckingBooks(t *testing.T, name string, cfg SimConfig) (SimResult, error) {
	t.Helper()
	s, err := newSim(cfg, nil)
	if err != nil {
		return SimResult{}, err
	}
	checked, mismatched := 0, 0
	var (
		tailed             *journal.Journal
		replayed           *WALState
		folds, foldsDiffer int
	)
	checkFold := func() {
		j := s.mgr.Journal()
		if j == nil || s.headless || s.mgr.WALError() != nil {
			return
		}
		if j != tailed {
			tailed, replayed = j, NewWALState()
		}
		b, err := j.RecordsAfter(replayed.AppliedSeq)
		if err == nil {
			replayed, err = replay(replayed, b)
		}
		if err != nil {
			t.Fatalf("%s: tailing the leader's journal: %v", name, err)
		}
		folds++
		if diff := foldDiff(replayed, s.mgr.fold); diff != nil {
			if foldsDiffer++; foldsDiffer == 1 {
				t.Errorf("%s: at %v the replayed journal differs from the leader's fold:\n%s",
					name, s.clock.Now(), strings.Join(diff, "\n"))
			}
		}
	}
	s.afterHandler = func() {
		checked++
		checkFold()
		var booksOnly, leaderOnly []string
		for vm := range s.books.running {
			if _, ok := s.mgr.fold.Placements[vm]; !ok {
				booksOnly = append(booksOnly, vm)
			}
		}
		for vm := range s.mgr.fold.Placements {
			if _, ok := s.books.running[vm]; !ok {
				leaderOnly = append(leaderOnly, vm)
			}
		}
		if len(booksOnly)+len(leaderOnly) == 0 {
			return
		}
		if mismatched++; mismatched == 1 {
			sort.Strings(booksOnly)
			sort.Strings(leaderOnly)
			t.Errorf("%s: at %v the books hold %q that the leader does not place, and miss %q that it does",
				name, s.clock.Now(), booksOnly, leaderOnly)
		}
	}
	res, err := s.run()
	if mismatched > 0 {
		t.Errorf("%s: books differ from the leader at %d of %d handler boundaries", name, mismatched, checked)
	}
	if foldsDiffer > 0 {
		t.Errorf("%s: the replayed journal differs from the leader's fold at %d of %d boundaries", name, foldsDiffer, folds)
	}
	if s.jdir != "" && folds == 0 {
		t.Errorf("%s: the run journals, but no boundary compared the folds", name)
	}
	if checked == 0 {
		t.Errorf("%s: no handler ran", name)
	}
	return res, err
}

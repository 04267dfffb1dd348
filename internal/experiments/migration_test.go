package experiments

import (
	"strings"
	"testing"
)

func TestFigMigrationQuickShapeClaims(t *testing.T) {
	r := quick(t, "migration").(curves)
	preemption, migrations, movedGB, downtime := r[0].series, r[2].series, r[3].series, r[4].series
	if len(preemption) != 4 || len(migrations) != 4 || len(movedGB) != 4 {
		t.Fatalf("series count: %d policies", len(preemption))
	}
	// Index by the policy table order.
	const (
		preemptOnly = iota
		migrationOnly
		deflation
		deflateMigrate
	)

	// The migration-disabled rows ARE the Fig. 8c curves — byte-identical,
	// not approximately equal (the zero reclaim policy takes the exact
	// pre-migration code path).
	fig8c := quick(t, "8c").(curves)[0]
	for i, oc := range r[0].x {
		if got, want := preemption[preemptOnly].Values[i], fig8c.series[1].Values[i]; got != want {
			t.Errorf("oc=%g%%: preempt-only %.6f != Fig 8c preempt-only %.6f", oc, got, want)
		}
		if got, want := preemption[deflation].Values[i], fig8c.series[0].Values[i]; got != want {
			t.Errorf("oc=%g%%: deflation %.6f != Fig 8c deflation %.6f", oc, got, want)
		}
	}

	for i, oc := range r[0].x {
		// Migration-disabled policies move nothing; migration-enabled ones
		// actually migrate.
		for _, p := range []int{preemptOnly, deflation} {
			if migrations[p].Values[i] != 0 || movedGB[p].Values[i] != 0 {
				t.Errorf("oc=%g%%: %s migrated (%v migrations, %v GB) with migration disabled",
					oc, migrations[p].Name, migrations[p].Values[i], movedGB[p].Values[i])
			}
		}
		for _, p := range []int{migrationOnly, deflateMigrate} {
			if migrations[p].Values[i] == 0 {
				t.Errorf("oc=%g%%: %s performed no migrations", oc, migrations[p].Name)
			}
		}
		// Migrating victims out of the way preempts fewer of them than
		// killing them outright.
		if mo, po := preemption[migrationOnly].Values[i], preemption[preemptOnly].Values[i]; mo >= po {
			t.Errorf("oc=%g%%: migration-only preemption %.4f not below preempt-only %.4f", oc, mo, po)
		}
		// The headline claim: deflating victims before migrating them moves
		// fewer bytes and pauses VMs for less total downtime than migrating
		// them at full size — at every overcommit level ≥1.5× in the sweep.
		if dm, mo := movedGB[deflateMigrate].Values[i], movedGB[migrationOnly].Values[i]; dm >= mo {
			t.Errorf("oc=%g%%: deflate+migrate moved %.1f GB, not below migration-only %.1f GB", oc, dm, mo)
		}
		if dm, mo := downtime[deflateMigrate].Values[i], downtime[migrationOnly].Values[i]; dm >= mo {
			t.Errorf("oc=%g%%: deflate+migrate downtime %.1fs not below migration-only %.1fs", oc, dm, mo)
		}
	}

	table := r.Table()
	for _, want := range []string{"preemption probability", "data moved (GB)", "stop-and-copy downtime",
		"Preempt-only", "Migration-only", "Deflation", "Deflate+migrate"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

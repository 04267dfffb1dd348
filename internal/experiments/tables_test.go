package experiments

import (
	"strings"
	"testing"
)

func TestTable1MechanismsAllFire(t *testing.T) {
	r := quick(t, "table1").(table1Result)
	if len(r) != 4 {
		t.Fatalf("rows = %d, want the 4 Table 1 mechanisms", len(r))
	}
	apps := map[string]bool{}
	for _, row := range r {
		apps[row.Application] = true
		if row.Effect == "" || row.Mechanism == "" {
			t.Errorf("empty row: %+v", row)
		}
	}
	for _, want := range []string{"memcached", "JVM", "web servers", "Spark"} {
		if !apps[want] {
			t.Errorf("missing mechanism row for %s", want)
		}
	}
	if !strings.Contains(r.Table(), "Table 1") {
		t.Error("rendering broken")
	}
}

func TestTable2WorkloadsAllRun(t *testing.T) {
	r := quick(t, "table2").(table2Result)
	if len(r) != 7 {
		t.Fatalf("rows = %d, want the 7 Table 2 workloads", len(r))
	}
	for _, row := range r {
		if row.Baseline == "" {
			t.Errorf("workload %s has no baseline", row.Workload)
		}
	}
	if !strings.Contains(r.Table(), "Table 2") {
		t.Error("rendering broken")
	}
}

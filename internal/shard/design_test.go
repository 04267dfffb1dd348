package shard

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"deflation/internal/cluster"
)

// designRoute matches a router row of DESIGN.md's endpoint table.
var designRoute = regexp.MustCompile("^\\| router \\| (\\w+) \\| `([^`]+)` \\| (?:yes|no) \\| (?:yes|no) \\| (?:yes|no) \\|$")

// TestDesignListsEveryRoute holds DESIGN.md's router rows to the routes a
// shard router serves beside the manager's own, in both directions.
func TestDesignListsEveryRoute(t *testing.T) {
	var want []string
	for pattern := range NewRouter("shard-a", NewMapStore(Map{})).routes() {
		if !slices.ContainsFunc(cluster.ManagerRoutes(), func(r cluster.ManagerRoute) bool {
			return r.Method+" "+r.Path == pattern
		}) {
			want = append(want, pattern)
		}
	}
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(doc), "\n") {
		if m := designRoute.FindStringSubmatch(line); m != nil {
			got = append(got, m[1]+" "+m[2])
		}
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("DESIGN.md lists router routes %q, the router serves %q", got, want)
	}
}

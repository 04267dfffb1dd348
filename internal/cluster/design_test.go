package cluster

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// designRoute matches one row of DESIGN.md's endpoint table.
var designRoute = regexp.MustCompile("^\\| (agent|manager) \\| (\\w+) \\| `([^`]+)` \\| (yes|no) \\| (yes|no) \\| (yes|no) \\|$")

// TestDesignListsEveryRoute holds DESIGN.md's endpoint table to the two
// wire tables: every route the agent and the manager serve is listed with
// its fencing, retry and journaling, and every listed route is served.
func TestDesignListsEveryRoute(t *testing.T) {
	yn := map[bool]string{true: "yes", false: "no"}
	var want []string
	for _, op := range agentOps {
		v := reflect.ValueOf(op).Elem()
		want = append(want, "agent "+v.FieldByName("method").String()+" "+v.FieldByName("path").String()+
			" "+yn[v.FieldByName("fenced").Bool()]+" "+yn[v.FieldByName("retry").Bool()]+" no")
	}
	for _, rt := range managerRoutes {
		want = append(want, "manager "+rt.Method+" "+rt.Path+" no no "+yn[rt.journal != ""])
	}
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(doc), "\n") {
		if m := designRoute.FindStringSubmatch(line); m != nil {
			got = append(got, m[1]+" "+m[2]+" "+m[3]+" "+m[4]+" "+m[5]+" "+m[6])
		}
	}
	for _, w := range want {
		if !slices.Contains(got, w) {
			t.Errorf("DESIGN.md does not list %q", w)
		}
	}
	for _, g := range got {
		if !slices.Contains(want, g) {
			t.Errorf("DESIGN.md lists %q, which no wire table serves", g)
		}
	}
}

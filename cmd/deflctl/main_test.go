package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"deflation/internal/cascade"
	"deflation/internal/cluster"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/shard"
	"deflation/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// wallClock matches the fields of deflctl's output that read the wall
// clock: the snapshot's age and the recovery's duration, as text and as
// JSON.
var wallClock = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`age=[0-9.]+s`), "age=<wall-clock>"},
	{regexp.MustCompile(`placements in \S+ \(`), "placements in <wall-clock> ("},
	{regexp.MustCompile(`"snapshot_age_seconds": [0-9.e-]+`), `"snapshot_age_seconds": "<wall-clock>"`},
	{regexp.MustCompile(`"duration_ns": [0-9]+`), `"duration_ns": "<wall-clock>"`},
}

// session runs deflctl command lines against one manager and records each
// one's stdout and error.
type session struct {
	t       *testing.T
	manager string
	out     bytes.Buffer
}

func (s *session) run(args ...string) {
	fmt.Fprintf(&s.out, "$ deflctl %s\n", strings.Join(args, " "))
	var stderr bytes.Buffer
	err := run(context.Background(), append([]string{"-manager", s.manager}, args...), &s.out, &stderr)
	if err != nil {
		fmt.Fprintf(&s.out, "error: %v\n", err)
	}
	if stderr.Len() > 0 {
		s.t.Errorf("deflctl %s wrote to stderr: %s", strings.Join(args, " "), stderr.String())
	}
}

// check compares the session's output, with the replacements made and the
// wall clock masked, to testdata/<name>.golden.
func (s *session) check(name string, replace ...string) {
	got := strings.NewReplacer(replace...).Replace(s.out.String())
	for _, m := range wallClock {
		got = m.re.ReplaceAllString(got, m.with)
	}
	path := "testdata/" + name + ".golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			s.t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		s.t.Fatal(err)
	}
	if got != string(want) {
		s.t.Errorf("deflctl output differs from %s (regenerate with -update only when the output is meant to change):\n%s", path, got)
	}
}

// TestManagerCommandsMatchGolden drives deflctl's manager commands against
// a durable manager of two in-process servers served on loopback, refusals
// included, and pins what each prints.
func TestManagerCommandsMatchGolden(t *testing.T) {
	var nodes []cluster.Node
	for _, name := range []string{"s0", "s1"} {
		h, err := hypervisor.NewHost(hypervisor.Config{Name: name, Capacity: restypes.V(16, 64*1024, 4000, 4000)})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, cluster.NewLocalController(h, cascade.AllLevels(), cluster.ModeDeflation))
	}
	dir := t.TempDir()
	mgr, rep, err := cluster.TakeOver(cluster.DurabilityConfig{Dir: dir}, nil, nodes, cluster.BestFit, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Journal().Close() })
	api, err := cluster.NewManagerAPI(mgr)
	if err != nil {
		t.Fatal(err)
	}
	api.SetRecovery(rep)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)

	s := &session{t: t, manager: srv.URL}
	s.run("launch", "-name", "web-1", "-cpus", "4", "-mem-gb", "8", "-app", "memcached-aware", "-priority", "high")
	s.run("launch", "-name", "batch-1", "-cpus", "8", "-mem-gb", "16", "-min-frac", "0.25")
	s.run("launch", "-name", "batch-2", "-cpus", "12", "-mem-gb", "16", "-min-frac", "0.25")
	s.run("launch", "-name", "web-1")
	s.run("release", "-name", "batch-2")
	s.run("release", "-name", "ghost")
	s.run("migrate", "-name", "batch-1", "-dest", "s1")
	s.run("migrate", "-name", "batch-1", "-dest", "s0")
	s.run("status", "-servers")
	s.run("state")
	s.run("state", "-json")
	s.check("manager", dir, "<state-dir>")
}

// TestShardCommandsMatchGolden drives deflctl's shard-map and adoption
// commands against a two-shard federation: the map, a key's owner, one
// adoption of a crash-stopped peer, and its refused repeat.
func TestShardCommandsMatchGolden(t *testing.T) {
	fed, err := shard.NewFederation(shard.FederationConfig{Shards: []string{"s0", "s1"}, StateRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	urls := fed.URLs()

	s := &session{t: t, manager: urls[0]}
	s.run("shardmap", "-key", "web-1")
	if err := fed.Kill("s1"); err != nil {
		t.Fatal(err)
	}
	s.run("adopt", "-shard", "s1")
	s.run("adopt", "-shard", "s1")
	s.run("shardmap", "-key", "web-1")
	s.check("shard", urls[0], "<s0>", urls[1], "<s1>")
}

// TestMetricsMatchGolden scrapes a registry holding a counter, an empty
// histogram and a filled one with two labels: the empty histogram prints
// that it has no data, the filled one its quantiles.
func TestMetricsMatchGolden(t *testing.T) {
	sink := telemetry.NewSink()
	reg := sink.Registry
	reg.Counter("launches_total", "launches", nil).Add(3)
	reg.Histogram("idle_ms", "never observed", []float64{1, 2, 5}, nil)
	h := reg.Histogram("rpc_ms", "observed", []float64{1, 2, 5}, telemetry.Labels{"op": "launch", "node": "s0"})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	srv := httptest.NewServer(sink.Handler())
	t.Cleanup(srv.Close)

	s := &session{t: t, manager: srv.URL}
	s.run("metrics")
	s.check("metrics")
}

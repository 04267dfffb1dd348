package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"deflation/internal/cascade"
	"deflation/internal/hypervisor"
	"deflation/internal/journal"
	"deflation/internal/restypes"
	"deflation/internal/substrate"
	"deflation/internal/vm"
)

// wirePlane is one control plane on loopback listeners: three agents (s0,
// s1, s2) and a manager that reaches s0 and s1 over HTTP. s2 starts
// unregistered.
type wirePlane struct {
	agents []string // base URLs
	mgr    string   // base URL
	m      *Manager
	fail   *atomic.Bool // fails the journal's appends while set
	masks  []string     // old, new pairs
}

// newWirePlane boots a plane whose manager holds epoch 1 as leader "m1",
// journaled when durable.
func newWirePlane(t *testing.T, durable bool) *wirePlane {
	t.Helper()
	p := &wirePlane{fail: new(atomic.Bool)}
	var nodes []Node
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("s%d", i)
		h, err := hypervisor.NewHost(hypervisor.Config{Name: name, Capacity: restypes.V(16, 65536, 400, 400)})
		if err != nil {
			t.Fatal(err)
		}
		api, err := NewControllerAPI(NewLocalController(h, cascade.AllLevels(), ModeDeflation))
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(api.Handler())
		t.Cleanup(srv.Close)
		p.agents = append(p.agents, srv.URL)
		p.masks = append(p.masks, srv.URL, "http://"+name, api.instance, "<instance>")
		if i < 2 {
			n, err := NewRemoteNode(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
	}
	m, err := NewManager(nodes, BestFit, 7)
	if err != nil {
		t.Fatal(err)
	}
	if durable {
		dir := t.TempDir()
		j, err := journal.Open(dir, journal.Options{SyncEvery: 1, FailOp: func(op string) error {
			if p.fail.Load() && op == "append" {
				return errors.New("injected disk error")
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		m.AttachJournal(j, 1<<30)
		p.masks = append(p.masks, dir, "<journal-dir>")
	}
	m.SetIdentity("m1")
	m.SetEpoch(1)
	api, err := NewManagerAPI(m)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	p.mgr, p.m = srv.URL, m
	p.masks = append(p.masks, srv.URL, "http://manager")
	return p
}

// wireLog records exchanges in the golden file's format.
type wireLog struct {
	t   *testing.T
	out strings.Builder
}

// wallClockField matches the reply fields derived from wall-clock time.
var wallClockField = regexp.MustCompile(`"(epoch_age_seconds|snapshot_age_seconds|age_seconds)":[-+.0-9e]+|"last_heartbeat_seconds":\{[^}]*\}`)

// do sends one request (hdr is name, value pairs) and records the reply.
func (l *wireLog) do(p *wirePlane, base, method, path, body string, hdr ...string) []byte {
	l.t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		l.t.Fatal(err)
	}
	var note []string
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
		note = append(note, hdr[i]+": "+hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		l.t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		l.t.Fatal(err)
	}
	mask := strings.NewReplacer(p.masks...)
	host := mask.Replace(base)
	fmt.Fprintf(&l.out, "> %s %s%s", method, host, path)
	if len(note) > 0 {
		fmt.Fprintf(&l.out, " [%s]", strings.Join(note, "; "))
	}
	fmt.Fprintf(&l.out, "\n< %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	if r := resp.Header.Get("Idempotency-Replayed"); r != "" {
		fmt.Fprintf(&l.out, " [Idempotency-Replayed: %s]", r)
	}
	masked := wallClockField.ReplaceAllStringFunc(mask.Replace(string(got)), func(f string) string {
		key, _, _ := strings.Cut(f, ":")
		return key + `:"<wall-clock>"`
	})
	fmt.Fprintf(&l.out, "\n%s", masked)
	if !strings.HasSuffix(masked, "\n") {
		l.out.WriteString("<no newline>\n")
	}
	return got
}

func (l *wireLog) scene(name string) { fmt.Fprintf(&l.out, "\n## %s\n", name) }

func wireJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWireGolden drives every agent route, and every manager route over
// RemoteNodes, through a fixed script: each route on success and on each
// error status it can return. It pins what a client sees — method, path,
// status, Content-Type, Idempotency-Replayed and the body bytes — in
// testdata/wire.golden; regenerate with -update only when a change means to
// alter the wire.
func TestWireGolden(t *testing.T) {
	l := &wireLog{t: t}
	agentScene(t, l)
	managerScene(t, l)
	for _, op := range []string{"launch", "release", "migrate", "register"} {
		poisonScene(t, l, op)
	}
	deposedScene(t, l)
	deflatingScene(t, l)

	const path = "testdata/wire.golden"
	got := l.out.String()
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
			t.Fatalf("wire diverged from golden at line %d:\n got: %s\nwant: %s", i+1, line, w)
		}
	}
	t.Fatalf("wire golden has %d lines, got %d", len(wantLines), strings.Count(got, "\n")+1)
}

func agentScene(t *testing.T, l *wireLog) {
	p := newWirePlane(t, false)
	s0, s1, s2 := p.agents[0], p.agents[1], p.agents[2]
	l.scene("agent")
	hi := wireSpec("hi", vm.HighPriority)
	huge := wireSpec("huge", vm.LowPriority)
	huge.Size, huge.MinSize = restypes.V(64, 65536, 100, 100), restypes.V(64, 65536, 100, 100)
	target := `{"target":{"CPU":2,"MemoryMB":8192,"DiskMBps":0,"NetMBps":0}}`

	l.do(p, s0, "GET", "/v1/healthz", "")
	l.do(p, s0, "GET", "/v1/healthz", "", epochHeader, "x")
	l.do(p, s0, "GET", "/v1/state", "")
	l.do(p, s0, "POST", "/v1/vms", wireJSON(t, wireSpec("a", vm.LowPriority)))
	l.do(p, s0, "POST", "/v1/vms", wireJSON(t, wireSpec("a", vm.LowPriority)))
	l.do(p, s0, "POST", "/v1/vms", "{not json")
	l.do(p, s0, "POST", "/v1/vms", wireJSON(t, huge))
	l.do(p, s0, "POST", "/v1/vms", wireJSON(t, hi))
	l.do(p, s0, "GET", "/v1/state", "")

	l.do(p, s0, "POST", "/v1/vms/a/deflate", target, "Idempotency-Key", "k1")
	l.do(p, s0, "POST", "/v1/vms/a/deflate", target, "Idempotency-Key", "k1")
	l.do(p, s0, "POST", "/v1/vms/ghost/deflate", target)
	l.do(p, s0, "POST", "/v1/vms/a/deflate", "{not json")
	l.do(p, s0, "POST", "/v1/vms/hi/deflate", target)
	l.do(p, s0, "POST", "/v1/vms/a/deflate", `{"target":{"CPU":100,"MemoryMB":0,"DiskMBps":0,"NetMBps":0}}`)
	l.do(p, s0, "POST", "/v1/vms/a/deflate-fully", "")
	l.do(p, s0, "POST", "/v1/vms/ghost/deflate-fully", "")

	cp := l.do(p, s0, "GET", "/v1/vms/a/checkpoint", "")
	l.do(p, s0, "GET", "/v1/vms/ghost/checkpoint", "")
	l.do(p, s1, "POST", "/v1/restore", string(cp))
	l.do(p, s1, "POST", "/v1/restore", string(cp))
	l.do(p, s1, "POST", "/v1/restore", "{not json")
	var other VMCheckpoint
	if err := json.Unmarshal(cp, &other); err != nil {
		t.Fatal(err)
	}
	other.VM.Domain.Name, other.VM.Domain.Kind = "k", substrate.KindContainer
	l.do(p, s1, "POST", "/v1/restore", wireJSON(t, other))
	other.VM.Domain.Name, other.VM.Domain.Kind = "big", substrate.KindHypervisor
	other.VM.Domain.Size = restypes.V(16, 65536, 400, 400)
	other.VM.Domain.Alloc = other.VM.Domain.Size
	l.do(p, s1, "POST", "/v1/restore", wireJSON(t, other))

	l.do(p, s0, "POST", "/v1/streams/m1/reserve", `{"rate_mbps":100}`)
	l.do(p, s0, "POST", "/v1/streams/m1/reserve", `{"rate_mbps":100}`)
	l.do(p, s0, "POST", "/v1/streams/m2/reserve", "{not json")
	l.do(p, s0, "POST", "/v1/streams/m2/reserve", `{"rate_mbps":0}`)
	nic := wireSpec("nic", vm.HighPriority)
	nic.Size.NetMBps, nic.MinSize.NetMBps = 400, 400
	l.do(p, s2, "POST", "/v1/vms", wireJSON(t, nic))
	l.do(p, s2, "POST", "/v1/streams/m3/reserve", `{"rate_mbps":100}`)
	l.do(p, s0, "DELETE", "/v1/streams/m1", "")
	l.do(p, s0, "DELETE", "/v1/streams/never", "")

	l.do(p, s0, "DELETE", "/v1/vms/a", "")
	l.do(p, s0, "DELETE", "/v1/vms/a", "")

	// A newer leader asserts epoch 5; epoch 3 is refused on every fenced route.
	l.do(p, s0, "GET", "/v1/healthz", "", epochHeader, "5", leaderHeader, "L5")
	stale := []string{epochHeader, "3", leaderHeader, "L3"}
	l.do(p, s0, "GET", "/v1/healthz", "", stale...)
	l.do(p, s0, "POST", "/v1/vms", wireJSON(t, wireSpec("b", vm.LowPriority)), stale...)
	l.do(p, s0, "DELETE", "/v1/vms/hi", "", stale...)
	l.do(p, s0, "POST", "/v1/vms/hi/deflate", target, stale...)
	l.do(p, s0, "POST", "/v1/vms/hi/deflate-fully", "", stale...)
	l.do(p, s0, "POST", "/v1/restore", string(cp), stale...)
	l.do(p, s0, "POST", "/v1/streams/m4/reserve", `{"rate_mbps":100}`, stale...)
	l.do(p, s0, "DELETE", "/v1/streams/m4", "", stale...)
	l.do(p, s0, "GET", "/v1/vms/hi/checkpoint", "", stale...)
	l.do(p, s0, "GET", "/v1/state", "", stale...)
	l.do(p, s0, "GET", "/v1/healthz", "")
}

func managerScene(t *testing.T, l *wireLog) {
	p := newWirePlane(t, true)
	mg := p.mgr
	l.scene("manager")
	huge := wireSpec("huge", vm.LowPriority)
	huge.Size, huge.MinSize = restypes.V(64, 65536, 100, 100), restypes.V(64, 65536, 100, 100)

	l.do(p, mg, "GET", "/v1/cluster", "")
	l.do(p, mg, "POST", "/v1/vms", wireJSON(t, wireSpec("a", vm.LowPriority)))
	l.do(p, mg, "POST", "/v1/vms", wireJSON(t, wireSpec("a", vm.LowPriority)))
	l.do(p, mg, "POST", "/v1/vms", "{not json")
	l.do(p, mg, "POST", "/v1/vms", wireJSON(t, huge))
	l.do(p, mg, "GET", "/v1/cluster?servers=true", "")

	src := p.m.Placements()["a"]
	dest := "s0"
	if src == "s0" {
		dest = "s1"
	}
	l.do(p, mg, "POST", "/v1/migrate", "{not json")
	l.do(p, mg, "POST", "/v1/migrate", `{"vm":"a"}`)
	l.do(p, mg, "POST", "/v1/migrate", wireJSON(t, MigrateRequest{VM: "ghost", Dest: dest}))
	l.do(p, mg, "POST", "/v1/migrate", wireJSON(t, MigrateRequest{VM: "a", Dest: "nowhere"}))
	l.do(p, mg, "POST", "/v1/migrate", wireJSON(t, MigrateRequest{VM: "a", Dest: src}))
	l.do(p, mg, "POST", "/v1/migrate", wireJSON(t, MigrateRequest{VM: "a", Dest: dest}))

	reg := wireJSON(t, RegisterNodeRequest{Name: "s2", URL: p.agents[2]})
	l.do(p, mg, "POST", "/v1/nodes", "{not json")
	l.do(p, mg, "POST", "/v1/nodes", `{"name":"s2"}`)
	l.do(p, mg, "POST", "/v1/nodes", reg)
	l.do(p, mg, "POST", "/v1/nodes", reg)
	l.do(p, mg, "POST", "/v1/nodes", wireJSON(t, RegisterNodeRequest{URL: p.agents[2]}))
	l.do(p, mg, "GET", "/v1/nodes", "")

	resp, err := http.Get(p.agents[2] + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	summary := resp.Header.Get(capacityHeader)
	l.do(p, mg, "POST", "/v1/nodes/s2/heartbeat", "")
	l.do(p, mg, "POST", "/v1/nodes/s2/heartbeat", summary)
	l.do(p, mg, "POST", "/v1/nodes/s2/heartbeat", "{not json")
	l.do(p, mg, "POST", "/v1/nodes/ghost/heartbeat", "")
	l.do(p, mg, "GET", "/v1/nodes", "")

	l.do(p, mg, "DELETE", "/v1/vms/a", "")
	l.do(p, mg, "DELETE", "/v1/vms/a", "")
	l.do(p, mg, "GET", "/v1/state", "")
	l.do(p, mg, "GET", "/v1/replica/wal?after=0", "")
	l.do(p, mg, "GET", "/v1/replica/wal?after=x", "")
}

// poisonScene fails the journal under one command: the command applies in
// memory but is refused with 503, and every later command is refused up
// front while reads keep serving.
func poisonScene(t *testing.T, l *wireLog, op string) {
	p := newWirePlane(t, true)
	mg := p.mgr
	l.scene("poisoned journal: " + op)
	launchA := wireJSON(t, wireSpec("a", vm.LowPriority))
	reg := wireJSON(t, RegisterNodeRequest{Name: "s2", URL: p.agents[2]})
	switch op {
	case "launch":
		p.fail.Store(true)
		l.do(p, mg, "POST", "/v1/vms", launchA)
	case "release":
		l.do(p, mg, "POST", "/v1/vms", launchA)
		p.fail.Store(true)
		l.do(p, mg, "DELETE", "/v1/vms/a", "")
	case "migrate":
		l.do(p, mg, "POST", "/v1/vms", launchA)
		dest := "s0"
		if p.m.Placements()["a"] == "s0" {
			dest = "s1"
		}
		p.fail.Store(true)
		l.do(p, mg, "POST", "/v1/migrate", wireJSON(t, MigrateRequest{VM: "a", Dest: dest}))
	case "register":
		p.fail.Store(true)
		l.do(p, mg, "POST", "/v1/nodes", reg)
	}
	p.fail.Store(false)
	l.do(p, mg, "POST", "/v1/vms", wireJSON(t, wireSpec("b", vm.LowPriority)))
	if op == "launch" {
		l.do(p, mg, "DELETE", "/v1/vms/a", "")
		l.do(p, mg, "POST", "/v1/migrate", wireJSON(t, MigrateRequest{VM: "a", Dest: "s1"}))
		l.do(p, mg, "POST", "/v1/nodes", reg)
		l.do(p, mg, "GET", "/v1/state", "")
	}
}

// deposedScene has a newer leader fence the agents behind a non-durable
// manager's back: its next command is refused with 412 and every later one
// with 503.
func deposedScene(t *testing.T, l *wireLog) {
	p := newWirePlane(t, false)
	mg := p.mgr
	l.scene("deposed")
	l.do(p, mg, "POST", "/v1/vms", wireJSON(t, wireSpec("a", vm.LowPriority)))
	l.do(p, mg, "GET", "/v1/replica/wal", "")
	for _, a := range p.agents[:2] {
		l.do(p, a, "GET", "/v1/healthz", "", epochHeader, "2", leaderHeader, "m2")
	}
	l.do(p, mg, "POST", "/v1/vms", wireJSON(t, wireSpec("b", vm.LowPriority)))
	l.do(p, mg, "POST", "/v1/vms", wireJSON(t, wireSpec("c", vm.LowPriority)))
	l.do(p, mg, "DELETE", "/v1/vms/a", "")
	l.do(p, mg, "POST", "/v1/migrate", wireJSON(t, MigrateRequest{VM: "a", Dest: "s1"}))
	l.do(p, mg, "POST", "/v1/nodes", wireJSON(t, RegisterNodeRequest{Name: "s2", URL: p.agents[2]}))
	l.do(p, mg, "POST", "/v1/nodes/s1/heartbeat", "")
	l.do(p, mg, "GET", "/v1/state", "")
}

// deflatingScene fills s0 through the manager until a launch deflates its
// residents, then launches straight at s0's agent: the manager's reply and
// the agent's LaunchReport both carry the count of deflations.
func deflatingScene(t *testing.T, l *wireLog) {
	p := newWirePlane(t, false)
	l.scene("deflating launch")
	for i := 0; i < 5; i++ {
		l.do(p, p.mgr, "POST", "/v1/vms", wireJSON(t, wireSpec(fmt.Sprintf("f%d", i), vm.LowPriority)))
	}
	l.do(p, p.agents[0], "POST", "/v1/vms", wireJSON(t, wireSpec("g", vm.LowPriority)))
}

// TestRemoteNodeStatusMapping runs every RemoteNode operation against a
// canned agent answering one status, for each status an agent can send,
// and pins what the caller gets: the sentinels errors.Is matches, whether
// the error is retryable, and how many attempts were made.
func TestRemoteNodeStatusMapping(t *testing.T) {
	sentinels := []struct {
		name string
		err  error
	}{
		{"VMNotFound", ErrVMNotFound}, {"VMExists", ErrVMExists}, {"NoCapacity", ErrNoCapacity},
		{"NodeNotFound", ErrNodeNotFound}, {"MigrationFailed", ErrMigrationFailed},
		{"StaleEpoch", ErrStaleEpoch}, {"KindMismatch", substrate.ErrKindMismatch},
		{"HighPriority", cascade.ErrHighPriority}, {"Preempted", cascade.ErrPreempted},
		{"ExceedsDeflatable", cascade.ErrExceedsDeflatable},
	}
	ops := []struct {
		name string
		ok   int
		call func(*RemoteNode) error
		want string
	}{
		{"state", 200, func(n *RemoteNode) error { _, err := n.State(); return err },
			"200 ok x1, 400 - x1, 404 - x1, 409 - x1, 412 StaleEpoch x1, 422 - x1, 500 -/retry x4, 503 -/retry x4, 507 -/retry x4"},
		{"ping", 200, func(n *RemoteNode) error { return n.Ping() },
			"200 ok x1, 400 - x1, 404 - x1, 409 - x1, 412 StaleEpoch x1, 422 - x1, 500 -/retry x1, 503 -/retry x1, 507 -/retry x1"},
		{"launch", 201, func(n *RemoteNode) error { _, err := n.Launch(wireSpec("a", vm.LowPriority)); return err },
			"201 ok x1, 400 - x1, 404 - x1, 409 VMExists x1, 412 StaleEpoch x1, 422 - x1, 500 -/retry x1, 503 -/retry x1, 507 NoCapacity x1"},
		{"release", 204, func(n *RemoteNode) error { return n.Release("a") },
			"204 ok x1, 400 - x1, 404 VMNotFound x1, 409 - x1, 412 StaleEpoch x1, 422 - x1, 500 -/retry x4, 503 -/retry x4, 507 -/retry x4"},
		{"deflate", 200, func(n *RemoteNode) error { _, err := n.Deflate("a", restypes.V(1, 0, 0, 0)); return err },
			"200 ok x1, 400 - x1, 404 VMNotFound x1, 409 - x1, 412 StaleEpoch x1, 422 - x1, 500 -/retry x4, 503 -/retry x4, 507 -/retry x4"},
		{"checkpoint", 200, func(n *RemoteNode) error { _, err := n.Checkpoint("a"); return err },
			"200 ok x1, 400 - x1, 404 VMNotFound x1, 409 MigrationFailed x1, 412 StaleEpoch x1, 422 - x1, 500 -/retry x4, 503 -/retry x4, 507 -/retry x4"},
		{"restore", 201, func(n *RemoteNode) error { return n.RestoreVM(VMCheckpoint{}) },
			"201 ok x1, 400 - x1, 404 - x1, 409 VMExists x1, 412 StaleEpoch x1, 422 KindMismatch x1, 500 -/retry x4, 503 -/retry x4, 507 NoCapacity x1"},
		{"reserve-stream", 200, func(n *RemoteNode) error { _, err := n.ReserveStream("m", 10); return err },
			"200 ok x1, 400 - x1, 404 - x1, 409 - x1, 412 StaleEpoch x1, 422 - x1, 500 -/retry x4, 503 -/retry x4, 507 NoCapacity x1"},
		{"release-stream", 204, func(n *RemoteNode) error { return n.ReleaseStream("m") },
			"204 ok x1, 400 - x1, 404 - x1, 409 - x1, 412 StaleEpoch x1, 422 - x1, 500 -/retry x4, 503 -/retry x4, 507 -/retry x4"},
		{"deflate-fully", 200, func(n *RemoteNode) error { _, err := n.DeflateFully("a"); return err },
			"200 ok x1, 400 - x1, 404 VMNotFound x1, 409 - x1, 412 StaleEpoch x1, 422 - x1, 500 -/retry x4, 503 -/retry x4, 507 -/retry x4"},
	}
	var status atomic.Int32
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		switch code := int(status.Load()); code {
		case http.StatusNoContent:
			w.WriteHeader(code)
		case http.StatusOK, http.StatusCreated:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			io.WriteString(w, "{}\n")
		default:
			http.Error(w, "canned refusal", code)
		}
	}))
	defer srv.Close()
	for _, op := range ops {
		var got []string
		for _, code := range []int{op.ok, 400, 404, 409, 412, 422, 500, 503, 507} {
			n := NewRemoteNodeNamed("canned", srv.URL, fastPolicy())
			recordSleeps(n)
			status.Store(int32(code))
			hits.Store(0)
			err := op.call(n)
			desc := "ok"
			if err != nil {
				var is []string
				for _, s := range sentinels {
					if errors.Is(err, s.err) {
						is = append(is, s.name)
					}
				}
				desc = "-"
				if len(is) > 0 {
					desc = strings.Join(is, "+")
				}
				if isRetryable(err) {
					desc += "/retry"
				}
			}
			got = append(got, fmt.Sprintf("%d %s x%d", code, desc, hits.Load()))
		}
		if s := strings.Join(got, ", "); s != op.want {
			t.Errorf("%s:\n got: %s\nwant: %s", op.name, s, op.want)
		}
	}
}

package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"deflation/internal/telemetry"
	"deflation/internal/vm"
)

// counterValue fetches a labeled counter's current value straight from the
// registry (get-or-create returns the same instance the code under test
// incremented; a zero-valued counter means the metric never fired).
func counterValue(s *telemetry.Sink, name string, labels telemetry.Labels) float64 {
	return s.Registry.Counter(name, "", labels).Value()
}

// TestChaosSimTelemetry runs the chaos simulation with a telemetry sink
// attached and asserts that injected faults surface in the registry and the
// cascade trace: heartbeat misses, node-down declarations, and evictions
// all count nonzero, cascade decisions land in the tracer with the level
// actually reached, and injected agent failures show up as app-level
// failure counters.
func TestChaosSimTelemetry(t *testing.T) {
	sink := telemetry.NewSink()
	s, err := newSim(chaosSim(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.mgr.SetTelemetry(sink)
	emitted := kindTally{}
	s.mgr.rec = emitted
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeCrashes == 0 {
		t.Fatal("chaos config injected no crashes; telemetry assertions are vacuous")
	}

	// Every per-kind manager counter equals the number of events of its
	// kind, and the sim's own books pin three names to their meaning.
	if v := counterValue(sink, "deflation_manager_heartbeat_misses_total", nil); v == 0 {
		t.Error("heartbeat misses counter is zero despite node crashes")
	}
	for _, c := range eventCounters {
		if got, want := counterValue(sink, c.name, nil), float64(emitted[c.kind]); got != want {
			t.Errorf("%s = %v, want %v %s events", c.name, got, want, c.kind)
		}
	}
	for name, want := range map[string]int{
		"deflation_manager_evictions_total":   res.FailurePreemptions,
		"deflation_manager_vm_replaced_total": res.VMsReplaced,
		"deflation_manager_vm_lost_total":     res.VMsLost,
	} {
		if got := counterValue(sink, name, nil); got != float64(want) {
			t.Errorf("%s = %v, want %d from the sim's result", name, got, want)
		}
	}
	if emitted[NodeDown] == 0 {
		t.Error("no node-down event despite node crashes")
	}

	// Cascade decisions were traced, and the recorded level matches the
	// event's own reclamation vectors on every retained event.
	if sink.Tracer.Total() == 0 {
		t.Fatal("no cascade events traced")
	}
	deflates := 0
	for _, e := range sink.Tracer.Last(telemetry.DefaultTraceCapacity) {
		if e.Kind == "deflate" {
			deflates++
		}
		want := "none"
		switch {
		case !e.HypReclaimed.IsZero():
			want = "hypervisor"
		case !e.OSReclaimed.IsZero():
			want = "os"
		case !e.AppReclaimed.IsZero():
			want = "app"
		}
		if e.LevelReached != want {
			t.Fatalf("event %d: LevelReached = %q, want %q (app %v, os %v, hyp %v)",
				e.Seq, e.LevelReached, want, e.AppReclaimed, e.OSReclaimed, e.HypReclaimed)
		}
	}
	if deflates == 0 {
		t.Error("no deflate events among the retained trace")
	}

	// Injected agent faults (AgentFailProb > 0) register as app-level
	// failures on at least one server. Level failure counters are labeled
	// per node, so sum across the snapshot.
	var appFailures float64
	for _, m := range sink.Registry.Snapshot() {
		if m.Name == "deflation_cascade_level_failures_total" && m.Labels["level"] == "app" {
			appFailures += m.Value
		}
	}
	if appFailures == 0 {
		t.Error("no app-level cascade failures counted despite AgentFailProb > 0")
	}

	// The instrumented sink renders: a smoke check that the whole registry
	// survives text exposition with label-heavy families.
	text := sink.Registry.Text()
	for _, want := range []string{
		"deflation_cascade_deflations_total",
		"deflation_manager_placements_total",
		"deflation_cascade_level_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestRemoteNodeRetryTelemetry drives a RemoteNode against a server that
// 5xxs twice, and asserts the retry and latency instruments fire.
func TestRemoteNodeRetryTelemetry(t *testing.T) {
	_, ctrl := newControllerServer(t)
	api, err := NewControllerAPI(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	base := api.Handler()
	var failing atomic.Bool
	var fails atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() && fails.Add(1) <= 2 {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		base.ServeHTTP(w, r)
	}))
	defer srv.Close()

	node, err := NewRemoteNodeWithPolicy(srv.URL, fastPolicy())
	if err != nil {
		t.Fatal(err)
	}
	recordSleeps(node)
	sink := telemetry.NewSink()
	node.SetTelemetry(sink)

	failing.Store(true)
	if _, err := node.State(); err != nil {
		t.Fatalf("State after two 5xxs: %v", err)
	}
	nl := telemetry.Labels{"node": node.Name()}
	if got := counterValue(sink, "deflation_rpc_retries_total", nl); got != 2 {
		t.Errorf("retries counter = %v, want 2", got)
	}
	h := sink.Registry.Histogram("deflation_rpc_seconds", "", telemetry.DefBuckets(),
		telemetry.Labels{"node": node.Name(), "op": "state"})
	if h.Count() != 1 {
		t.Errorf("state RPC histogram count = %d, want 1", h.Count())
	}

	// A transport-level failure (connection refused) also counts.
	if _, err := node.Launch(wireSpec("x", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := node.Ping(); err == nil {
		t.Fatal("ping of closed server succeeded")
	}
	if got := counterValue(sink, "deflation_rpc_transport_errors_total", nl); got == 0 {
		t.Error("transport-errors counter is zero after pinging a closed server")
	}
}

// TestAPIAttachTelemetryGauges registers the API-layer gauges and verifies
// they track controller state at scrape time.
func TestAPIAttachTelemetryGauges(t *testing.T) {
	ctrl := newServer(t, ModeDeflation)
	api, err := NewControllerAPI(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink()
	api.AttachTelemetry(sink)

	gauge := func(name string, labels telemetry.Labels) float64 {
		for _, m := range sink.Registry.Snapshot() {
			if m.Name != name {
				continue
			}
			match := true
			for k, v := range labels {
				if m.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return m.Value
			}
		}
		t.Fatalf("gauge %s%v not found", name, labels)
		return 0
	}

	if got := gauge("deflation_node_vms", nil); got != 0 {
		t.Errorf("vms gauge = %v before any launch", got)
	}
	if _, err := ctrl.Launch(wireSpec("a", vm.LowPriority)); err != nil {
		t.Fatal(err)
	}
	if got := gauge("deflation_node_vms", nil); got != 1 {
		t.Errorf("vms gauge = %v after launch, want 1", got)
	}
	spec := wireSpec("a", vm.LowPriority)
	if got := gauge("deflation_node_allocated", telemetry.Labels{"resource": "cpu"}); got != spec.Size.CPU {
		t.Errorf("allocated cpu gauge = %v, want %v", got, spec.Size.CPU)
	}
	cap := ctrl.host.Capacity()
	if got := gauge("deflation_node_free", telemetry.Labels{"resource": "memory"}); got != cap.MemoryMB-spec.Size.MemoryMB {
		t.Errorf("free memory gauge = %v, want %v", got, cap.MemoryMB-spec.Size.MemoryMB)
	}
	if got := gauge("deflation_node_nominal", telemetry.Labels{"resource": "cpu"}); got != spec.Size.CPU {
		t.Errorf("nominal cpu gauge = %v, want %v", got, spec.Size.CPU)
	}
}

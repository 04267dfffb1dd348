package cascade

import (
	"time"

	"deflation/internal/restypes"
	"deflation/internal/telemetry"
)

// Cascade latency buckets: simulated reclamation spans milliseconds (vCPU
// unplug) to minutes (swap-bound memory reclamation of a 100 GB VM,
// Fig. 8b), so the buckets grow geometrically from 1 ms to ~4 min.
func cascadeBuckets() []float64 { return telemetry.ExpBuckets(0.001, 4, 10) }

// levelMetrics holds one cascade level's pre-created instruments.
type levelMetrics struct {
	seconds   *telemetry.Histogram
	failures  *telemetry.Counter
	reclaimed [restypes.NumKinds]*telemetry.Counter
}

func (m *levelMetrics) observe(rep LevelReport, failed bool) {
	m.seconds.Observe(rep.Latency.Seconds())
	if failed {
		m.failures.Inc()
	}
	for _, k := range restypes.Kinds() {
		m.reclaimed[k].Add(rep.Reclaimed.At(k))
	}
}

// controllerTelemetry is the controller's instrument set, created once by
// SetTelemetry so the per-deflation cost is atomic adds only.
type controllerTelemetry struct {
	sink *telemetry.Sink
	node string

	deflations      *telemetry.Counter
	reinflations    *telemetry.Counter
	errors          *telemetry.Counter
	shortfalls      *telemetry.Counter
	shortfallAmount [restypes.NumKinds]*telemetry.Counter
	reclaimSeconds  *telemetry.Histogram
	app, os, hyp    levelMetrics
}

// SetTelemetry wires the controller to a telemetry sink: per-level latency
// histograms and reclaimed-amount counters, shortfall and failure counters,
// and one tracer event per cascade decision. node labels the metrics and
// events with the owning server's name. A nil sink detaches.
func (c *Controller) SetTelemetry(sink *telemetry.Sink, node string) {
	if sink == nil {
		c.tel = nil
		return
	}
	r := sink.Registry
	nl := telemetry.Labels{"node": node}
	level := func(name string) levelMetrics {
		m := levelMetrics{
			seconds: r.Histogram("deflation_cascade_level_seconds",
				"per-level cascade reclamation latency (simulated seconds)",
				cascadeBuckets(), telemetry.Labels{"node": node, "level": name}),
			failures: r.Counter("deflation_cascade_level_failures_total",
				"cascade levels that failed or hung and degraded to the next level",
				telemetry.Labels{"node": node, "level": name}),
		}
		for _, k := range restypes.Kinds() {
			m.reclaimed[k] = r.Counter("deflation_cascade_reclaimed_total",
				"resources reclaimed per cascade level (cores, MB, MB/s)",
				telemetry.Labels{"node": node, "level": name, "resource": k.String()})
		}
		return m
	}
	t := &controllerTelemetry{
		sink: sink,
		node: node,
		deflations: r.Counter("deflation_cascade_deflations_total",
			"cascade deflation operations", nl),
		reinflations: r.Counter("deflation_cascade_reinflations_total",
			"cascade reinflation operations", nl),
		errors: r.Counter("deflation_cascade_errors_total",
			"cascade operations that returned an error", nl),
		shortfalls: r.Counter("deflation_cascade_shortfalls_total",
			"deflations that could not fully meet their target", nl),
		reclaimSeconds: r.Histogram("deflation_cascade_reclaim_seconds",
			"end-to-end cascade reclamation latency (simulated seconds)",
			cascadeBuckets(), nl),
		app: level("app"),
		os:  level("os"),
		hyp: level("hypervisor"),
	}
	for _, k := range restypes.Kinds() {
		t.shortfallAmount[k] = r.Counter("deflation_cascade_shortfall_total",
			"unmet reclamation demand by resource (cores, MB, MB/s)",
			telemetry.Labels{"node": node, "resource": k.String()})
	}
	c.tel = t
}

// levelReached names the deepest cascade level that reclaimed a nonzero
// amount ("none" when nothing was reclaimed).
func levelReached(r *Report) string {
	switch {
	case !r.Hyp.Reclaimed.IsZero():
		return "hypervisor"
	case !r.OS.Reclaimed.IsZero():
		return "os"
	case !r.App.Reclaimed.IsZero():
		return "app"
	}
	return "none"
}

// record publishes one cascade decision to the metrics registry and the
// trace ring.
func (t *controllerTelemetry) record(kind string, levels Levels, vmName string, r *Report, err error) {
	switch kind {
	case "deflate":
		t.deflations.Inc()
	default:
		t.reinflations.Inc()
	}
	if err != nil {
		t.errors.Inc()
	}
	if !r.Shortfall.IsZero() {
		t.shortfalls.Inc()
		for _, k := range restypes.Kinds() {
			t.shortfallAmount[k].Add(r.Shortfall.At(k))
		}
	}
	if levels.App {
		t.app.observe(r.App, r.AppFailed)
	}
	if levels.OS {
		t.os.observe(r.OS, r.OSFailed)
	}
	if levels.Hypervisor {
		t.hyp.observe(r.Hyp, false)
	}
	t.reclaimSeconds.Observe(r.TotalLatency.Seconds())

	e := telemetry.CascadeEvent{
		Time:         time.Now(),
		Kind:         kind,
		Node:         t.node,
		VM:           vmName,
		Levels:       levels.String(),
		Target:       r.Target,
		AppReclaimed: r.App.Reclaimed,
		OSReclaimed:  r.OS.Reclaimed,
		HypReclaimed: r.Hyp.Reclaimed,
		LevelReached: levelReached(r),
		AppFailed:    r.AppFailed,
		OSFailed:     r.OSFailed,
		Shortfall:    r.Shortfall,
		Duration:     r.TotalLatency,
	}
	if err != nil {
		e.Err = err.Error()
	}
	t.sink.Tracer.Record(e)
}

// Package telemetry is the runtime observability layer of the control plane:
// a dependency-free metrics registry (atomic counters, gauges, fixed-bucket
// histograms) with Prometheus text exposition and a JSON snapshot form, plus
// a structured tracer that records every cascade deflation decision into a
// bounded ring buffer (tracer.go).
//
// The offline statistics package internal/stats computes experiment
// results after a run; this package answers the operational question "what
// is this daemon doing right now". Every metric is safe for concurrent
// scrape-while-update: counters, gauges, and histogram buckets are plain
// atomics, so instrumented hot paths pay a few atomic adds and no locks.
//
// Naming follows the Prometheus conventions: a metric family has one name,
// one type, one help string, and any number of label-distinguished children.
// The registry is get-or-create — asking for the same name+labels twice
// returns the same instance — so instrumented code can hold metric pointers
// and never touch a map on the hot path.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"deflation/internal/stats"
)

// Labels distinguishes children of one metric family, e.g.
// {"level": "os"}. Label sets are part of metric identity.
type Labels map[string]string

// key serializes labels into a canonical identity string.
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	return b.String()
}

// promLabels renders the {k="v",...} exposition suffix ("" when unlabeled).
func (l Labels) promLabels() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// atomicFloat is a float64 updated with compare-and-swap, so counters can
// accumulate fractional quantities (seconds, megabytes) and still be read
// torn-free during a concurrent scrape.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(delta float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

func (f *atomicFloat) set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. Float-valued so that resource
// amounts (cores, MB) accumulate exactly like event counts.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds delta (must be non-negative to keep the counter monotonic;
// negative deltas are ignored).
func (c *Counter) Add(delta float64) {
	if delta > 0 {
		c.v.add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.value() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v.set(v) }

// Add adjusts the gauge by delta (negative allowed).
func (g *Gauge) Add(delta float64) { g.v.add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.value() }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper bounds
// in ascending order; an implicit +Inf bucket catches the tail. Observations
// are lock-free: one atomic add in the owning bucket plus a CAS on the sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; counts[i] = observations ≤ bounds[i]
	count  atomic.Uint64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the owning bucket, Prometheus histogram_quantile style. The +Inf
// bucket clamps to the highest finite bound. Returns NaN with no data.
func (h *Histogram) Quantile(q float64) float64 { return quantile(h.snapshotBuckets(), q) }

// snapshotBuckets returns cumulative bucket counts aligned with bounds plus
// the +Inf total.
func (h *Histogram) snapshotBuckets() []BucketSnapshot {
	out := make([]BucketSnapshot, 0, len(h.bounds)+1)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, BucketSnapshot{UpperBound: b, CumulativeCount: cum})
	}
	cum += h.counts[len(h.bounds)].Load()
	out = append(out, BucketSnapshot{UpperBound: math.Inf(1), CumulativeCount: cum})
	return out
}

// DefBuckets are general-purpose wall-clock latency buckets (seconds),
// matching the Prometheus client defaults.
func DefBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// ExpBuckets returns n exponential buckets starting at start and growing by
// factor — the shape for simulated reclamation latencies, which span
// milliseconds (CPU unplug) to minutes (swap-bound memory reclamation).
// The constructor is shared with the offline accumulators in
// internal/stats.
func ExpBuckets(start, factor float64, n int) []float64 {
	return stats.ExpBuckets(start, factor, n)
}

// metricKind is the exposition type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	}
	return "histogram"
}

// child is one label-distinguished instance within a family.
type child struct {
	labels Labels
	ctr    *Counter
	gauge  *Gauge
	gaugeF func() float64
	hist   *Histogram
}

// family is one named metric with its children.
type family struct {
	name     string
	help     string
	kind     metricKind
	children map[string]*child // by Labels.key()
}

// Registry holds metric families. Get-or-create methods are mutex-guarded
// (cold path, at instrumentation setup); reads and writes of the returned
// metrics are lock-free.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	return f
}

// Counter returns (creating if needed) the counter name with labels.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	k := labels.key()
	if c, ok := f.children[k]; ok {
		return c.ctr
	}
	c := &child{labels: labels, ctr: &Counter{}}
	f.children[k] = c
	return c.ctr
}

// Gauge returns (creating if needed) the gauge name with labels.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	k := labels.key()
	if c, ok := f.children[k]; ok {
		return c.gauge
	}
	c := &child{labels: labels, gauge: &Gauge{}}
	f.children[k] = c
	return c.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time — the
// cheap way to expose state the system already tracks (allocations, VM
// counts) without touching the hot path. The callback must be safe to call
// concurrently with the system's own mutations (take the owning lock).
// Re-registering the same name+labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	f.children[labels.key()] = &child{labels: labels, gaugeF: fn}
}

// Histogram returns (creating if needed) the histogram name with labels and
// the given ascending bucket upper bounds. Bucket bounds are fixed by the
// first registration of the family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram)
	k := labels.key()
	if c, ok := f.children[k]; ok {
		return c.hist
	}
	if len(buckets) == 0 {
		buckets = DefBuckets()
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	f.children[k] = &child{labels: labels, hist: h}
	return h
}

// BucketSnapshot is one cumulative histogram bucket in a snapshot.
type BucketSnapshot struct {
	UpperBound      float64 `json:"le"`
	CumulativeCount uint64  `json:"count"`
}

// bucketWire is the JSON form of a bucket. The upper bound is a string
// because the tail bucket's bound is +Inf, which JSON cannot encode as a
// number (encoding/json rejects it and kills the response mid-stream).
type bucketWire struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketWire{LE: formatFloat(b.UpperBound), Count: b.CumulativeCount})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var w bucketWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	switch w.LE {
	case "+Inf":
		b.UpperBound = math.Inf(1)
	case "-Inf":
		b.UpperBound = math.Inf(-1)
	default:
		v, err := strconv.ParseFloat(w.LE, 64)
		if err != nil {
			return fmt.Errorf("telemetry: bad bucket bound %q: %w", w.LE, err)
		}
		b.UpperBound = v
	}
	b.CumulativeCount = w.Count
	return nil
}

// MetricSnapshot is the JSON form of one metric child at scrape time.
type MetricSnapshot struct {
	Name   string `json:"name"`
	Type   string `json:"type"`
	Help   string `json:"help,omitempty"`
	Labels Labels `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value float64 `json:"value"`
	// Count, Sum, and Buckets are set for histograms.
	Count   uint64           `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Quantile estimates a histogram snapshot's q-quantile as
// Histogram.Quantile does: NaN with no data.
func (m MetricSnapshot) Quantile(q float64) float64 { return quantile(m.Buckets, q) }

// quantile is Quantile over cumulative buckets whose last is +Inf.
func quantile(buckets []BucketSnapshot, q float64) float64 {
	last := len(buckets) - 1
	if last < 0 || buckets[last].CumulativeCount == 0 {
		return math.NaN()
	}
	rank := min(max(q, 0), 1) * float64(buckets[last].CumulativeCount)
	var cum uint64
	for i, b := range buckets {
		c := b.CumulativeCount - cum
		if c == 0 {
			continue
		}
		if float64(b.CumulativeCount) >= rank {
			if i == last {
				break
			}
			lo := 0.0
			if i > 0 {
				lo = buckets[i-1].UpperBound
			}
			frac := max((rank-float64(cum))/float64(c), 0)
			return lo + (b.UpperBound-lo)*frac
		}
		cum = b.CumulativeCount
	}
	if last == 0 {
		return math.NaN()
	}
	return buckets[last-1].UpperBound
}

// Snapshot captures every metric in deterministic order (family name, then
// label signature) — the JSON scrape form consumed by deflctl.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []MetricSnapshot
	for _, n := range names {
		f := r.families[n]
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := f.children[k]
			s := MetricSnapshot{Name: f.name, Type: f.kind.String(), Help: f.help, Labels: c.labels}
			switch {
			case c.ctr != nil:
				s.Value = c.ctr.Value()
			case c.gauge != nil:
				s.Value = c.gauge.Value()
			case c.gaugeF != nil:
				s.Value = c.gaugeF()
			case c.hist != nil:
				s.Count = c.hist.Count()
				s.Sum = c.hist.Sum()
				s.Buckets = c.hist.snapshotBuckets()
			}
			out = append(out, s)
		}
	}
	return out
}

// Text renders the registry in the Prometheus text exposition format
// (version 0.0.4), deterministically ordered: families by name, children by
// label signature, one # HELP / # TYPE header per family.
func (r *Registry) Text() string {
	var b strings.Builder
	lastFamily := ""
	for _, s := range r.Snapshot() {
		if s.Name != lastFamily {
			if s.Help != "" {
				b.WriteString("# HELP " + s.Name + " " + escapeHelp(s.Help) + "\n")
			}
			b.WriteString("# TYPE " + s.Name + " " + s.Type + "\n")
			lastFamily = s.Name
		}
		if s.Type == "histogram" {
			for _, bk := range s.Buckets {
				b.WriteString(s.Name + "_bucket" + labelsWithLE(s.Labels, bk.UpperBound) + " " + strconv.FormatUint(bk.CumulativeCount, 10) + "\n")
			}
			b.WriteString(s.Name + "_sum" + s.Labels.promLabels() + " " + formatFloat(s.Sum) + "\n")
			b.WriteString(s.Name + "_count" + s.Labels.promLabels() + " " + strconv.FormatUint(s.Count, 10) + "\n")
		} else {
			b.WriteString(s.Name + s.Labels.promLabels() + " " + formatFloat(s.Value) + "\n")
		}
	}
	return b.String()
}

// labelsWithLE renders labels plus the le bucket label.
func labelsWithLE(l Labels, le float64) string {
	merged := make(Labels, len(l)+1)
	for k, v := range l {
		merged[k] = v
	}
	merged["le"] = formatFloat(le)
	return merged.promLabels()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

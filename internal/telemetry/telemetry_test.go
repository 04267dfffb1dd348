package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", nil)
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("reqs_total", "requests", nil); again != c {
		t.Fatal("get-or-create returned a different counter instance")
	}

	g := r.Gauge("temp", "temperature", Labels{"zone": "a"})
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	// Distinct labels → distinct children of the same family.
	g2 := r.Gauge("temp", "temperature", Labels{"zone": "b"})
	if g2 == g {
		t.Fatal("distinct labels returned the same gauge")
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 41.0
	r.GaugeFunc("computed", "computed at scrape", nil, func() float64 { return v })
	v = 42
	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Value != 42 {
		t.Fatalf("snapshot = %+v, want one gauge of 42", snaps)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4}, nil)

	// Values exactly on a bound land in that bound's bucket (le is ≤).
	h.Observe(1)
	h.Observe(2)
	h.Observe(4)
	// Below the first bound, between bounds, and past the last bound (+Inf).
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)

	bks := h.snapshotBuckets()
	wantCum := []uint64{2, 3, 5, 6} // le=1, le=2, le=4, le=+Inf
	if len(bks) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(bks), len(wantCum))
	}
	for i, b := range bks {
		if b.CumulativeCount != wantCum[i] {
			t.Errorf("bucket[%d] (le=%v) = %d, want %d", i, b.UpperBound, b.CumulativeCount, wantCum[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 1+2+4+0.5+3+100.0; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if !math.IsInf(bks[len(bks)-1].UpperBound, 1) {
		t.Errorf("last bucket bound = %v, want +Inf", bks[len(bks)-1].UpperBound)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{10, 20, 40}, nil)

	// Empty histogram: NaN.
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("quantile of empty histogram = %v, want NaN", q)
	}

	// 10 observations in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	// Median sits at the boundary of the first bucket.
	if q := h.Quantile(0.5); q != 10 {
		t.Errorf("p50 = %v, want 10", q)
	}
	// p25 interpolates to the middle of the first bucket (rank 5 of 10 in [0,10]).
	if q := h.Quantile(0.25); q != 5 {
		t.Errorf("p25 = %v, want 5", q)
	}
	// p100 = top of the occupied range.
	if q := h.Quantile(1); q != 20 {
		t.Errorf("p100 = %v, want 20", q)
	}
	// Out-of-range q clamps.
	if q := h.Quantile(-1); q != h.Quantile(0) {
		t.Errorf("q=-1 -> %v, want clamp to q=0 (%v)", q, h.Quantile(0))
	}

	// Tail past the last finite bound clamps to that bound.
	h2 := r.Histogram("lat2", "", []float64{1, 2}, nil)
	h2.Observe(50)
	if q := h2.Quantile(0.99); q != 2 {
		t.Errorf("quantile in +Inf bucket = %v, want clamp to 2", q)
	}

	// A scrape, through its JSON, answers as the live histograms do; an
	// empty one is NaN, never a zero.
	r.Histogram("idle", "", []float64{1}, nil)
	live := map[string]*Histogram{"lat": h, "lat2": h2}
	body, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snaps []MetricSnapshot
	if err := json.Unmarshal(body, &snaps); err != nil {
		t.Fatal(err)
	}
	for _, m := range snaps {
		for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
			if got := m.Quantile(q); m.Name == "idle" && !math.IsNaN(got) {
				t.Errorf("%s: p%v of no data = %v, want NaN", m.Name, q*100, got)
			} else if m.Name != "idle" && got != live[m.Name].Quantile(q) {
				t.Errorf("%s: snapshot p%v = %v, live %v", m.Name, q*100, got, live[m.Name].Quantile(q))
			}
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestPrometheusExpositionGolden pins the exact text format: HELP/TYPE
// headers, label rendering and escaping, histogram bucket/sum/count lines,
// and deterministic family and child ordering.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("defl_ops_total", "operations", Labels{"op": "deflate"}).Add(3)
	r.Counter("defl_ops_total", "operations", Labels{"op": "reinflate"}).Inc()
	r.Gauge("defl_free_mb", `memory "free"`, nil).Set(1536.5)
	h := r.Histogram("defl_latency_seconds", "cascade latency", []float64{0.5, 1}, Labels{"level": "os"})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(9)

	want := strings.Join([]string{
		`# HELP defl_free_mb memory "free"`,
		`# TYPE defl_free_mb gauge`,
		`defl_free_mb 1536.5`,
		`# HELP defl_latency_seconds cascade latency`,
		`# TYPE defl_latency_seconds histogram`,
		`defl_latency_seconds_bucket{le="0.5",level="os"} 1`,
		`defl_latency_seconds_bucket{le="1",level="os"} 2`,
		`defl_latency_seconds_bucket{le="+Inf",level="os"} 3`,
		`defl_latency_seconds_sum{level="os"} 10`,
		`defl_latency_seconds_count{level="os"} 3`,
		`# HELP defl_ops_total operations`,
		`# TYPE defl_ops_total counter`,
		`defl_ops_total{op="deflate"} 3`,
		`defl_ops_total{op="reinflate"} 1`,
		``,
	}, "\n")
	if got := r.Text(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "", Labels{"path": `a\b"c` + "\n"}).Set(1)
	want := `g{path="a\\b\"c\n"} 1` + "\n" + ""
	got := r.Text()
	if !strings.Contains(got, want) {
		t.Errorf("escaped exposition = %q, want to contain %q", got, want)
	}
}

func TestSnapshotJSONForm(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help text", Labels{"k": "v"}).Add(2)
	h := r.Histogram("h_seconds", "", []float64{1}, nil)
	h.Observe(0.5)

	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("len(snaps) = %d, want 2", len(snaps))
	}
	c := snaps[0]
	if c.Name != "c_total" || c.Type != "counter" || c.Value != 2 || c.Labels["k"] != "v" || c.Help != "help text" {
		t.Errorf("counter snapshot = %+v", c)
	}
	hs := snaps[1]
	if hs.Type != "histogram" || hs.Count != 1 || hs.Sum != 0.5 || len(hs.Buckets) != 2 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "", nil)
}

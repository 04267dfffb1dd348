// Package stats is the repository's shared statistics toolkit: the
// clamped sorted-sample quantile the cluster simulator reports (hardened
// against out-of-range q by the PR-5 fuzzing), the exponential bucket
// constructor used for telemetry latency histograms, a streaming
// fixed-bucket histogram (Stream) that tracks quantiles over millions of
// weighted observations without retaining samples — the backbone of the
// interactive subsystem's per-request latency tracking — and the
// throughput time series the timeline figures (Figs. 7b, 8a) print.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile of an ascending-sorted sample using the
// nearest-rank method. Out-of-range q (or a rounding excursion at q≈1) is
// clamped to the data, never indexing out of bounds; the empty sample
// yields 0.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ExpBuckets returns n exponential bucket upper bounds starting at start
// and growing by factor — the shape for latencies that span orders of
// magnitude (milliseconds of CPU unplug to minutes of swap-bound memory
// reclamation, microseconds of fast-path requests to saturated tails).
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Stream is a streaming fixed-bucket histogram over float64-weighted
// observations. Unlike telemetry.Histogram it is not safe for concurrent
// use and not tied to a metrics registry: it is the in-simulation
// accumulator for distributions too large to retain (millions of request
// latencies per sweep cell), with interpolated quantiles.
//
// Buckets are upper bounds in ascending order; an implicit +Inf bucket
// catches the tail. Weights may be fractional — analytic models spread a
// tick's worth of requests across buckets by CDF mass.
type Stream struct {
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []float64 // len(bounds)+1
	count  float64
	sum    float64 // sum of v·w as given by callers
}

// NewStream builds a stream over the given bucket upper bounds (sorted,
// deduplicated copies; at least one bound is required).
func NewStream(bounds []float64) (*Stream, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("stats: stream needs at least one bucket bound")
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	dedup := bs[:1]
	for _, b := range bs[1:] {
		if b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	for _, b := range dedup {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("stats: bucket bound %v", b)
		}
	}
	return &Stream{bounds: dedup, counts: make([]float64, len(dedup)+1)}, nil
}

// Add records one observation of v.
func (s *Stream) Add(v float64) { s.AddWeighted(v, 1) }

// AddWeighted records w observations of v (w may be fractional; w <= 0 is
// ignored). NaN values are ignored rather than poisoning the quantiles.
func (s *Stream) AddWeighted(v, w float64) {
	if w <= 0 || math.IsNaN(v) || math.IsNaN(w) {
		return
	}
	i := sort.SearchFloat64s(s.bounds, v)
	s.counts[i] += w
	s.count += w
	s.sum += v * w
}

// Bounds returns the stream's finite bucket upper bounds (shared slice;
// callers must not mutate it).
func (s *Stream) Bounds() []float64 { return s.bounds }

// Count returns the total observation weight.
func (s *Stream) Count() float64 { return s.count }

// Sum returns the weighted sum of observed values.
func (s *Stream) Sum() float64 { return s.sum }

// Quantile returns the interpolated q-quantile: the bucket containing the
// q-th weight is located, then the value is linearly interpolated between
// the bucket's bounds by the weight fraction inside it. q is clamped to
// [0, 1]; the empty stream yields 0. Mass in the +Inf tail reports the
// last finite bound (the stream cannot see past its buckets — size them
// so the tail is empty for meaningful quantiles).
func (s *Stream) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * s.count
	var cum float64
	for i, c := range s.counts {
		if cum+c < target || c == 0 {
			cum += c
			continue
		}
		if i == len(s.bounds) {
			// +Inf tail: no finite upper bound to interpolate toward.
			return s.bounds[len(s.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.bounds[i-1]
		}
		frac := (target - cum) / c
		return lo + frac*(s.bounds[i]-lo)
	}
	return s.bounds[len(s.bounds)-1]
}

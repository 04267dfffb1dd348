package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Point is one sample of a time series.
type Point struct {
	T time.Duration
	V float64
}

// TimeSeries is an append-only series of (time, value) samples.
type TimeSeries struct {
	Name   string
	points []Point
}

// NewTimeSeries creates an empty named series.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{Name: name} }

// Add appends a sample. Samples must be appended in non-decreasing time
// order; out-of-order samples are rejected with an error.
func (s *TimeSeries) Add(t time.Duration, v float64) error {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		return fmt.Errorf("stats: sample at %v precedes last sample at %v", t, s.points[n-1].T)
	}
	s.points = append(s.points, Point{T: t, V: v})
	return nil
}

// Len returns the sample count.
func (s *TimeSeries) Len() int { return len(s.points) }

// At returns the most recent value at or before t (step interpolation), or
// 0 if t precedes the first sample.
func (s *TimeSeries) At(t time.Duration) float64 {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0
	}
	return s.points[i-1].V
}

// Max returns the maximum sampled value (0 for an empty series).
func (s *TimeSeries) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.points {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Table renders the series as aligned "time value" rows — the textual
// equivalent of a figure's timeline.
func (s *TimeSeries) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for _, p := range s.points {
		fmt.Fprintf(&b, "%10.1f %12.3f\n", p.T.Seconds(), p.V)
	}
	return b.String()
}

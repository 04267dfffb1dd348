package cluster

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"deflation/internal/stats"
)

// FuzzQuantile fuzzes the statistics the simulator reports through,
// stats.Quantile and stats.Mean: arbitrary (even out-of-range) q and
// arbitrary finite data must never panic, never index out of bounds, and
// never turn NaN-free input into NaN output. The data slice is decoded 8
// bytes per float64 from the fuzzer's raw input.
func FuzzQuantile(f *testing.F) {
	f.Add([]byte{}, 0.5)                                  // empty data
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, 0.0)      // single element, q=0
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, 1.0)      // single element, q=1
	f.Add(make([]byte, 64), 0.99)                         // eight zeros
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 2.5) // q out of range + torn tail
	f.Add(make([]byte, 24), -1.0)                         // q negative

	f.Fuzz(func(t *testing.T, raw []byte, q float64) {
		xs := make([]float64, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i : i+8]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue // the NaN-free property is over finite inputs
			}
			xs = append(xs, v)
		}

		m := stats.Mean(xs)
		if math.IsNaN(m) && !math.IsInf(sum(xs), 0) {
			t.Fatalf("mean(%v) = NaN from finite inputs", xs)
		}
		if len(xs) == 0 && m != 0 {
			t.Fatalf("mean(empty) = %v, want 0", m)
		}

		sort.Float64s(xs)
		got := stats.Quantile(xs, q) // must not panic for any q
		if math.IsNaN(got) {
			t.Fatalf("quantile(%v, %v) = NaN from NaN-free input", xs, q)
		}
		if len(xs) == 0 {
			if got != 0 {
				t.Fatalf("quantile(empty, %v) = %v, want 0", q, got)
			}
			return
		}
		if got < xs[0] || got > xs[len(xs)-1] {
			t.Fatalf("quantile(%v, %v) = %v outside data range [%v, %v]",
				xs, q, got, xs[0], xs[len(xs)-1])
		}
		if q <= 0 && got != xs[0] {
			t.Fatalf("quantile(..., %v) = %v, want minimum %v", q, got, xs[0])
		}
		if q >= 1 && got != xs[len(xs)-1] {
			t.Fatalf("quantile(..., %v) = %v, want maximum %v", q, got, xs[len(xs)-1])
		}
	})
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

package trace

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Count: 0}); err == nil {
		t.Error("zero count accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Count: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(Config{Count: 200, Seed: 5})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identical seeds", i)
		}
	}
	c, _ := Generate(Config{Count: 200, Seed: 6})
	same := 0
	for i := range a {
		if a[i].Size == c[i].Size && a[i].Lifetime == c[i].Lifetime {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestArrivalsSortedAndPositive(t *testing.T) {
	events, err := Generate(Config{Count: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	for i, e := range events {
		if e.Arrival < prev {
			t.Fatalf("event %d arrives before its predecessor", i)
		}
		prev = e.Arrival
		if e.Lifetime < time.Minute {
			t.Errorf("event %d lifetime %v below floor", i, e.Lifetime)
		}
		if !e.Size.Positive() {
			t.Errorf("event %d has non-positive size %v", i, e.Size)
		}
	}
}

func TestPriorityFraction(t *testing.T) {
	events, err := Generate(Config{Count: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	high := 0
	for _, e := range events {
		if e.HighPriority {
			high++
		}
	}
	frac := float64(high) / float64(len(events))
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("high-priority fraction = %.3f, want ≈0.5", frac)
	}
}

func TestLifetimesHeavyTailed(t *testing.T) {
	events, err := Generate(Config{Count: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lifetimes := make([]time.Duration, len(events))
	var sum time.Duration
	for i, e := range events {
		lifetimes[i] = e.Lifetime
		sum += e.Lifetime
	}
	slices.Sort(lifetimes)
	mean, median := sum/time.Duration(len(events)), lifetimes[len(lifetimes)/2]
	// Log-normal: mean well above median.
	if mean < median*3/2 {
		t.Errorf("mean %v not well above median %v: tail too light", mean, median)
	}
}

func TestSizeMixDominatedBySmall(t *testing.T) {
	events, err := Generate(Config{Count: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	small := 0
	for _, e := range events {
		if e.Size.CPU <= 2 {
			small++
		}
	}
	if frac := float64(small) / float64(len(events)); frac < 0.6 {
		t.Errorf("small-VM fraction = %.2f, want ≥ 0.6", frac)
	}
}

func TestQuickGenerateInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		count := int(n%50) + 1
		events, err := Generate(Config{Count: count, Seed: seed})
		if err != nil {
			return false
		}
		if len(events) != count {
			return false
		}
		seen := map[string]bool{}
		for _, e := range events {
			if seen[e.ID] {
				return false // duplicate IDs
			}
			seen[e.ID] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkTraceGeneration measures the synthetic trace generator.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{Count: 1000, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

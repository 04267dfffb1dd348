package simclock

import (
	"testing"
	"time"
)

func TestNowStartsAtZero(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Errorf("Now = %v, want 0", c.Now())
	}
}

func TestAtOrdering(t *testing.T) {
	c := New()
	var order []int
	c.At(3*time.Second, func(time.Duration) { order = append(order, 3) })
	c.At(1*time.Second, func(time.Duration) { order = append(order, 1) })
	c.At(2*time.Second, func(time.Duration) { order = append(order, 2) })
	c.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events ran in order %v, want [1 2 3]", order)
	}
	if c.Now() != 3*time.Second {
		t.Errorf("final Now = %v, want 3s", c.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(time.Second, func(time.Duration) { order = append(order, i) })
	}
	c.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("same-instant events ran out of order: %v", order)
		}
	}
}

func TestAfter(t *testing.T) {
	c := New()
	var fired time.Duration
	c.After(5*time.Second, func(now time.Duration) { fired = now })
	c.Run()
	if fired != 5*time.Second {
		t.Errorf("fired at %v, want 5s", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	c := New()
	c.At(10*time.Second, func(time.Duration) {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	c.At(time.Second, func(time.Duration) {})
}

func TestNegativeAfterPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	c.After(-time.Second, func(time.Duration) {})
}

func TestEvery(t *testing.T) {
	c := New()
	var ticks []time.Duration
	c.Every(time.Second, func(now time.Duration) bool {
		ticks = append(ticks, now)
		return len(ticks) < 3
	})
	c.Run()
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestEveryStop(t *testing.T) {
	c := New()
	n := 0
	stop := c.Every(time.Second, func(time.Duration) bool { n++; return true })
	for i := 0; i < 3; i++ {
		c.Step()
	}
	stop()
	c.Run()
	if n != 3 {
		t.Errorf("ticks after stop = %d, want 3", n)
	}
}

func TestEveryBadIntervalPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	c.Every(0, func(time.Duration) bool { return false })
}

func TestNestedScheduling(t *testing.T) {
	// Events scheduled from within callbacks must still run in time order.
	c := New()
	var order []string
	c.At(time.Second, func(time.Duration) {
		order = append(order, "a")
		c.After(time.Second, func(time.Duration) { order = append(order, "c") })
	})
	c.At(1500*time.Millisecond, func(time.Duration) { order = append(order, "b") })
	c.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v, want [a b c]", order)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	c := New()
	if c.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// The steady-state allocation tests hold the per-event path to the pooled
// Event slab alone: one allocation per slabChunk events, which
// testing.AllocsPerRun's whole-number average reports as zero per event.

func TestAtIndexStepAllocatesNothing(t *testing.T) {
	c := New()
	n := 0
	var h func(i int, now time.Duration)
	h = func(i int, now time.Duration) {
		n++
		c.AtIndex(now+time.Duration(500+(n*2654435761)%2000)*time.Microsecond, h, i)
	}
	for i := 0; i < 1024; i++ {
		c.AtIndex(time.Duration(i)*time.Millisecond, h, i)
	}
	for i := 0; i < 20000; i++ { // let the calendar settle its size
		c.Step()
	}
	if got := testing.AllocsPerRun(10000, func() { c.Step() }); got != 0 {
		t.Errorf("AtIndex+Step: %v allocs/event in the steady state, want 0", got)
	}
}

func TestFeedRunAllocatesNothingPerItem(t *testing.T) {
	c := New()
	fired := 0
	h := func(int, time.Duration) { fired++ }
	times := make([]time.Duration, 4096)
	feedRun := func() {
		for i := range times {
			times[i] = c.Now() + time.Duration(i/2)*time.Millisecond // pairs tie
		}
		c.Feed(times, h)
		c.Run()
	}
	// Each run starts in a different bucket; let every bucket's slice
	// reach its working capacity first.
	for i := 0; i < 2*minBuckets; i++ {
		feedRun()
	}
	allocs := testing.AllocsPerRun(10, feedRun)
	if want := (2*minBuckets + 11) * len(times); fired != want {
		t.Fatalf("fired %d feed items, want %d", fired, want)
	}
	// Per Feed: the slabs, plus the handler closure and its self-reference.
	if limit := float64(len(times)/slabChunk + 2); allocs > limit {
		t.Errorf("Feed+Run of %d items: %v allocs, want at most %v", len(times), allocs, limit)
	}
}

func TestEveryTickAllocatesNothing(t *testing.T) {
	c := New()
	c.Every(time.Millisecond, func(time.Duration) bool { return true })
	for i := 0; i < 1000; i++ {
		c.Step()
	}
	if got := testing.AllocsPerRun(10000, func() { c.Step() }); got != 0 {
		t.Errorf("Every: %v allocs/tick in the steady state, want 0", got)
	}
}

// Package simclock provides a deterministic discrete-event simulation clock.
//
// The paper's evaluation runs on a physical testbed and measures wall-clock
// time. This reproduction replaces the testbed with simulators, so time
// itself is simulated: every component that "takes time" (swapping out
// memory, running a Spark task, migrating pages for hot-unplug) schedules
// events on a shared Clock. Experiments then advance the clock and read the
// resulting virtual timestamps, which makes every figure exactly
// reproducible.
//
// The scheduler is a calendar queue (R. Brown, CACM 1988): pending events
// hash into time-bucketed slots of a circular "year", the cursor walks the
// buckets in time order, and the bucket count and width track the live event
// population, giving O(1) amortized schedule and pop against the binary
// heap's O(log n) — the difference that lets the 10k-node cluster sweeps of
// the 8c-xl figure finish in seconds. Events are slab-allocated in chunks
// so the per-event steady-state allocation rate is ~0, and same-instant
// events carry a monotone sequence number that preserves the heap engine's
// FIFO tie order exactly (the differential tests in diff_test.go drive both
// engines side by side and require identical firing order).
//
// Two entry points keep a simulation's hot path free of per-event closures.
// AtIndex schedules a typed event: one shared handler called with an integer
// key (a trace index, a VM slot), so the caller builds the handler once.
// Feed hands the clock a pre-sorted series of times served by one handler —
// a trace's arrivals — and reserves their sequence numbers exactly as one
// AtIndex call per time would; the calendar holds only the series' next
// item, so it sizes itself to the dynamic events (departures, heartbeats,
// faults) instead of the whole trace.
package simclock

import (
	"fmt"
	"sort"
	"time"
)

const (
	// minBuckets/maxBuckets bound the calendar's size; within them the
	// bucket count tracks 2× the live event population.
	minBuckets = 16
	maxBuckets = 1 << 20
	// slabChunk is how many Event structs are allocated at once.
	slabChunk = 256
	// bigBucket is the size above which a bucket is sorted with sort.Slice
	// instead of insertion sort.
	bigBucket = 32
)

// Clock is a discrete-event scheduler over virtual time. The zero value is
// not usable; create one with New. Clock is not safe for concurrent use: the
// whole simulation runs single-threaded for determinism.
type Clock struct {
	now     time.Duration
	nextSeq uint64

	// The calendar. Each bucket holds the events whose timestamp hashes to
	// it — from the cursor's current year and from later wraps mixed
	// together. Only the cursor's bucket is kept sorted (ascending by
	// (at, seq)); head is its consumed prefix. sorted==false implies
	// head==0.
	buckets [][]*Event
	width   time.Duration // bucket width, >= 1ns
	cur     int           // cursor bucket index
	curTop  time.Duration // exclusive upper bound of the cursor's window
	head    int           // consumed prefix of buckets[cur]
	sorted  bool          // whether buckets[cur] is sorted

	queued int // events in buckets

	slab []Event // current allocation chunk for pooled events
}

// New returns a Clock positioned at virtual time zero with no pending events.
func New() *Clock {
	c := &Clock{
		buckets: make([][]*Event, minBuckets),
		width:   time.Millisecond,
	}
	c.curTop = c.width
	return c
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Event is a handle to a scheduled callback. Events are pooled in slabs
// owned by their Clock and must not be retained past the Clock's life.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func(now time.Duration)
	ifn func(i int, now time.Duration) // set instead of fn by AtIndex
	i   int                            // ifn's key
}

// Time returns the virtual time the event is (or was) scheduled for.
func (e *Event) Time() time.Duration { return e.at }

// alloc hands out a pooled Event from the current slab chunk.
func (c *Clock) alloc() *Event {
	if len(c.slab) == 0 {
		c.slab = make([]Event, slabChunk)
	}
	e := &c.slab[0]
	c.slab = c.slab[1:]
	return e
}

// At schedules fn to run at virtual time t. Scheduling in the past (t <
// Now()) panics: in a discrete-event simulation that is always a logic bug.
func (c *Clock) At(t time.Duration, fn func(now time.Duration)) *Event {
	c.checkFuture(t)
	c.nextSeq++
	e := c.alloc()
	*e = Event{at: t, seq: c.nextSeq, fn: fn}
	c.enqueue(e)
	return e
}

// AtIndex schedules fn(i, now) to run at virtual time t. It is At for a
// handler shared across many events: the key i tells the handler which one
// fired, so scheduling allocates no closure.
func (c *Clock) AtIndex(t time.Duration, fn func(i int, now time.Duration), i int) *Event {
	c.checkFuture(t)
	c.nextSeq++
	return c.atIndex(t, c.nextSeq, fn, i)
}

// atIndex files a typed event under an already reserved sequence number.
func (c *Clock) atIndex(t time.Duration, seq uint64, fn func(i int, now time.Duration), i int) *Event {
	e := c.alloc()
	*e = Event{at: t, seq: seq, ifn: fn, i: i}
	c.enqueue(e)
	return e
}

// Feed schedules fn(i, now) at each times[i]. It fires exactly as a loop of
// AtIndex(times[i], fn, i) calls would, sequence numbers and same-instant
// ties included, but files only the next unfired item in the calendar. The
// times must be sorted ascending and not before Now(), or Feed panics.
func (c *Clock) Feed(times []time.Duration, fn func(i int, now time.Duration)) {
	for i, t := range times {
		if i > 0 && t < times[i-1] {
			panic(fmt.Sprintf("simclock: feed time %d (%v) is before time %d (%v)", i, t, i-1, times[i-1]))
		}
	}
	if len(times) == 0 {
		return
	}
	c.checkFuture(times[0])
	seq0 := c.nextSeq + 1
	c.nextSeq += uint64(len(times))
	// Each item files its successor before its handler runs, so the
	// series always has its next item in the calendar.
	var next func(i int, now time.Duration)
	next = func(i int, now time.Duration) {
		if j := i + 1; j < len(times) {
			c.atIndex(times[j], seq0+uint64(j), next, j)
		}
		fn(i, now)
	}
	c.atIndex(times[0], seq0, next, 0)
}

func (c *Clock) checkFuture(t time.Duration) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: scheduling at %v which is before now %v", t, c.now))
	}
}

// After schedules fn to run d after the current virtual time.
func (c *Clock) After(d time.Duration, fn func(now time.Duration)) *Event {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	return c.At(c.now+d, fn)
}

// Every schedules fn to run every interval, starting one interval from now,
// until fn returns false. Cancel via the returned stop function, which is
// safe to call at any time. The tick handler is built once, so a running
// ticker allocates nothing per firing beyond its pooled Event.
func (c *Clock) Every(interval time.Duration, fn func(now time.Duration) bool) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("simclock: non-positive interval %v", interval))
	}
	stopped := false
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		if !stopped && fn(now) {
			c.After(interval, tick)
		}
	}
	c.After(interval, tick)
	return func() { stopped = true }
}

// Step runs the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event ran.
func (c *Clock) Step() bool {
	e, ok := c.pop()
	if !ok {
		return false
	}
	c.now = e.at
	if e.ifn != nil {
		e.ifn(e.i, c.now)
	} else {
		e.fn(c.now)
	}
	return true
}

// Run executes events until the queue is empty.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// --- Calendar mechanics ------------------------------------------------

func (c *Clock) bucketFor(t time.Duration) int {
	return int(uint64(t/c.width) % uint64(len(c.buckets)))
}

// enqueue files an event into its calendar slot, growing the calendar when
// the population outruns the bucket count.
func (c *Clock) enqueue(e *Event) {
	if c.queued >= 2*len(c.buckets) && len(c.buckets) < maxBuckets {
		c.resize()
	}
	c.queued++
	i := c.bucketFor(e.at)
	b := c.buckets[i]
	if i == c.cur && c.sorted {
		// The cursor's bucket is sorted; binary-insert by (at, seq) to keep
		// it that way. A Feed item's seq was reserved earlier, so it can sort
		// ahead of a same-instant event already resident.
		lo, hi := c.head, len(b)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if m := b[mid]; m.at < e.at || (m.at == e.at && m.seq < e.seq) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		b = append(b, nil)
		copy(b[lo+1:], b[lo:])
		b[lo] = e
		c.buckets[i] = b
		return
	}
	c.buckets[i] = append(b, e)
}

// peekMin positions the cursor on the earliest pending event. Reports
// false when nothing is pending.
func (c *Clock) peekMin() bool {
	if c.queued == 0 {
		return false
	}
	scanned := 0
	for {
		if !c.sorted {
			c.sortCur()
		}
		b := c.buckets[c.cur]
		if c.head < len(b) && b[c.head].at < c.curTop {
			return true
		}
		c.advanceCursor()
		scanned++
		if scanned > len(c.buckets) {
			// A whole year of empty windows: the next event is far out.
			// Jump the cursor straight to it instead of spinning.
			c.jumpToMin()
			scanned = 0
		}
	}
}

// pop removes and returns the earliest pending event.
func (c *Clock) pop() (*Event, bool) {
	if c.queued > 0 && c.queued < len(c.buckets)/8 && len(c.buckets) > minBuckets {
		c.resize()
	}
	if !c.peekMin() {
		return nil, false
	}
	e := c.buckets[c.cur][c.head]
	c.head++
	c.queued--
	return e, true
}

// sortCur sorts the cursor's bucket ascending by (at, seq) — the
// (time, schedule-order) total order that reproduces the reference heap's
// firing order, including same-instant FIFO ties.
// Precondition: head == 0 (a bucket is only unsorted before consumption).
func (c *Clock) sortCur() {
	b := c.buckets[c.cur]
	if len(b) > bigBucket {
		sort.Slice(b, func(i, j int) bool {
			if b[i].at != b[j].at {
				return b[i].at < b[j].at
			}
			return b[i].seq < b[j].seq
		})
	} else {
		for i := 1; i < len(b); i++ {
			e := b[i]
			j := i - 1
			for j >= 0 && (b[j].at > e.at || (b[j].at == e.at && b[j].seq > e.seq)) {
				b[j+1] = b[j]
				j--
			}
			b[j+1] = e
		}
	}
	c.sorted = true
}

// compactCur drops the cursor bucket's consumed prefix, reusing the slice.
func (c *Clock) compactCur() {
	if c.head == 0 {
		return
	}
	b := c.buckets[c.cur]
	n := copy(b, b[c.head:])
	for i := n; i < len(b); i++ {
		b[i] = nil
	}
	c.buckets[c.cur] = b[:n]
	c.head = 0
}

// advanceCursor moves to the next bucket's window.
func (c *Clock) advanceCursor() {
	c.compactCur()
	c.cur = (c.cur + 1) % len(c.buckets)
	c.curTop += c.width
	c.sorted = false
}

// jumpToMin aims the cursor directly at the globally earliest queued event —
// the calendar's escape hatch for a sparse far-future schedule.
func (c *Clock) jumpToMin() {
	var best *Event
	for i, b := range c.buckets {
		start := 0
		if i == c.cur {
			start = c.head
		}
		for _, e := range b[start:] {
			if best == nil || e.at < best.at || (e.at == best.at && e.seq < best.seq) {
				best = e
			}
		}
	}
	if best == nil {
		return // empty calendar; callers guard on queued
	}
	nb := c.bucketFor(best.at)
	if nb != c.cur {
		c.compactCur()
		c.cur = nb
		c.sorted = false
	}
	c.curTop = (best.at/c.width)*c.width + c.width
}

// resize rebuilds the calendar around the current population: bucket count
// ~2× the queued events (so ~1 event per visited bucket), width ~the mean
// gap between the earliest and latest pending timestamps. The cursor is
// re-aligned to now's window.
func (c *Clock) resize() {
	all := make([]*Event, 0, c.queued)
	var minAt, maxAt time.Duration
	for i, b := range c.buckets {
		start := 0
		if i == c.cur {
			start = c.head
		}
		for _, e := range b[start:] {
			if len(all) == 0 || e.at < minAt {
				minAt = e.at
			}
			if len(all) == 0 || e.at > maxAt {
				maxAt = e.at
			}
			all = append(all, e)
		}
	}

	n := minBuckets
	for n < 2*len(all) && n < maxBuckets {
		n <<= 1
	}
	width := time.Duration(1)
	if len(all) > 1 {
		width = (maxAt - minAt) / time.Duration(len(all))
		if width < 1 {
			width = 1
		}
	} else {
		width = c.width // keep the old estimate for a near-empty calendar
	}
	c.width = width
	c.buckets = make([][]*Event, n)
	for _, e := range all {
		i := c.bucketFor(e.at)
		c.buckets[i] = append(c.buckets[i], e)
	}
	c.cur = c.bucketFor(c.now)
	c.curTop = (c.now/c.width)*c.width + c.width
	c.head = 0
	c.sorted = false
}

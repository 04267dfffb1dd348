package simclock

// This file proves the calendar-queue engine behaviorally identical to the
// binary-heap engine it replaced. The heap lives on below as refClock — the
// reference model — and the differential driver runs byte-scripted
// schedule/Every/AtIndex/Feed/Step sequences against both engines,
// asserting identical firing order (including same-instant FIFO ties) and
// identical clocks after every operation. FuzzEventQueue feeds the same driver from the fuzzer. The
// reference has no typed events or feeds of its own: AtIndex is At with a
// closure, and Feed is one At call per time.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// --- Reference model: the original container/heap engine, verbatim -------

type refClock struct {
	now    time.Duration
	queue  refQueue
	nextID uint64
}

type refEvent struct {
	id    uint64
	at    time.Duration
	fn    func(now time.Duration)
	index int
}

func (c *refClock) Now() time.Duration { return c.now }

func (c *refClock) At(t time.Duration, fn func(now time.Duration)) *refEvent {
	if t < c.now {
		panic(fmt.Sprintf("refclock: scheduling at %v which is before now %v", t, c.now))
	}
	c.nextID++
	e := &refEvent{id: c.nextID, at: t, fn: fn}
	heap.Push(&c.queue, e)
	return e
}

func (c *refClock) After(d time.Duration, fn func(now time.Duration)) *refEvent {
	if d < 0 {
		panic(fmt.Sprintf("refclock: negative delay %v", d))
	}
	return c.At(c.now+d, fn)
}

func (c *refClock) Every(interval time.Duration, fn func(now time.Duration) bool) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("refclock: non-positive interval %v", interval))
	}
	stopped := false
	var schedule func()
	schedule = func() {
		c.After(interval, func(now time.Duration) {
			if stopped {
				return
			}
			if fn(now) {
				schedule()
			}
		})
	}
	schedule()
	return func() { stopped = true }
}

func (c *refClock) AtIndex(t time.Duration, fn func(int, time.Duration), i int) *refEvent {
	return c.At(t, func(now time.Duration) { fn(i, now) })
}

func (c *refClock) Feed(times []time.Duration, fn func(int, time.Duration)) {
	for i, t := range times {
		if i > 0 && t < times[i-1] {
			panic(fmt.Sprintf("refclock: feed time %d (%v) is before time %d (%v)", i, t, i-1, times[i-1]))
		}
	}
	for i, t := range times {
		c.AtIndex(t, fn, i)
	}
}

func (c *refClock) Step() bool {
	if c.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&c.queue).(*refEvent)
	c.now = e.at
	e.fn(c.now)
	return true
}

func (c *refClock) Run() {
	for c.Step() {
	}
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].id < q[j].id
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// --- Engine adapters ------------------------------------------------------

// testEngine is the surface the differential driver exercises.
type testEngine interface {
	Now() time.Duration
	At(time.Duration, func(time.Duration))
	AtIndex(time.Duration, func(int, time.Duration), int)
	Feed([]time.Duration, func(int, time.Duration))
	Every(time.Duration, func(time.Duration) bool) func()
	Step() bool
}

type calEngine struct{ c *Clock }

func (e calEngine) Now() time.Duration                         { return e.c.Now() }
func (e calEngine) At(t time.Duration, fn func(time.Duration)) { e.c.At(t, fn) }
func (e calEngine) AtIndex(t time.Duration, fn func(int, time.Duration), i int) {
	e.c.AtIndex(t, fn, i)
}
func (e calEngine) Feed(ts []time.Duration, fn func(int, time.Duration)) { e.c.Feed(ts, fn) }
func (e calEngine) Every(iv time.Duration, fn func(time.Duration) bool) func() {
	return e.c.Every(iv, fn)
}
func (e calEngine) Step() bool { return e.c.Step() }

type refEngine struct{ c *refClock }

func (e refEngine) Now() time.Duration                         { return e.c.Now() }
func (e refEngine) At(t time.Duration, fn func(time.Duration)) { e.c.At(t, fn) }
func (e refEngine) AtIndex(t time.Duration, fn func(int, time.Duration), i int) {
	e.c.AtIndex(t, fn, i)
}
func (e refEngine) Feed(ts []time.Duration, fn func(int, time.Duration)) { e.c.Feed(ts, fn) }
func (e refEngine) Every(iv time.Duration, fn func(time.Duration) bool) func() {
	return e.c.Every(iv, fn)
}
func (e refEngine) Step() bool { return e.c.Step() }

// --- Byte-scripted driver -------------------------------------------------

const (
	maxScriptOps    = 4096
	maxNestedLabels = 50000
)

// execScript interprets script as a deterministic operation sequence against
// eng and returns the full observation trace: every firing (with label and
// virtual time), the clock after every operation, and the final clock. Two engines are behaviorally identical iff their traces match
// on every script.
func execScript(eng testEngine, script []byte) []string {
	var trace []string
	var stops []func()
	label := 0
	// mkFire records a firing; a slice of callbacks (label ≡ 0 mod 5) also
	// schedule a follow-up event, exercising nested scheduling. Labels are
	// allocated in firing order, so identical traces imply identical
	// callback execution order across engines.
	var mkFire func(l int) func(time.Duration)
	mkFire = func(l int) func(time.Duration) {
		return func(now time.Duration) {
			trace = append(trace, fmt.Sprintf("F%d@%d", l, now))
			if l%5 == 0 && l < maxNestedLabels {
				label++
				nl := label
				d := time.Duration(l%7) * time.Millisecond
				eng.At(now+d, mkFire(nl))
			}
		}
	}
	pos := 0
	next := func() byte {
		if pos >= len(script) {
			return 0
		}
		b := script[pos]
		pos++
		return b
	}
	// fireKey is the one handler every typed event and feed item shares;
	// keys index labels, so it fires exactly as mkFire would.
	var keyLabels []int
	fireKey := func(k int, now time.Duration) { mkFire(keyLabels[k])(now) }
	newKey := func() int {
		label++
		keyLabels = append(keyLabels, label)
		return len(keyLabels) - 1
	}
	for op := 0; pos < len(script) && op < maxScriptOps; op++ {
		b := next()
		switch b % 10 {
		case 0, 1: // schedule a single event; coarse delays force exact ties
			d := time.Duration(next()%32) * time.Millisecond
			label++
			l := label
			eng.At(eng.Now()+d, mkFire(l))
		case 2, 3: // single step
			ran := eng.Step()
			trace = append(trace, fmt.Sprintf("S%v@%d", ran, eng.Now()))
		case 4: // a run of steps
			for k := next() % 8; k > 0; k-- {
				eng.Step()
			}
		case 5: // periodic ticker with a bounded run count
			iv := time.Duration(1+next()%16) * time.Millisecond
			limit := int(next() % 5)
			label++
			l := label
			n := 0
			stops = append(stops, eng.Every(iv, func(now time.Duration) bool {
				trace = append(trace, fmt.Sprintf("E%d@%d", l, now))
				n++
				return n < limit
			}))
		case 6: // stop a ticker
			if len(stops) > 0 {
				stops[int(next())%len(stops)]()
			}
		case 7: // same-instant burst: the FIFO-tie stress
			k := 1 + int(next()%4)
			at := eng.Now() + 5*time.Millisecond
			for j := 0; j < k; j++ {
				label++
				l := label
				eng.At(at, mkFire(l))
			}
		case 8: // typed event through the shared handler
			d := time.Duration(next()%32) * time.Millisecond
			eng.AtIndex(eng.Now()+d, fireKey, newKey())
		case 9: // a feed: sorted coarse times, so items tie with each other
			// and with calendar events; the handler sees the item's index
			times := make([]time.Duration, next()%6)
			first := len(keyLabels)
			t := eng.Now()
			for j := range times {
				t += time.Duration(next()%4) * 2 * time.Millisecond
				times[j] = t
				newKey()
			}
			eng.Feed(times, func(i int, now time.Duration) { fireKey(first+i, now) })
		}
		trace = append(trace, fmt.Sprintf("N%d", eng.Now()))
	}
	// Drain: fire everything left (tickers are bounded, nesting is capped).
	for i := 0; i < 100000 && eng.Step(); i++ {
	}
	trace = append(trace, fmt.Sprintf("end N%d", eng.Now()))
	return trace
}

func diffEngines(t *testing.T, script []byte) {
	t.Helper()
	cal := execScript(calEngine{New()}, script)
	ref := execScript(refEngine{&refClock{}}, script)
	if len(cal) != len(ref) {
		t.Fatalf("trace lengths differ: calendar %d vs heap %d\ncalendar tail: %v\nheap tail: %v",
			len(cal), len(ref), tail(cal), tail(ref))
	}
	for i := range cal {
		if cal[i] != ref[i] {
			t.Fatalf("traces diverge at step %d: calendar %q vs heap %q", i, cal[i], ref[i])
		}
	}
}

func tail(s []string) []string {
	if len(s) > 10 {
		return s[len(s)-10:]
	}
	return s
}

// --- Tests ----------------------------------------------------------------

// TestDifferentialRandom drives both engines through thousands of seeded
// random operation sequences and requires bit-identical traces.
func TestDifferentialRandom(t *testing.T) {
	seeds := 400
	opsPerSeed := 700
	if testing.Short() {
		seeds = 50
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		script := make([]byte, opsPerSeed)
		rng.Read(script)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			diffEngines(t, script)
		})
	}
}

// TestDifferentialSameInstantFIFO hammers the tie-order contract: bursts of
// events at identical instants, interleaved with single events, must fire
// in schedule order on both engines.
func TestDifferentialSameInstantFIFO(t *testing.T) {
	// Ops 7 (burst) and 0 (single event) dominate; op 3 steps through ties.
	var script []byte
	for i := 0; i < 300; i++ {
		script = append(script, 7, byte(i), 0, byte(i*13), 3)
	}
	diffEngines(t, script)
}

// bothEngines runs f once per engine, as a subtest named after it.
func bothEngines(t *testing.T, f func(t *testing.T, e testEngine)) {
	t.Helper()
	t.Run("calendar", func(t *testing.T) { f(t, calEngine{New()}) })
	t.Run("heap", func(t *testing.T) { f(t, refEngine{&refClock{}}) })
}

// TestFeedTiesWithCalendar pins the merge order of feed items against
// calendar events at the same instant: an event scheduled before the Feed
// call fires before the feed's item, one scheduled after it fires after,
// and an event a feed handler schedules for its own instant fires after the
// feed's later same-instant items, whose sequence numbers came first.
func TestFeedTiesWithCalendar(t *testing.T) {
	bothEngines(t, func(t *testing.T, e testEngine) {
		var got []string
		rec := func(s string) func(time.Duration) {
			return func(now time.Duration) { got = append(got, fmt.Sprintf("%s@%d", s, now/time.Millisecond)) }
		}
		e.At(5*time.Millisecond, rec("before"))
		e.Feed([]time.Duration{0, 5 * time.Millisecond, 5 * time.Millisecond, 7 * time.Millisecond},
			func(i int, now time.Duration) {
				rec(fmt.Sprint("feed", i))(now)
				if i == 1 {
					e.At(now, rec("nested"))
				}
			})
		e.At(5*time.Millisecond, rec("after"))
		e.AtIndex(5*time.Millisecond, func(i int, now time.Duration) { rec(fmt.Sprint("typed", i))(now) }, 9)
		for e.Step() {
		}
		want := "[feed0@0 before@5 feed1@5 feed2@5 after@5 typed9@5 nested@5 feed3@7]"
		if fmt.Sprint(got) != want {
			t.Errorf("fired %v, want %s", got, want)
		}
	})
}

// TestFeedFilesOneItemAtATime requires the calendar to hold only a feed's
// next unfired item, so it sizes itself to the other events.
func TestFeedFilesOneItemAtATime(t *testing.T) {
	c := New()
	c.At(2*time.Second, func(time.Duration) {})
	fired := 0
	c.Feed([]time.Duration{time.Second, 3 * time.Second, 3 * time.Second, 4 * time.Second},
		func(int, time.Duration) { fired++ })
	for _, want := range []int{2, 2, 1, 1, 1, 0} {
		if c.queued != want {
			t.Fatalf("%d events queued at %v, want %d", c.queued, c.Now(), want)
		}
		c.Step()
	}
	if fired != 4 {
		t.Errorf("%d feed items fired, want 4", fired)
	}
}

// TestFeedRejectsBadTimes requires a panic, on both engines, for a feed
// whose times are unsorted or start before Now.
func TestFeedRejectsBadTimes(t *testing.T) {
	for name, times := range map[string][]time.Duration{
		"unsorted": {2 * time.Second, 3 * time.Second, time.Second + time.Millisecond},
		"past":     {time.Second - 1, 2 * time.Second},
	} {
		t.Run(name, func(t *testing.T) {
			bothEngines(t, func(t *testing.T, e testEngine) {
				e.At(time.Second, func(time.Duration) {})
				e.Step()
				defer func() {
					if recover() == nil {
						t.Fatalf("Feed(%v) at %v did not panic", times, e.Now())
					}
				}()
				e.Feed(times, func(int, time.Duration) {})
			})
		})
	}
}

// TestCalendarResizeStress pushes enough load through one clock to force
// repeated calendar grows, shrinks, and year-wrap jumps, checking against
// the reference model throughout.
func TestCalendarResizeStress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	script := make([]byte, 8192)
	rng.Read(script)
	diffEngines(t, script)
}

// FuzzEventQueue feeds arbitrary byte scripts through the differential
// driver: the engines must never panic, never fire out of order, and never
// disagree with each other.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 3, 3})
	f.Add([]byte{7, 3, 2, 0, 4, 63, 3, 3, 3})
	f.Add([]byte{5, 4, 3, 4, 40, 6, 0, 2, 1})
	f.Add([]byte{9, 5, 0, 1, 2, 3, 1, 8, 4, 7, 2, 2, 0, 3, 4, 9, 3})
	rng := rand.New(rand.NewSource(7))
	big := make([]byte, 512)
	rng.Read(big)
	f.Add(big)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		diffEngines(t, script)
	})
}

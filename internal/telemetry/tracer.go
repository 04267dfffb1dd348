package telemetry

import (
	"sync"
	"time"

	"deflation/internal/restypes"
)

// CascadeEvent records one cascade deflation (or reinflation) decision —
// which VM was targeted, what each level contributed, how deep the cascade
// had to go, and how injected faults or deadlines shaped the outcome. This
// is the per-decision audit record Fig. 3 implies: the runtime equivalent of
// the offline experiment statistics in internal/stats.
type CascadeEvent struct {
	// Seq is a monotonically increasing sequence number (1-based); gaps in a
	// scraped window mean the ring buffer wrapped.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock time the decision completed.
	Time time.Time `json:"time"`
	// Kind is "deflate" or "reinflate".
	Kind string `json:"kind"`
	// Node is the server whose controller ran the cascade ("" when the
	// cascade runs outside a named controller).
	Node string `json:"node,omitempty"`
	// VM is the target VM.
	VM string `json:"vm"`
	// Levels are the cascade levels enabled on the controller.
	Levels string `json:"levels"`
	// Target is the requested reclamation (or reinflation) vector.
	Target restypes.Vector `json:"target"`
	// AppReclaimed, OSReclaimed, and HypReclaimed are the per-level
	// contributions.
	AppReclaimed restypes.Vector `json:"app_reclaimed"`
	OSReclaimed  restypes.Vector `json:"os_reclaimed"`
	HypReclaimed restypes.Vector `json:"hyp_reclaimed"`
	// LevelReached is the deepest level that reclaimed a nonzero amount:
	// "app", "os", "hypervisor", or "none".
	LevelReached string `json:"level_reached"`
	// AppFailed and OSFailed report fault-hook outcomes: the level failed
	// and the cascade degraded to the next level.
	AppFailed bool `json:"app_failed,omitempty"`
	OSFailed  bool `json:"os_failed,omitempty"`
	// Shortfall is the portion of the target no enabled level could reclaim.
	Shortfall restypes.Vector `json:"shortfall"`
	// Duration is the end-to-end (simulated) reclamation latency.
	Duration time.Duration `json:"duration_ns"`
	// Err records a cascade error ("" on success).
	Err string `json:"err,omitempty"`
}

// DefaultTraceCapacity is the tracer ring size used by NewSink.
const DefaultTraceCapacity = 1024

// Tracer is a bounded ring buffer of cascade events. Writers pay one short
// mutex-guarded copy; the buffer never grows, so a daemon that deflates
// forever holds memory proportional to the capacity, not the history.
type Tracer struct {
	mu  sync.Mutex
	buf []CascadeEvent
	// next is the slot the next event lands in; len counts filled slots.
	next int
	len  int
	seq  uint64
}

// NewTracer returns a tracer holding the last capacity events (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]CascadeEvent, capacity)}
}

// Record appends an event, stamping its sequence number. The event's Time
// should already be set by the caller (or is stamped here if zero).
func (t *Tracer) Record(e CascadeEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	e.Seq = t.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
	if t.len < len(t.buf) {
		t.len++
	}
}

// Last returns up to n most recent events in chronological order. n ≤ 0
// means everything retained.
func (t *Tracer) Last(n int) []CascadeEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.len {
		n = t.len
	}
	out := make([]CascadeEvent, 0, n)
	// Oldest retained event lives at next-len (mod cap); we want the last n.
	start := t.next - n
	for start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Total returns the number of events ever recorded (recorded − retained =
// events the ring dropped).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Len returns the number of events currently retained.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.len
}

// Sink bundles the registry and tracer a component needs to emit telemetry.
// A nil *Sink disables instrumentation entirely (every instrumented code
// path nil-checks its sink), so un-instrumented benchmarks and simulations
// run the exact pre-telemetry code.
type Sink struct {
	Registry *Registry
	Tracer   *Tracer
}

// NewSink returns a sink with a fresh registry and a DefaultTraceCapacity
// tracer.
func NewSink() *Sink {
	return &Sink{Registry: NewRegistry(), Tracer: NewTracer(DefaultTraceCapacity)}
}

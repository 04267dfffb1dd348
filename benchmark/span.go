package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A span is one timed call into a layer: name, start, end, and the span that
// caused it (-1 for a root). Times are nanoseconds since the recorder began.
type span struct {
	Name   int32
	Parent int32
	Start  int64
	End    int64
}

// recorder keeps spans in a preallocated slice and writes them out when the
// run ends. The sim replay drives it from one goroutine through begin/end
// (parent = the open span); the plane records finished spans from several
// goroutines through add and links parents afterwards by containment.
type recorder struct {
	names []string // span name table; span.Name indexes it
	t0    time.Time

	mu    sync.Mutex // guards spans for add; begin/end are single-goroutine
	spans []span
	stack []int32
}

func newRecorder(names []string, capacity int) *recorder {
	return &recorder{names: names, t0: time.Now(), spans: make([]span, 0, capacity), stack: make([]int32, 0, 16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under the innermost open span and returns its index.
func (r *recorder) begin(name int32) int32 {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: r.now()})
	r.stack = append(r.stack, idx)
	return idx
}

// end closes the span begin returned; spans close in LIFO order.
func (r *recorder) end(idx int32) {
	r.spans[idx].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// add records a finished root span; safe for concurrent use.
func (r *recorder) add(name int32, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: -1, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
}

// layerTotals is what one layer (span name) did: how many spans, their total
// duration, and their total self time (duration minus the part child spans
// cover).
type layerTotals struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

func (t layerTotals) meanSelfUS() float64 {
	if t.Count == 0 {
		return 0
	}
	return float64(t.Self) / float64(t.Count) / 1e3
}

// totals folds the spans into per-layer counts, durations and self times.
func (r *recorder) totals() []layerTotals {
	out := make([]layerTotals, len(r.names))
	for _, s := range r.spans {
		d := time.Duration(s.End - s.Start)
		t := &out[s.Name]
		t.Count++
		t.Total += d
		t.Self += d
		if s.Parent >= 0 {
			out[r.spans[s.Parent].Name].Self -= d
		}
	}
	return out
}

// write stores the spans as <dir>/<workload>.trace.json: a name table and one
// [name, start_ns, end_ns, parent] row per span.
func (r *recorder) write(dir, workload string) error {
	rows := make([][4]int64, len(r.spans))
	for i, s := range r.spans {
		rows[i] = [4]int64{int64(s.Name), s.Start, s.End, int64(s.Parent)}
	}
	buf, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Columns  [4]string  `json:"columns"`
		Names    []string   `json:"names"`
		Spans    [][4]int64 `json:"spans"`
	}{workload, [4]string{"name", "start_ns", "end_ns", "parent"}, r.names, rows})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), buf, 0o644)
}

package substrate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deflation/internal/restypes"
)

type fakeInst struct{ alloc restypes.Vector }

func (f *fakeInst) Allocation() restypes.Vector { return f.alloc }

// TestPoolDriftBoundsRunningTotal checks the invariant FitsFree's band rests
// on: after any run of Put, Delete and Resize since the last walk, the
// running total is within drift + 2n·u·(|R| + drift) of what a walk would
// sum, in every dimension. Thousands of resizes of fractional sizes on a
// large base make the rounding errors pile up far past the re-based drift,
// so a drift that did not grow with them fails here.
func TestPoolDriftBoundsRunningTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPool[*fakeInst](restypes.V(1e6, 1e9, 1e6, 1e6))
	insts := make([]*fakeInst, 8)
	random := func() restypes.Vector {
		return restypes.V(rng.Float64()*1e5, rng.Float64()*1e8, rng.Float64()*10, rng.Float64()*1e-3)
	}
	for i := range insts {
		insts[i] = &fakeInst{random()}
		p.Put(fmt.Sprintf("f%d", i), insts[i])
	}
	p.Allocated()
	worst := 0.0
	for step := 0; step < 20000; step++ {
		i := rng.Intn(len(insts))
		name := fmt.Sprintf("f%d", i)
		switch rng.Intn(20) {
		case 0:
			p.Delete(name)
			insts[i] = &fakeInst{random()}
			p.Put(name, insts[i])
		default:
			next := random()
			p.Resize(insts[i].alloc, next)
			insts[i].alloc = next
		}
		var walk restypes.Vector
		for _, f := range p.table.Ordered() {
			walk = walk.Add(f.alloc)
		}
		n := float64(p.table.Len())
		for _, k := range restypes.Kinds() {
			run, drift := p.run.At(k), p.drift.At(k)
			bound := drift + 2*n*unitRoundoff*(math.Abs(run)+drift)
			if dev := math.Abs(run - walk.At(k)); dev > bound {
				t.Fatalf("step %d, %v: running total off the walk by %g, bound %g", step, k, dev, bound)
			} else if dev > 0 {
				worst = max(worst, dev/(n*unitRoundoff*math.Abs(run)))
			}
		}
	}
	// The errors must have piled up past what a fresh walk's drift allows,
	// or this test could not tell a drift that never grows.
	if worst < 8 {
		t.Errorf("worst deviation only %.1f n·u·|R|: the script does not stress the drift", worst)
	}
	t.Logf("worst deviation %.1f n·u·|R|", worst)
}

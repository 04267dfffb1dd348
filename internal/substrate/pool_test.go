package substrate_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/substrate"
)

// fitsScript drives one host from a byte script — create, resize, destroy,
// reserve, unreserve, walk — and after every step compares the host's
// FitsFree with v.Fits(free), where free is recomputed by the walk the
// filter replaced (capacity − allocations summed in name order − reserved,
// clamped). The probes sit on the decision boundary free + ε, a few ulps
// either side, in one dimension or in all; resizes aim at the same boundary,
// and their admission must match the walk's answer too. The walk here never
// touches the host, so the running total drifts across many steps unless a
// step re-bases it on purpose.
type fitsScript struct {
	t        *testing.T
	host     substrate.Substrate
	script   []byte
	at       int
	insts    []substrate.Instance // in name order
	reserved restypes.Vector
	next     int
}

func (s *fitsScript) byte() byte {
	if s.at >= len(s.script) {
		return 0
	}
	b := s.script[s.at]
	s.at++
	return b
}

// amount is a value in (0, 16] with a fractional part, so that sums round.
func (s *fitsScript) amount() float64 {
	return (float64(s.byte())*256 + float64(s.byte()) + 1) / 4096
}

// nudge moves x by k ulps, k in [−3, 3].
func nudge(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

func (s *fitsScript) free() restypes.Vector {
	var sum restypes.Vector
	for _, in := range s.insts {
		sum = sum.Add(in.Allocation())
	}
	return s.host.Capacity().Sub(sum).Sub(s.reserved).ClampNonNegative()
}

// boundary is free + ε nudged per dimension: all dimensions, or one, from
// the script; the others sit far inside.
func (s *fitsScript) boundary(free restypes.Vector) restypes.Vector {
	k, dim := int(s.byte()%7)-3, int(s.byte()%5)
	at := func(d int, x float64) float64 {
		if dim == 4 || dim == d {
			return nudge(x+restypes.FitsEpsilon, k)
		}
		return x / 2
	}
	return restypes.V(at(0, free.CPU), at(1, free.MemoryMB), at(2, free.DiskMBps), at(3, free.NetMBps))
}

func (s *fitsScript) check(step int, op string, v restypes.Vector) {
	want := v.Fits(s.free())
	if got := s.host.FitsFree(v); got != want {
		s.t.Fatalf("step %d (%s): FitsFree(%v) = %v, the walk says %v (free %v)", step, op, v, got, want, s.free())
	}
}

func (s *fitsScript) run() {
	for step := 0; s.at < len(s.script); step++ {
		op := "probe"
		switch s.byte() % 8 {
		case 0, 1:
			op = "create"
			name := fmt.Sprintf("i%03d", s.next%200)
			s.next += 7
			size := restypes.V(1+s.amount(), 1024*s.amount(), 16*s.amount(), 16*s.amount())
			in, err := s.host.Spawn(name, size, guestos.Config{})
			if err != nil {
				break
			}
			i, _ := slices.BinarySearchFunc(s.insts, name, func(in substrate.Instance, n string) int {
				return strings.Compare(in.Name(), n)
			})
			s.insts = slices.Insert(s.insts, i, in)
		case 2, 3:
			op = "resize"
			if len(s.insts) == 0 {
				break
			}
			in := s.insts[int(s.byte())%len(s.insts)]
			var target restypes.Vector
			if s.byte()%2 == 0 {
				target = in.Allocation().Scale(s.amount() / 16) // shrink
			} else {
				target = in.Allocation().Add(s.boundary(s.free())) // grow to the boundary
			}
			grow := target.Min(in.Size()).ClampNonNegative().Sub(in.Allocation()).ClampNonNegative()
			want := grow.IsZero() || grow.Fits(s.free())
			_, err := in.SetAllocation(target)
			if got := !errors.Is(err, substrate.ErrInsufficientCapacity); got != want {
				s.t.Fatalf("step %d: growing %s by %v admitted %v, the walk says %v (free %v, err %v)",
					step, in.Name(), grow, got, want, s.free(), err)
			}
		case 4:
			op = "destroy"
			if len(s.insts) == 0 {
				break
			}
			i := int(s.byte()) % len(s.insts)
			s.insts[i].Destroy()
			s.insts = slices.Delete(s.insts, i, i+1)
		case 5:
			op = "reserve"
			v := s.boundary(s.free())
			if s.byte()%2 == 0 {
				v = v.Scale(s.amount() / 16)
			}
			want := v.ClampNonNegative().Fits(s.free())
			err := s.host.Reserve(v)
			if got := err == nil; got != want {
				s.t.Fatalf("step %d: reserving %v admitted %v, the walk says %v (free %v)", step, v, got, want, s.free())
			}
			if err == nil {
				s.reserved = s.reserved.Add(v.ClampNonNegative())
			}
		case 6:
			op = "unreserve"
			v := s.reserved.Scale(s.amount() / 16)
			s.host.Unreserve(v)
			s.reserved = s.reserved.Sub(v.ClampNonNegative()).ClampNonNegative()
		case 7:
			if s.byte()%4 == 0 {
				op = "walk"
				if got, want := s.host.FreePhysical(), s.free(); got != want {
					s.t.Fatalf("step %d: FreePhysical %v, the walk %v", step, got, want)
				}
			}
		}
		free := s.free()
		s.check(step, op, s.boundary(free))
		s.check(step, op, free)
		s.check(step, op, free.Scale(s.amount()/8))
	}
}

// FuzzHostFitsFree is the differential check of Pool.FitsFree on both
// substrates (see fitsScript).
func FuzzHostFitsFree(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 0, 9, 9, 9, 9, 9, 9, 9, 9, 3, 0, 1, 3, 4, 7, 0})
	f.Add([]byte{0, 200, 1, 0, 80, 40, 30, 20, 10, 0, 3, 1, 1, 6, 0, 5, 4, 2, 0, 3, 0, 1, 3, 2, 7, 0, 9})
	f.Add(slices.Repeat([]byte{1, 17, 33, 2, 0, 5, 3, 1, 0, 2, 5, 3, 1, 6, 2, 9}, 12))
	// A growth one rounding inside the boundary: a filter without its band
	// refuses it.
	f.Add([]byte("000\x0300000000000|000000000000000000000000X000000000000000000000000200Z90000$100000A00000000000200\xf8$000020082A"))
	f.Fuzz(runFitsScript)
}

// TestFitsFreeSurvivesLongDrift resizes a loaded host thousands of times
// without a walk, so the running total's error grows as large as it gets,
// and checks every growth admission against the walk on the boundary.
func TestFitsFreeSurvivesLongDrift(t *testing.T) {
	script := slices.Repeat([]byte{0, 13, 37, 0, 0, 77, 0, 0}, 40)
	script = append(script, slices.Repeat([]byte{3, 5, 1, 1, 2, 9, 0, 3, 3, 7, 1, 0, 200, 2, 9, 2, 2, 3, 0}, 800)...)
	runFitsScript(t, script)
}

// runFitsScript runs one script on a fresh host of each substrate.
func runFitsScript(t *testing.T, script []byte) {
	capacity := restypes.V(32, 131072, 4000, 4000)
	hv, err := hypervisor.NewHost(hypervisor.Config{Name: "h", Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := simcg.NewHost(simcg.Config{Name: "c", Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []substrate.Substrate{hv, cg} {
		(&fitsScript{t: t, host: h, script: script}).run()
	}
}

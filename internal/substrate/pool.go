package substrate

import (
	"fmt"
	"math"

	"deflation/internal/restypes"
)

// Pool is one host's capacity books, the same on every substrate: its
// instances in name order, the capacity set aside outside them (migration
// streams), and a running total of the instances' allocations. Allocated
// and Free walk the instances; FitsFree answers v.Fits(Free()) from the
// running total and walks only when the answer is too close to call, so a
// command that resizes every instance of a host (a proportional deflation,
// a reinflation after a release) does not walk the host once per instance.
//
// An instance must tell the pool of every allocation change (Resize) before
// it stores the new value; Put and Delete account for whole instances.
type Pool[T interface{ Allocation() restypes.Vector }] struct {
	table    Table[T]
	capacity restypes.Vector
	reserved restypes.Vector

	// run is the running total of the allocations, re-based on every walk;
	// drift bounds |run − T|, T the exact real sum of the allocations (see
	// FitsFree).
	run, drift restypes.Vector
}

// NewPool returns the empty books of a host with the given capacity.
func NewPool[T interface{ Allocation() restypes.Vector }](capacity restypes.Vector) Pool[T] {
	return Pool[T]{capacity: capacity}
}

// unitRoundoff is u = 2⁻⁵³: a float64 addition or subtraction is off from
// the exact result by at most u times the result's magnitude.
const unitRoundoff = 0x1p-53

// Get returns the instance stored under name.
func (p *Pool[T]) Get(name string) (T, bool) { return p.table.Get(name) }

// Ordered returns the instances in name order (see Table.Ordered).
func (p *Pool[T]) Ordered() []T { return p.table.Ordered() }

// Put stores an instance under name and adds its allocation, taking out
// the allocation of any instance it replaces.
func (p *Pool[T]) Put(name string, v T) {
	var old restypes.Vector
	if prev, replaced := p.table.Put(name, v); replaced {
		old = prev.Allocation()
	}
	p.Resize(old, v.Allocation())
}

// Delete removes the instance stored under name, if any, and its
// allocation.
func (p *Pool[T]) Delete(name string) {
	if v, ok := p.table.Delete(name); ok {
		p.Resize(v.Allocation(), restypes.Vector{})
	}
}

// Resize moves one instance's allocation in the running total from old to
// new, and grows drift by the two roundings that costs.
func (p *Pool[T]) Resize(old, new restypes.Vector) {
	mid := p.run.Sub(old)
	p.run = mid.Add(new)
	p.drift = p.drift.Add(abs(mid).Add(abs(p.run)).Scale(2 * unitRoundoff))
}

// Allocated returns the sum of the instances' allocations, added in name
// order so that it is deterministic, and re-bases the running total on it.
// Summing n terms ≥ 0 this way is off from T by at most γ(n)·T ≤ 2n·u·T
// (Higham, Accuracy and Stability of Numerical Algorithms, §4.2), which the
// re-based drift covers with room to spare.
func (p *Pool[T]) Allocated() restypes.Vector {
	var sum restypes.Vector
	for _, v := range p.table.Ordered() {
		sum = sum.Add(v.Allocation())
	}
	p.run = sum
	p.drift = sum.Scale(4 * float64(p.table.Len()+1) * unitRoundoff)
	return sum
}

// Free returns unallocated, unreserved capacity: a walk.
func (p *Pool[T]) Free() restypes.Vector {
	return p.capacity.Sub(p.Allocated()).Sub(p.reserved).ClampNonNegative()
}

// FitsFree reports v.Fits(p.Free()), bit for bit, without walking the
// instances unless some dimension of v lies within a band of the free
// capacity that the running total puts it at.
//
// The band is twice the error bound E on that free capacity, per dimension:
// with n instances, c capacity, r reserved, R the running total, D its
// drift and K = c + r + 2(|R| + D) + ε bounding every magnitude involved,
//
//	E = D + 8(n+1)·u·K.
//
// D bounds |R − T|; a walk's sum S is within 2n·u·T ≤ 2n·u·(|R| + D) of
// T; and free capacity, c − S − r clamped at zero, plus Fits's ε, adds
// three roundings of magnitude at most K. So the walk's free capacity plus
// ε lies within E of the one computed from R, and a margin beyond 2E (the
// extra E absorbs the rounding of the comparison bounds themselves) decides
// the same way the walk would. A decision the band leaves open walks, which
// also re-bases R.
func (p *Pool[T]) FitsFree(v restypes.Vector) bool {
	free := p.capacity.Sub(p.run).Sub(p.reserved).ClampNonNegative()
	n := float64(p.table.Len() + 1)
	c, r, run, d := &p.capacity, &p.reserved, &p.run, &p.drift
	if s := min(side(v.CPU, free.CPU, c.CPU, r.CPU, run.CPU, d.CPU, n),
		side(v.MemoryMB, free.MemoryMB, c.MemoryMB, r.MemoryMB, run.MemoryMB, d.MemoryMB, n),
		side(v.DiskMBps, free.DiskMBps, c.DiskMBps, r.DiskMBps, run.DiskMBps, d.DiskMBps, n),
		side(v.NetMBps, free.NetMBps, c.NetMBps, r.NetMBps, run.NetMBps, d.NetMBps, n)); s != 0 {
		return s > 0
	}
	return v.Fits(p.Free())
}

// side decides one dimension of FitsFree: +1 when g ≤ free + ε holds
// whatever the walk's rounding, −1 when it fails whatever the rounding,
// 0 when only a walk can tell (NaN included).
func side(g, free, c, r, run, drift, n float64) int {
	k := c + r + 2*(math.Abs(run)+drift) + restypes.FitsEpsilon
	band := 2 * (drift + 8*n*unitRoundoff*k)
	a := free + restypes.FitsEpsilon
	switch {
	case g <= a-band:
		return 1
	case g > a+band:
		return -1
	}
	return 0
}

// Reserve sets aside v (clamped at zero) outside any instance. It fails
// with ErrInsufficientCapacity when v does not fit in free capacity.
func (p *Pool[T]) Reserve(v restypes.Vector) error {
	v = v.ClampNonNegative()
	if !p.FitsFree(v) {
		return fmt.Errorf("%w: reserving %v, free %v", ErrInsufficientCapacity, v, p.Free())
	}
	p.reserved = p.reserved.Add(v)
	return nil
}

// Unreserve returns previously reserved capacity.
func (p *Pool[T]) Unreserve(v restypes.Vector) {
	p.reserved = p.reserved.Sub(v.ClampNonNegative()).ClampNonNegative()
}

func abs(v restypes.Vector) restypes.Vector {
	return restypes.Vector{CPU: math.Abs(v.CPU), MemoryMB: math.Abs(v.MemoryMB),
		DiskMBps: math.Abs(v.DiskMBps), NetMBps: math.Abs(v.NetMBps)}
}

// Package restypes defines the multi-dimensional resource quantities that
// deflation operates on. A resource allocation is a Vector over four
// dimensions — CPU cores, memory, disk bandwidth, and network bandwidth —
// matching the (CPU, Memory, Disk, Network) reclamation-target vector of the
// paper's cascade-deflation pseudo-code (Fig. 3).
package restypes

import (
	"fmt"
	"math"
)

// Kind identifies one resource dimension of a Vector.
type Kind int

// The four resource dimensions managed by deflation.
const (
	CPU Kind = iota
	Memory
	Disk
	Net
	NumKinds // number of dimensions; not itself a Kind
)

// String returns the lowercase dimension name.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case Disk:
		return "disk"
	case Net:
		return "net"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists every resource dimension, in canonical order.
func Kinds() [NumKinds]Kind { return [NumKinds]Kind{CPU, Memory, Disk, Net} }

// Vector is a resource quantity: CPU in cores, memory in MB, and disk and
// network bandwidth in MB/s. The zero Vector is an empty allocation.
//
// Vectors are small value types; all arithmetic returns new values.
type Vector struct {
	CPU      float64 // cores (fractional cores are allowed)
	MemoryMB float64 // mebibytes
	DiskMBps float64 // disk bandwidth, MB/s
	NetMBps  float64 // network bandwidth, MB/s
}

// V is shorthand for constructing a Vector.
func V(cpu, memMB, diskMBps, netMBps float64) Vector {
	return Vector{CPU: cpu, MemoryMB: memMB, DiskMBps: diskMBps, NetMBps: netMBps}
}

// At returns the component for dimension k.
func (v Vector) At(k Kind) float64 {
	switch k {
	case CPU:
		return v.CPU
	case Memory:
		return v.MemoryMB
	case Disk:
		return v.DiskMBps
	case Net:
		return v.NetMBps
	}
	panic(fmt.Sprintf("restypes: invalid kind %d", int(k)))
}

// Add returns v + w element-wise.
func (v Vector) Add(w Vector) Vector {
	return Vector{v.CPU + w.CPU, v.MemoryMB + w.MemoryMB, v.DiskMBps + w.DiskMBps, v.NetMBps + w.NetMBps}
}

// Sub returns v - w element-wise. Components may go negative; use
// ClampNonNegative when a deficit is not meaningful.
func (v Vector) Sub(w Vector) Vector {
	return Vector{v.CPU - w.CPU, v.MemoryMB - w.MemoryMB, v.DiskMBps - w.DiskMBps, v.NetMBps - w.NetMBps}
}

// Scale returns v scaled by s element-wise.
func (v Vector) Scale(s float64) Vector {
	return Vector{v.CPU * s, v.MemoryMB * s, v.DiskMBps * s, v.NetMBps * s}
}

// Mul returns the element-wise (Hadamard) product of v and w.
func (v Vector) Mul(w Vector) Vector {
	return Vector{v.CPU * w.CPU, v.MemoryMB * w.MemoryMB, v.DiskMBps * w.DiskMBps, v.NetMBps * w.NetMBps}
}

// Min returns the element-wise minimum of v and w, bit for bit math.Min's.
func (v Vector) Min(w Vector) Vector {
	return Vector{MinF(v.CPU, w.CPU), MinF(v.MemoryMB, w.MemoryMB),
		MinF(v.DiskMBps, w.DiskMBps), MinF(v.NetMBps, w.NetMBps)}
}

// Max returns the element-wise maximum of v and w, bit for bit math.Max's.
func (v Vector) Max(w Vector) Vector {
	return Vector{MaxF(v.CPU, w.CPU), MaxF(v.MemoryMB, w.MemoryMB),
		MaxF(v.DiskMBps, w.DiskMBps), MaxF(v.NetMBps, w.NetMBps)}
}

// MinF and MaxF are math.Min and math.Max bit for bit, and inlinable:
// math's call an assembly routine on amd64, and the builtins alone let NaN
// beat ∓Inf.
func MinF(x, y float64) float64 {
	if x < -math.MaxFloat64 || y < -math.MaxFloat64 {
		return math.Inf(-1)
	}
	return min(x, y)
}

func MaxF(x, y float64) float64 {
	if x > math.MaxFloat64 || y > math.MaxFloat64 {
		return math.Inf(1)
	}
	return max(x, y)
}

// ClampNonNegative returns v with every negative component replaced by
// zero, bit for bit math.Max(x, 0) per component: with 0 as one argument
// the builtin agrees with math.Max on NaN, ±Inf and −0, so MaxF's Inf
// checks are not needed.
func (v Vector) ClampNonNegative() Vector {
	return Vector{max(v.CPU, 0), max(v.MemoryMB, 0), max(v.DiskMBps, 0), max(v.NetMBps, 0)}
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	return v.CPU*w.CPU + v.MemoryMB*w.MemoryMB + v.DiskMBps*w.DiskMBps + v.NetMBps*w.NetMBps
}

// Norm returns the Euclidean magnitude of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// CosineSimilarity returns the cosine of the angle between v and w. This is
// the placement "fitness" of §5: fitness(D, A) = A·D / (|A||D|). It returns
// 0 when either vector is zero.
func (v Vector) CosineSimilarity(w Vector) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	return v.Dot(w) / (nv * nw)
}

// FitsEpsilon is the float-error allowance of Fits, per component.
const FitsEpsilon = 1e-9

// Fits reports whether v fits within w, i.e. every component of v is at most
// the corresponding component of w plus FitsEpsilon.
func (v Vector) Fits(w Vector) bool {
	const eps = FitsEpsilon
	return v.CPU <= w.CPU+eps && v.MemoryMB <= w.MemoryMB+eps &&
		v.DiskMBps <= w.DiskMBps+eps && v.NetMBps <= w.NetMBps+eps
}

// IsZero reports whether every component is exactly zero.
func (v Vector) IsZero() bool { return v == Vector{} }

// Positive reports whether every component is strictly positive.
func (v Vector) Positive() bool {
	return v.CPU > 0 && v.MemoryMB > 0 && v.DiskMBps > 0 && v.NetMBps > 0
}

// FractionOf returns the element-wise ratio v/w. Dimensions where w is zero
// yield 0 when v is also zero there, and +Inf otherwise.
func (v Vector) FractionOf(w Vector) Vector {
	div := func(a, b float64) float64 {
		if b == 0 {
			if a == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return a / b
	}
	return Vector{div(v.CPU, w.CPU), div(v.MemoryMB, w.MemoryMB),
		div(v.DiskMBps, w.DiskMBps), div(v.NetMBps, w.NetMBps)}
}

// MaxComponent returns the largest component of v.
func (v Vector) MaxComponent() float64 {
	return math.Max(math.Max(v.CPU, v.MemoryMB), math.Max(v.DiskMBps, v.NetMBps))
}

// Sum returns the sum of all components. Only meaningful for dimensionless
// vectors such as fractions.
func (v Vector) Sum() float64 { return v.CPU + v.MemoryMB + v.DiskMBps + v.NetMBps }

// String renders the vector compactly, e.g.
// "{cpu:4 mem:16384MB disk:100MB/s net:100MB/s}".
func (v Vector) String() string {
	return fmt.Sprintf("{cpu:%g mem:%gMB disk:%gMB/s net:%gMB/s}",
		v.CPU, v.MemoryMB, v.DiskMBps, v.NetMBps)
}

// Uniform returns a Vector with every component set to x. Useful for
// expressing uniform deflation fractions.
func Uniform(x float64) Vector { return Vector{x, x, x, x} }

package cascade

import (
	"testing"
	"testing/quick"

	"deflation/internal/apps/apptest"
	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// propVM builds a fresh standard VM for property runs.
func propVM(elastic bool) (*vm.VM, error) {
	h, err := hypervisor.NewHost(hypervisor.Config{Name: "h", Capacity: restypes.V(16, 65536, 400, 400)})
	if err != nil {
		return nil, err
	}
	d, err := h.CreateDomain("vm0", restypes.V(4, 16384, 100, 100), guestos.Config{})
	if err != nil {
		return nil, err
	}
	d.MarkWarm()
	var app vm.Application
	if elastic {
		app = apptest.NewElastic("e", 8000, 1000)
	} else {
		a := apptest.New("i")
		a.RSSMB = 8000
		app = a
	}
	return vm.New(d, app, vm.Config{})
}

// op decodes a fuzzed byte into a deflate/reinflate step.
type op struct {
	deflate bool
	frac    restypes.Vector
}

func decodeOps(raw []uint16) []op {
	ops := make([]op, 0, len(raw))
	for _, x := range raw {
		f := float64(x%64) / 100 // 0..0.63
		ops = append(ops, op{
			deflate: x%2 == 0,
			frac:    restypes.V(f*4, f*16384, f*100, f*100),
		})
	}
	return ops
}

// TestQuickCascadeInvariants drives random deflate/reinflate sequences
// through every level combination and checks the safety invariants:
// allocations stay within [0, size], the guest never goes below 1 vCPU, the
// elastic app is never OOM-killed, and host free capacity never goes
// negative.
func TestQuickCascadeInvariants(t *testing.T) {
	for _, levels := range []Levels{AllLevels(), VMLevel(), HypervisorOnly()} {
		levels := levels
		f := func(raw []uint16, elastic bool) bool {
			v, err := propVM(elastic)
			if err != nil {
				return false
			}
			c := New(levels)
			for _, o := range decodeOps(raw) {
				if o.deflate {
					target := o.frac.Min(v.Deflatable())
					if err := c.Deflate(v, target, &Report{}); err != nil {
						return false
					}
				} else {
					if err := c.Reinflate(v, o.frac, &Report{}); err != nil {
						return false
					}
				}
				alloc := v.Allocation()
				if !alloc.Fits(v.Size()) || alloc.Sub(restypes.Vector{}).ClampNonNegative() != alloc {
					return false
				}
				g := v.Domain().Guest()
				if g.CPUs() < 1 || g.MemoryMB() < 0 {
					return false
				}
				if v.Env().OOMKilled {
					return false // cascade must never OOM an app
				}
				if free := v.Domain().Env(); free.EffectiveCores < 0 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("levels %v: %v", levels, err)
		}
	}
}

// TestQuickDeflateReinflateRoundTrip: a full deflation followed by a full
// reinflation restores the exact nominal allocation and guest shape.
func TestQuickDeflateReinflateRoundTrip(t *testing.T) {
	f := func(x uint16, elastic bool) bool {
		v, err := propVM(elastic)
		if err != nil {
			return false
		}
		frac := float64(x%70) / 100
		target := v.Size().Scale(frac)
		c := New(AllLevels())
		if err := c.Deflate(v, target, &Report{}); err != nil {
			return false
		}
		if err := c.Reinflate(v, target, &Report{}); err != nil {
			return false
		}
		g := v.Domain().Guest()
		return v.Allocation() == v.Size() && g.CPUs() == 4 &&
			g.MemoryMB() == 16384
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeflationAlwaysMeetsTarget: with the hypervisor level enabled,
// the physical allocation always drops by exactly the target.
func TestQuickDeflationAlwaysMeetsTarget(t *testing.T) {
	f := func(x uint16) bool {
		v, err := propVM(true)
		if err != nil {
			return false
		}
		frac := float64(x%80) / 100
		target := v.Size().Scale(frac)
		c := New(AllLevels())
		before := v.Allocation()
		var rep Report
		err = c.Deflate(v, target, &rep)
		if err != nil {
			return false
		}
		want := before.Sub(target)
		got := rep.NewAllocation
		const eps = 1e-6
		return abs(got.CPU-want.CPU) < eps && abs(got.MemoryMB-want.MemoryMB) < eps &&
			abs(got.DiskMBps-want.DiskMBps) < eps && abs(got.NetMBps-want.NetMBps) < eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

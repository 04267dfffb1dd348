package cluster

import (
	"fmt"
	"testing"
	"testing/quick"

	"deflation/internal/cascade"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/vm"
)

// TestQuickControllerInvariants drives random launch/release sequences
// through a server and checks the physical-safety invariants after every
// operation: allocations never exceed capacity, availability arithmetic is
// consistent, and every live VM's allocation stays within [minSize, size].
func TestQuickControllerInvariants(t *testing.T) {
	capacity := restypes.V(16, 65536, 400, 400)
	f := func(raw []uint16) bool {
		h, err := hypervisor.NewHost(hypervisor.Config{Name: "s", Capacity: capacity})
		if err != nil {
			return false
		}
		c := NewLocalController(h, cascade.AllLevels(), ModeDeflation)
		next := 0
		for _, x := range raw {
			switch x % 3 {
			case 0, 1: // launch
				cpu := float64(1 + x%4)
				size := restypes.V(cpu, cpu*4096, 25*cpu, 25*cpu)
				prio := vm.LowPriority
				if x%16 == 7 {
					prio = vm.HighPriority
				}
				name := fmt.Sprintf("v%d", next)
				next++
				// Launches may legitimately fail when full.
				_, _, _ = c.LaunchVM(LaunchSpec{
					Name: name, Size: size, MinSize: size.Scale(0.25),
					Priority: prio, AppKind: "elastic", Warm: x%4 == 0,
				})
			case 2: // release an arbitrary live VM
				if vms := c.VMs(); len(vms) > 0 {
					if err := c.Release(vms[int(x)%len(vms)].Name()); err != nil {
						return false
					}
				}
			}

			// Invariants.
			if !c.host.Allocated().Fits(capacity) {
				return false
			}
			free := c.Free()
			if free != free.ClampNonNegative() {
				return false
			}
			// The memo matches a fresh walk bit for bit: §5 Eq. 4.
			var defl restypes.Vector
			for _, v := range c.VMs() {
				if v.Priority() == vm.LowPriority {
					defl = defl.Add(v.Deflatable())
				}
			}
			if c.Deflatable() != defl || capOf(c).Availability != free.Add(defl) {
				return false
			}
			for _, v := range c.VMs() {
				alloc := v.Allocation()
				if !alloc.Fits(v.Size()) {
					return false
				}
				if v.Priority() == vm.LowPriority && !v.MinSize().Fits(alloc.Add(restypes.Uniform(1e-6))) {
					return false
				}
				if v.Priority() == vm.HighPriority && alloc != v.Size() {
					return false
				}
				if v.Env().OOMKilled {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickSplitPoliciesMeetTargets: under the proportional split (with its
// largest-first drain), a feasible launch onto a full host always ends with
// the new VM fully allocated and physical capacity respected.
func TestQuickSplitPoliciesMeetTargets(t *testing.T) {
	capacity := restypes.V(16, 65536, 400, 400)
	f := func(seed uint16) bool {
		h, err := hypervisor.NewHost(hypervisor.Config{Name: "s", Capacity: capacity})
		if err != nil {
			return false
		}
		c := NewLocalController(h, cascade.AllLevels(), ModeDeflation)
		// Fill the host, then squeeze in one more.
		n := 2 + int(seed%3)
		size := restypes.V(16/float64(n), 65536/float64(n), 400/float64(n), 400/float64(n))
		for i := 0; i < n; i++ {
			if _, _, err := c.LaunchVM(LaunchSpec{
				Name: fmt.Sprintf("v%d", i), Size: size, MinSize: size.Scale(0.2),
				Priority: vm.LowPriority, AppKind: "elastic",
			}); err != nil {
				return false
			}
		}
		newVM, _, err := c.LaunchVM(LaunchSpec{
			Name: "extra", Size: size, MinSize: size.Scale(0.2),
			Priority: vm.LowPriority, AppKind: "elastic",
		})
		if err != nil {
			return false
		}
		return newVM.Allocation() == size && c.host.Allocated().Fits(capacity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

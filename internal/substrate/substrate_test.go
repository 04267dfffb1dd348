package substrate_test

import (
	"testing"
	"time"

	"deflation/internal/guestos"
	"deflation/internal/hypervisor"
	"deflation/internal/restypes"
	"deflation/internal/simcg"
	"deflation/internal/substrate"
)

// TestKindNormalize: the zero Kind is a hypervisor (state written before
// substrates existed), and every named kind is itself.
func TestKindNormalize(t *testing.T) {
	for k, want := range map[substrate.Kind]substrate.Kind{
		"":                       substrate.KindHypervisor,
		substrate.KindHypervisor: substrate.KindHypervisor,
		substrate.KindContainer:  substrate.KindContainer,
	} {
		if got := k.Normalize(); got != want {
			t.Errorf("Kind(%q).Normalize() = %q, want %q", k, got, want)
		}
	}
}

// BenchmarkSubstrateResize compares the modeled end-to-end resize latency
// of the two substrates for the same 2-core / 8 GB reclamation: the KVM
// domain swaps the warm guest's touched memory out at swap-disk bandwidth,
// the container path is a single cgroup limit write.
func BenchmarkSubstrateResize(b *testing.B) {
	size := restypes.V(4, 16384, 100, 100)
	shrunk := size.Sub(restypes.V(2, 8192, 0, 0))
	newInstance := func(b *testing.B, container bool) substrate.Instance {
		b.Helper()
		if container {
			h, err := simcg.NewHost(simcg.Config{Name: "cg", Capacity: restypes.V(64, 262144, 4000, 4000)})
			if err != nil {
				b.Fatal(err)
			}
			inst, err := h.Spawn("c", size, guestos.Config{})
			if err != nil {
				b.Fatal(err)
			}
			return inst
		}
		h, err := hypervisor.NewHost(hypervisor.Config{Name: "kvm", Capacity: restypes.V(64, 262144, 4000, 4000)})
		if err != nil {
			b.Fatal(err)
		}
		dom, err := h.CreateDomain("v", size, guestos.Config{})
		if err != nil {
			b.Fatal(err)
		}
		dom.MarkWarm()
		return dom
	}
	for _, sub := range []struct {
		name      string
		container bool
	}{{"kvm", false}, {"cgroup-write", true}} {
		b.Run(sub.name, func(b *testing.B) {
			inst := newInstance(b, sub.container)
			var modeled time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lat, err := inst.SetAllocation(shrunk)
				if err != nil {
					b.Fatal(err)
				}
				modeled = lat
				if _, err := inst.SetAllocation(size); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(modeled.Seconds()*1000, "modeled-resize-ms")
		})
	}
}
